/**
 * @file
 * Unit tests for makeTrafficSource() (the Registry.* suites) and
 * the accord.trace/1 binary format (source.hpp, bintrace.hpp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "trace/bintrace.hpp"
#include "trace/generator.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

using namespace accord;
using namespace accord::trace;

namespace
{

/** Temp trace path unique per test. */
std::string
tracePath(const char *name)
{
    return std::string(::testing::TempDir()) + "accord_bintrace_"
        + name + ".trc";
}

/** Default single-core context over the libq model. */
SourceContext
libqContext()
{
    SourceContext ctx;
    ctx.spec = coreAssignment("libq", 1)[0];
    ctx.core = 0;
    ctx.numCores = 1;
    ctx.scale = 4096;
    ctx.seed = 1;
    ctx.wbLag = 2048;
    return ctx;
}

/** Records that exercise deltas forward/backward, kinds, classes. */
std::vector<Request>
awkwardRecords()
{
    std::vector<Request> recs;
    const LineAddr far = LineAddr(1) << 57;
    const struct {
        LineAddr line;
        core::RequestKind kind;
        std::uint16_t cls;
    } raw[] = {
        {0, core::RequestKind::Demand, 0},
        {1, core::RequestKind::Demand, 0},
        {1, core::RequestKind::Writeback, 0},
        {1000, core::RequestKind::Demand, 7},
        {3, core::RequestKind::Demand, 7},
        {far, core::RequestKind::Writeback, 65535},
        {far + 1, core::RequestKind::Demand, 65535},
        {5, core::RequestKind::Demand, 0},
    };
    for (const auto &r : raw) {
        Request req;
        req.line = r.line;
        req.kind = r.kind;
        req.cls = r.cls;
        recs.push_back(req);
    }
    return recs;
}

void
writeRecords(const std::string &path, const std::vector<Request> &recs,
             bool gzip = false)
{
    BinTraceWriter writer(path, gzip);
    for (const Request &req : recs)
        writer.append(req);
    writer.close();
}

/**
 * A stream spanning several 64 KB read chunks: every fifth record
 * jumps far, with a delta varint of 8 bytes (the longest the one-word
 * decoder takes), 9 bytes, or 10 bytes (the longest the format
 * allows); class changes up to 65535 and writebacks are mixed in.
 */
std::vector<Request>
chunkEdgeRecords(std::size_t count)
{
    const LineAddr jumps[] = {(LineAddr(1) << 55) - 1, LineAddr(1) << 55,
                              LineAddr(1) << 63};
    std::vector<Request> recs(count);
    LineAddr line = 0;
    for (std::size_t i = 0; i < count; ++i) {
        line += i % 5 == 0 ? jumps[(i / 5) % 3] : (i * 2654435761u) % 977;
        recs[i].line = line;
        recs[i].kind = i % 3 == 0 ? core::RequestKind::Writeback
                                  : core::RequestKind::Demand;
        recs[i].cls = static_cast<std::uint16_t>((i / 37) * 4099);
    }
    return recs;
}

/** Skip counts to alternate with next(): around the index stride too. */
constexpr std::uint64_t kSkipPattern[] = {0,    1,    2,    3,    5,
                                          100,  4095, 4096, 4097, 7,
                                          9000, 0,    1,    12345};

/**
 * Drive `src` with kSkipPattern skips, each followed by one next(),
 * and check every emitted record against `want`, the stripe's full
 * stream: skip(n) then next() must equal n+1 calls to next().
 */
void
expectSkipsMatch(TraceSource &src, const std::vector<Request> &want)
{
    std::uint64_t pos = 0;
    for (std::size_t round = 0;; ++round) {
        const std::uint64_t n =
            kSkipPattern[round % std::size(kSkipPattern)];
        if (pos + n >= want.size())
            break;
        src.skip(n);
        pos += n;
        ASSERT_FALSE(src.exhausted()) << "position " << pos;
        const Request got = src.next();
        ASSERT_EQ(got.line, want[pos].line) << "position " << pos;
        ASSERT_EQ(got.kind, want[pos].kind) << "position " << pos;
        ASSERT_EQ(got.cls, want[pos].cls) << "position " << pos;
        ASSERT_EQ(got.position, pos);
        ++pos;
    }
    // Skipping exactly the rest exhausts a bounded source.
    src.skip(want.size() - pos);
    EXPECT_TRUE(src.exhausted());
}

/** Every record `src` emits, by next() alone. */
std::vector<Request>
drain(TrafficSource &src)
{
    std::vector<Request> out;
    while (!src.exhausted())
        out.push_back(src.next());
    return out;
}

/** Read buffer size of BinTraceReader: its first chunk ends here. */
constexpr std::uint64_t kChunkEdge = 64 * 1024;

/** Bytes of a decode run's tail margin: a 21-byte record plus an
 *  8-byte word load. */
constexpr std::uint64_t kTailMarginBytes = 29;

/**
 * A seeded record stream whose encoded size is tracked record by
 * record, so a test can land record boundaries on chosen stream
 * offsets.  Offsets count from the start of the file (header
 * included), as BinTraceReader::Mark::offset does.
 */
class SizedStream
{
  public:
    explicit SizedStream(std::uint64_t seed) : rng_(seed) {}

    /**
     * Append a record whose line delta is a `varint`-byte varint
     * (1-10) and whose class is `cls` (a class varint follows when it
     * changes).
     */
    void
    add(unsigned varint, std::uint16_t cls, bool writeback)
    {
        // A zigzag value that needs exactly `varint` bytes.
        const std::uint64_t lo =
            varint == 1 ? 0 : std::uint64_t(1) << (7 * (varint - 1));
        const std::uint64_t span = varint == 10
            ? std::uint64_t(0) - lo
            : (std::uint64_t(1) << (7 * varint)) - lo;
        const std::uint64_t zigzag = lo + rng_.below(span);
        line_ += static_cast<std::uint64_t>(
            static_cast<std::int64_t>(zigzag >> 1)
            ^ -static_cast<std::int64_t>(zigzag & 1));
        offset_ += 1 + varint;
        if (cls != cls_) {
            for (std::uint64_t v = cls; v >= 0x80; v >>= 7)
                ++offset_;
            ++offset_;
            cls_ = cls;
        }
        Request req;
        req.line = line_;
        req.kind = writeback ? core::RequestKind::Writeback
                             : core::RequestKind::Demand;
        req.cls = cls_;
        records_.push_back(req);
    }

    /** A random record: mostly short deltas, every varint length,
     *  class changes including 0 and 0xFFFF, and writebacks. */
    void
    addRandom()
    {
        const unsigned varint = rng_.chance(0.5)
            ? 1 + static_cast<unsigned>(rng_.below(2))
            : 1 + static_cast<unsigned>(rng_.below(10));
        std::uint16_t cls = cls_;
        if (rng_.chance(0.125)) {
            const std::uint16_t picks[] = {0, 0xFFFF, 127, 128, 16383,
                                           16384};
            cls = rng_.chance(0.5)
                ? picks[rng_.below(std::size(picks))]
                : static_cast<std::uint16_t>(rng_.below(0x10000));
        }
        add(varint, cls, rng_.chance(0.25));
    }

    /** Add random records, then 2- and 3-byte ones, so that a record
     *  boundary falls exactly on `offset`. */
    void
    boundaryAt(std::uint64_t offset)
    {
        while (offset_ + 64 < offset)
            addRandom();
        while (offset - offset_ >= 4)
            add(1, cls_, false);
        if (offset > offset_)
            add(static_cast<unsigned>(offset - offset_ - 1), cls_, false);
    }

    std::uint64_t offset() const { return offset_; }
    const std::vector<Request> &records() const { return records_; }

  private:
    Rng rng_;
    LineAddr line_ = 0;
    std::uint16_t cls_ = 0;
    std::uint64_t offset_ = kBinTraceHeaderBytes;
    std::vector<Request> records_;
};

/**
 * A stream with a record boundary exactly at `edge`, about 40 KB more
 * past it, and a tail whose last 29 bytes hold three records: a
 * 10-byte delta with a class change to 0xFFFF, a short one back to
 * class 0, and a last 10-byte delta (so cutting the file's last byte
 * cuts that varint).
 */
std::vector<Request>
edgeRecords(std::uint64_t edge)
{
    SizedStream stream(edge);
    stream.boundaryAt(edge);
    while (stream.offset() < edge + 40'000)
        stream.addRandom();
    stream.add(1, 0, false);
    stream.add(10, 0xFFFF, true);
    stream.add(1, 0, true);
    stream.add(10, 0, false);
    return stream.records();
}

/** Record boundaries around the first chunk edge and the tail margin
 *  before it. */
constexpr std::uint64_t kEdgeOffsets[] = {
    kChunkEdge - kTailMarginBytes - 1, kChunkEdge - kTailMarginBytes,
    kChunkEdge - kTailMarginBytes + 1, kChunkEdge - 21,
    kChunkEdge - 8,  kChunkEdge - 1,   kChunkEdge,
    kChunkEdge + 1};

/** Every record of `path` by next(), and the mark before each one and
 *  after the last. */
void
readByRecord(const std::string &path, std::vector<Request> &records,
             std::vector<BinTraceReader::Mark> &marks)
{
    BinTraceReader reader(path);
    Request req;
    marks.push_back(reader.mark());
    while (reader.next(req)) {
        records.push_back(req);
        marks.push_back(reader.mark());
    }
}

/** The bytes of the file at `path`. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Decode all of `path` through next(), skip() or decodeStripes(). */
void
decodeAllByNext(const std::string &path)
{
    BinTraceReader reader(path);
    Request req;
    while (reader.next(req)) {
    }
}

void
decodeAllBySkip(const std::string &path)
{
    BinTraceReader reader(path);
    reader.skip(std::numeric_limits<std::uint64_t>::max());
}

void
decodeAllByStripes(const std::string &path)
{
    decodeStripes(path, 3, [](const LineAddr *, std::size_t) {});
}

} // namespace

TEST(BinTrace, RoundTripAwkwardDeltas)
{
    const auto path = tracePath("roundtrip");
    const auto recs = awkwardRecords();
    writeRecords(path, recs);

    BinTraceReader reader(path);
    EXPECT_EQ(reader.declaredCount(), recs.size());
    Request req;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(reader.next(req)) << "record " << i;
        EXPECT_EQ(req.line, recs[i].line) << "record " << i;
        EXPECT_EQ(req.kind, recs[i].kind) << "record " << i;
        EXPECT_EQ(req.cls, recs[i].cls) << "record " << i;
        EXPECT_EQ(req.position, i);
    }
    EXPECT_FALSE(reader.next(req));
    EXPECT_EQ(reader.recordsRead(), recs.size());
    std::remove(path.c_str());
}

TEST(BinTrace, RewindReplaysIdentically)
{
    const auto path = tracePath("rewind");
    writeRecords(path, awkwardRecords());

    BinTraceReader reader(path);
    std::vector<LineAddr> first;
    Request req;
    while (reader.next(req))
        first.push_back(req.line);
    reader.rewind();
    std::vector<LineAddr> second;
    while (reader.next(req))
        second.push_back(req.line);
    EXPECT_EQ(first, second);
    std::remove(path.c_str());
}

TEST(BinTrace, GzipRoundTrip)
{
    if (!binTraceGzipAvailable())
        GTEST_SKIP() << "built without zlib";
    const auto path = tracePath("gzip");
    const auto recs = awkwardRecords();
    writeRecords(path, recs, /* gzip */ true);

    BinTraceReader reader(path);
    // The gzip wrapper cannot be patched, so the count is unknown.
    EXPECT_EQ(reader.declaredCount(), 0u);
    Request req;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(reader.next(req)) << "record " << i;
        EXPECT_EQ(req.line, recs[i].line);
        EXPECT_EQ(req.kind, recs[i].kind);
        EXPECT_EQ(req.cls, recs[i].cls);
    }
    EXPECT_FALSE(reader.next(req));
    std::remove(path.c_str());
}

TEST(BinTraceDeath, RejectsBadMagic)
{
    const auto path = tracePath("badmagic");
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOTATRACE and then some bytes";
    }
    EXPECT_EXIT(BinTraceReader reader(path),
                ::testing::ExitedWithCode(1), "magic");
    std::remove(path.c_str());
}

TEST(BinTraceDeath, RejectsTruncatedHeader)
{
    const auto path = tracePath("trunchdr");
    {
        std::ofstream out(path, std::ios::binary);
        out.write("ACRDBT01\x00", 9);  // count u64 missing
    }
    EXPECT_EXIT(BinTraceReader reader(path),
                ::testing::ExitedWithCode(1), "short header");
    std::remove(path.c_str());
}

TEST(BinTraceDeath, RejectsMidRecordTruncation)
{
    const auto path = tracePath("truncrec");
    writeRecords(path, awkwardRecords());
    // Chop the file mid-record: the last record's varint loses bytes.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<char> bytes(size - 1);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    in.close();
    {
        std::ofstream out(path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EXIT(
        {
            BinTraceReader reader(path);
            Request req;
            while (reader.next(req)) {
            }
        },
        ::testing::ExitedWithCode(1), "truncated");
    std::remove(path.c_str());
}

TEST(BinTraceDeath, RejectsMissingFile)
{
    EXPECT_EXIT(BinTraceReader reader("/nonexistent/trace.trc"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(BinTraceDeath, HeaderCountAboveRecordsIsTruncation)
{
    const auto path = tracePath("count_short");
    const std::vector<Request> recs(5);
    writeRecords(path, recs);
    std::string bytes = fileBytes(path);
    bytes[9] = 7;  // record count, little-endian
    writeBytes(path, bytes);
    EXPECT_EXIT(decodeAllByNext(path), ::testing::ExitedWithCode(1),
                "truncated trace '.*' \\(5 of 7 records\\)");
    std::remove(path.c_str());
}

TEST(BinTraceDeath, HeaderCountBelowRecordsIsCorruption)
{
    const auto path = tracePath("count_surplus");
    const std::vector<Request> recs(5);
    writeRecords(path, recs);
    std::string bytes = fileBytes(path);
    bytes[9] = 3;
    writeBytes(path, bytes);
    EXPECT_EXIT(decodeAllByNext(path), ::testing::ExitedWithCode(1),
                "corrupt trace '.*' \\(5 records, header declares 3\\)");
    std::remove(path.c_str());
}

TEST(BinTrace, EveryReadPathDecodesTheSameRecordsAndMarks)
{
    // next() record by record is the reference.  kSkipPattern skips
    // each followed by next(), and readLines() in batches of 1, 7,
    // 4096 and the whole rest, must give the same lines, kinds,
    // classes and positions, and leave the reader at the same mark,
    // whichever side of the chunk edge and the tail margin a record
    // boundary falls on.
    for (const bool gzip : {false, true}) {
        if (gzip && !binTraceGzipAvailable())
            continue;
        for (const std::uint64_t edge : kEdgeOffsets) {
            SCOPED_TRACE(::testing::Message()
                         << (gzip ? "gzip" : "plain") << " boundary at "
                         << edge);
            const auto recs = edgeRecords(edge);
            const auto path = tracePath(gzip ? "paths_gz" : "paths");
            writeRecords(path, recs, gzip);
            std::vector<Request> want;
            std::vector<BinTraceReader::Mark> marks;
            readByRecord(path, want, marks);
            ASSERT_EQ(want.size(), recs.size());
            for (std::size_t i = 0; i < recs.size(); ++i) {
                ASSERT_EQ(want[i].line, recs[i].line) << i;
                ASSERT_EQ(want[i].kind, recs[i].kind) << i;
                ASSERT_EQ(want[i].cls, recs[i].cls) << i;
                ASSERT_EQ(want[i].position, i);
            }
            EXPECT_TRUE(std::any_of(marks.begin(), marks.end(),
                                    [edge](const auto &mark) {
                                        return mark.offset == edge;
                                    }));
            const std::uint64_t size = marks.back().offset;
            EXPECT_GE(std::count_if(marks.begin(), marks.end() - 1,
                                    [size](const auto &mark) {
                                        return mark.offset + kTailMarginBytes
                                            > size;
                                    }),
                      3);

            BinTraceReader skipper(path);
            std::uint64_t pos = 0;
            for (std::size_t round = 0;; ++round) {
                const std::uint64_t n =
                    kSkipPattern[round % std::size(kSkipPattern)];
                if (pos + n >= want.size())
                    break;
                ASSERT_EQ(skipper.skip(n), n);
                pos += n;
                ASSERT_EQ(skipper.mark(), marks[pos]) << pos;
                Request req;
                ASSERT_TRUE(skipper.next(req));
                ASSERT_EQ(req.line, want[pos].line) << pos;
                ASSERT_EQ(req.kind, want[pos].kind) << pos;
                ASSERT_EQ(req.cls, want[pos].cls) << pos;
                ASSERT_EQ(req.position, pos);
                ++pos;
                ASSERT_EQ(skipper.mark(), marks[pos]) << pos;
            }
            EXPECT_EQ(skipper.skip(want.size()), want.size() - pos);
            EXPECT_EQ(skipper.mark(), marks.back());

            for (const std::uint64_t batch :
                 {std::uint64_t(1), std::uint64_t(7), kTraceSeekStride,
                  std::uint64_t(want.size())}) {
                SCOPED_TRACE(::testing::Message() << "batch " << batch);
                BinTraceReader reader(path);
                std::vector<LineAddr> lines(batch);
                for (pos = 0; pos < want.size();) {
                    const std::uint64_t got =
                        reader.readLines(lines.data(), batch);
                    ASSERT_EQ(got, std::min(batch, want.size() - pos));
                    for (std::uint64_t i = 0; i < got; ++i)
                        ASSERT_EQ(lines[i], want[pos + i].line) << pos + i;
                    pos += got;
                    ASSERT_EQ(reader.mark(), marks[pos]) << pos;
                }
                EXPECT_EQ(reader.readLines(lines.data(), batch), 0u);
            }
            std::remove(path.c_str());
        }
    }
}

TEST(BinTraceDeath, HostileInputFatalsThroughEveryReadPath)
{
    // Each mutation of a valid file exits 1 with its message through
    // next(), skip() and decodeStripes(): once in the middle of a run,
    // and once in the file's last record, which the reader decodes
    // with the file's end in the buffer.
    const auto base = tracePath("hostile_base");
    writeRecords(base, edgeRecords(kChunkEdge));
    std::vector<Request> recs;
    std::vector<BinTraceReader::Mark> marks;
    readByRecord(base, recs, marks);
    const std::string valid = fileBytes(base);
    const std::uint64_t count = recs.size();
    const std::size_t mid = static_cast<std::size_t>(marks[count / 3].offset);
    const std::size_t last =
        static_cast<std::size_t>(marks[count - 1].offset);

    // Replace the record at `at` with `record`.
    const auto replaced = [&valid](std::size_t at, std::size_t next,
                                   const std::string &record) {
        std::string bytes = valid;
        bytes.replace(at, next - at, record);
        return bytes;
    };
    const auto declaring = [&valid](std::uint64_t declared) {
        std::string bytes = valid;
        for (int i = 0; i < 8; ++i)
            bytes[9 + i] = static_cast<char>(declared >> (8 * i));
        return bytes;
    };
    const std::string overlong_delta =
        std::string(1, '\x00') + std::string(10, '\x80') + '\x01';
    const std::string wide_class("\x02\x00\x80\x80\x04", 5);
    const std::size_t mid_end =
        static_cast<std::size_t>(marks[count / 3 + 1].offset);
    const struct
    {
        const char *name;
        std::string bytes;
        std::string message;
    } cases[] = {
        {"reserved bit mid",
         replaced(mid, mid + 1, std::string(1, valid[mid] | '\x04')),
         "reserved control bits set"},
        {"reserved bit last",
         replaced(last, last + 1, std::string(1, valid[last] | '\x40')),
         "reserved control bits set"},
        {"11-byte delta mid", replaced(mid, mid_end, overlong_delta),
         "varint overflow in line delta"},
        {"11-byte delta last", replaced(last, valid.size(), overlong_delta),
         "varint overflow in line delta"},
        {"class 65536 mid", replaced(mid, mid_end, wide_class),
         "request class 65536 > 16 bit"},
        {"class 65536 last", replaced(last, valid.size(), wide_class),
         "request class 65536 > 16 bit"},
        {"cut inside the last varint", valid.substr(0, valid.size() - 1),
         "truncated trace '.*' \\(eof inside line delta\\)"},
        {"header count one above", declaring(count + 1),
         "truncated trace '.*' \\(" + std::to_string(count) + " of "
             + std::to_string(count + 1) + " records\\)"},
        {"header count one below", declaring(count - 1),
         "corrupt trace '.*' \\(" + std::to_string(count)
             + " records, header declares " + std::to_string(count - 1)
             + "\\)"},
    };
    const auto path = tracePath("hostile");
    for (const auto &hostile : cases) {
        SCOPED_TRACE(hostile.name);
        writeBytes(path, hostile.bytes);
        EXPECT_EXIT(decodeAllByNext(path), ::testing::ExitedWithCode(1),
                    hostile.message);
        EXPECT_EXIT(decodeAllBySkip(path), ::testing::ExitedWithCode(1),
                    hostile.message);
        EXPECT_EXIT(decodeAllByStripes(path), ::testing::ExitedWithCode(1),
                    hostile.message);
    }
    std::remove(path.c_str());
    std::remove(base.c_str());
}

TEST(BinTraceDeath, TruncatedGzipFatalsThroughEveryReadPath)
{
    // The gzip header's record count stays 0, so only zlib can tell a
    // cut stream from a whole one.  Cuts 1 and 8 lose part or all of
    // the gzip trailer and 258 and 12286 end the inflated data on a
    // record boundary, so the records alone look whole; 12 ends it
    // mid-record.
    if (!binTraceGzipAvailable())
        GTEST_SKIP() << "built without zlib";
    const auto base = tracePath("gzip_cut_base");
    writeRecords(base, chunkEdgeRecords(20000), /* gzip */ true);
    const std::string whole = fileBytes(base);
    const auto path = tracePath("gzip_cut");
    for (const std::size_t cut : {1u, 8u, 12u, 258u, 12286u}) {
        SCOPED_TRACE("cut " + std::to_string(cut));
        ASSERT_LT(cut, whole.size());
        writeBytes(path, whole.substr(0, whole.size() - cut));
        const std::string message =
            "truncated trace '.*' \\(gzip stream ends early\\)";
        EXPECT_EXIT(decodeAllByNext(path), ::testing::ExitedWithCode(1),
                    message);
        EXPECT_EXIT(decodeAllBySkip(path), ::testing::ExitedWithCode(1),
                    message);
        EXPECT_EXIT(decodeAllByStripes(path), ::testing::ExitedWithCode(1),
                    message);
    }
    std::remove(path.c_str());
    std::remove(base.c_str());
}

TEST(TraceSource, StripingPartitionsTheStream)
{
    const auto path = tracePath("stripe");
    std::vector<Request> recs;
    for (std::uint64_t i = 0; i < 90; ++i) {
        Request req;
        req.line = i;
        recs.push_back(req);
    }
    writeRecords(path, recs);

    // Three stripes must partition the records exactly.
    std::vector<LineAddr> seen;
    for (unsigned core = 0; core < 3; ++core) {
        TraceSource src(path, /* loop */ false, 3, core);
        while (!src.exhausted()) {
            const Request req = src.next();
            EXPECT_EQ(req.line % 3, core);
            seen.push_back(req.line);
        }
    }
    EXPECT_EQ(seen.size(), recs.size());
    std::remove(path.c_str());
}

TEST(TraceSource, LoopRestartsAndIsUnbounded)
{
    const auto path = tracePath("loop");
    std::vector<Request> recs;
    for (std::uint64_t i = 0; i < 10; ++i) {
        Request req;
        req.line = i;
        recs.push_back(req);
    }
    writeRecords(path, recs);

    TraceSource src(path, /* loop */ true, 1, 0);
    EXPECT_FALSE(src.bounded());
    for (unsigned pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < 10; ++i) {
            ASSERT_FALSE(src.exhausted());
            EXPECT_EQ(src.next().line, i);
        }
    }
    std::remove(path.c_str());
}

TEST(BinTrace, ChunkEdgeAndMaxVarintRecordsRoundTrip)
{
    // The mixed stream, and one where every record has the longest
    // valid shape (10-byte delta, 3-byte class: 14 bytes), so each
    // read-buffer refill lands inside a record.
    std::vector<Request> longest(20'000);
    for (std::size_t i = 0; i < longest.size(); ++i) {
        longest[i].line = (i % 2) * (LineAddr(1) << 63);
        longest[i].cls = static_cast<std::uint16_t>(65534 + i % 2);
    }
    const auto path = tracePath("chunkedge");
    for (const auto &recs : {chunkEdgeRecords(60'000), longest}) {
        writeRecords(path, recs);
        BinTraceReader reader(path);
        constexpr std::uint64_t kChunk = 64 * 1024;
        bool straddles = false;
        bool max_varint = false;
        Request req;
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const std::uint64_t from = reader.mark().offset;
            ASSERT_TRUE(reader.next(req)) << "record " << i;
            const std::uint64_t to = reader.mark().offset;
            straddles = straddles || from / kChunk != (to - 1) / kChunk;
            max_varint = max_varint || to - from >= 1 + 10;
            ASSERT_EQ(req.line, recs[i].line) << "record " << i;
            ASSERT_EQ(req.kind, recs[i].kind) << "record " << i;
            ASSERT_EQ(req.cls, recs[i].cls) << "record " << i;
        }
        EXPECT_FALSE(reader.next(req));
        EXPECT_TRUE(straddles) << "no record crosses a 64 KB chunk edge";
        EXPECT_TRUE(max_varint) << "no record holds a 10-byte varint";
    }
    std::remove(path.c_str());
}

TEST(TraceSource, SkipThenNextEqualsRepeatedNext)
{
    const auto recs = chunkEdgeRecords(60'000);
    for (const bool gzip : {false, true}) {
        if (gzip && !binTraceGzipAvailable())
            continue;
        const auto path = tracePath(gzip ? "skip_gz" : "skip");
        writeRecords(path, recs, gzip);
        for (unsigned stripes = 1; stripes <= 4; ++stripes) {
            for (const unsigned index : {0u, stripes - 1}) {
                SCOPED_TRACE(::testing::Message()
                             << (gzip ? "gzip" : "plain") << " stripe "
                             << index << "/" << stripes);
                TraceSource full(path, false, stripes, index);
                const auto want = drain(full);
                // A fresh source has no index ahead of it: each skip
                // decodes the records it passes over.
                TraceSource fresh(path, false, stripes, index);
                expectSkipsMatch(fresh, want);
            }
        }
        std::remove(path.c_str());
    }
}

TEST(TraceSource, IndexedSkipEqualsDecodeOnlySkip)
{
    const auto recs = chunkEdgeRecords(60'000);
    for (const bool gzip : {false, true}) {
        if (gzip && !binTraceGzipAvailable())
            continue;
        const auto path = tracePath(gzip ? "index_gz" : "index");
        writeRecords(path, recs, gzip);
        for (const unsigned stripes : {1u, 3u}) {
            SCOPED_TRACE(::testing::Message()
                         << (gzip ? "gzip" : "plain") << " stripes "
                         << stripes);
            TraceSource indexed(path, false, stripes, stripes - 1);
            const auto want = drain(indexed);
            // The first pass left one mark per stride of kept records.
            EXPECT_EQ(indexed.seekMarks().size(),
                      (want.size() + kTraceSeekStride - 1)
                          / kTraceSeekStride);
            ASSERT_TRUE(indexed.rewind());
            expectSkipsMatch(indexed, want);

            TraceSource decode_only(path, false, stripes, stripes - 1);
            expectSkipsMatch(decode_only, want);
            EXPECT_EQ(decode_only.seekMarks(), indexed.seekMarks());
        }
        std::remove(path.c_str());
    }
}

TEST(TraceSource, DecodeStripesMatchesEachStripesOwnPass)
{
    // 65536 records: stripe 0 of 1, 2 or 4 stripes ends where its next
    // mark is due, so its index also holds the end-of-trace mark.
    const auto recs = chunkEdgeRecords(65'536);
    for (const bool gzip : {false, true}) {
        if (gzip && !binTraceGzipAvailable())
            continue;
        const auto path = tracePath(gzip ? "stripes_gz" : "stripes");
        writeRecords(path, recs, gzip);
        for (unsigned stripes = 1; stripes <= 4; ++stripes) {
            // Every group but the last holds a full stride of every
            // stripe, and lines[i] belongs to stripe i % stripes.
            std::vector<std::vector<LineAddr>> kept(stripes);
            std::vector<std::size_t> groups;
            const auto marks = decodeStripes(
                path, stripes,
                [&kept, &groups, stripes](const LineAddr *lines,
                                          std::size_t count) {
                    groups.push_back(count);
                    for (std::size_t i = 0; i < count; ++i)
                        kept[i % stripes].push_back(lines[i]);
                });
            ASSERT_FALSE(groups.empty());
            for (std::size_t g = 0; g + 1 < groups.size(); ++g)
                EXPECT_EQ(groups[g], stripes * kTraceSeekStride) << g;
            ASSERT_EQ(marks.size(), stripes);
            for (unsigned index = 0; index < stripes; ++index) {
                SCOPED_TRACE(::testing::Message()
                             << (gzip ? "gzip" : "plain") << " stripe "
                             << index << "/" << stripes);
                TraceSource own(path, false, stripes, index);
                const auto want = drain(own);
                ASSERT_EQ(kept[index].size(), want.size());
                for (std::size_t i = 0; i < want.size(); ++i)
                    ASSERT_EQ(kept[index][i], want[i].line) << i;
                EXPECT_EQ(marks[index], own.seekMarks());
                if (index == 0
                    && recs.size() % (stripes * kTraceSeekStride) == 0) {
                    EXPECT_EQ(marks[index].size(),
                              want.size() / kTraceSeekStride + 1);
                }

                // A fresh source that adopts the stripe's share skips
                // like the one that built its own index.
                TraceSource adopted(path, false, stripes, index);
                adopted.adoptSeekIndex(marks[index]);
                expectSkipsMatch(adopted, want);
                EXPECT_EQ(adopted.seekMarks(), own.seekMarks());
            }
        }
        std::remove(path.c_str());
    }
}

TEST(TraceSourceDeath, IndexedSkipJumpsRecordsDecodeOnlySkipReads)
{
    // Proof that an indexed skip seeks rather than decodes: after the
    // first pass, a record inside the jumped range is corrupted in
    // place.  The indexed source passes over it; a fresh source, which
    // must decode its way there, hits the corruption.
    const auto path = tracePath("jump");
    const auto recs = chunkEdgeRecords(20'000);
    writeRecords(path, recs);
    TraceSource indexed(path, false, 1, 0);
    const auto want = drain(indexed);

    std::uint64_t offset = 0;
    {
        BinTraceReader reader(path);
        EXPECT_EQ(reader.skip(5000), 5000u);
        offset = reader.mark().offset;
    }
    {
        std::FILE *file = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(file, nullptr);
        ASSERT_EQ(std::fseek(file, static_cast<long>(offset), SEEK_SET),
                  0);
        std::fputc(0x80, file);  // reserved control bit
        std::fclose(file);
    }

    ASSERT_TRUE(indexed.rewind());
    indexed.skip(9000);
    EXPECT_EQ(indexed.next().line, want[9000].line);
    EXPECT_EXIT(
        {
            TraceSource fresh(path, false, 1, 0);
            fresh.skip(9000);
        },
        ::testing::ExitedWithCode(1), "reserved control bits");
    std::remove(path.c_str());
}

TEST(TraceSource, LoopedSkipWrapsLikeNext)
{
    const auto path = tracePath("loopskip");
    std::vector<Request> recs(10);
    for (std::uint64_t i = 0; i < recs.size(); ++i)
        recs[i].line = i;
    writeRecords(path, recs);

    TraceSource src(path, /* loop */ true, 1, 0);
    src.skip(25);
    EXPECT_EQ(src.next().line, 5u);
    std::remove(path.c_str());
}

TEST(Registry, DefaultSkipEqualsRepeatedNext)
{
    // Sources without a cheaper skip() inherit the next() loop.
    const auto want = drain(*makeTrafficSource("synthetic(limit=5000)",
                                               libqContext()));
    auto src = makeTrafficSource("synthetic(limit=5000)", libqContext());
    std::uint64_t pos = 0;
    for (const std::uint64_t n : kSkipPattern) {
        if (pos + n >= want.size())
            break;
        src->skip(n);
        pos += n;
        const Request got = src->next();
        ASSERT_EQ(got.line, want[pos].line) << "position " << pos;
        ASSERT_EQ(got.kind, want[pos].kind) << "position " << pos;
        ++pos;
    }
}

TEST(Registry, SyntheticMatchesRawGeneratorStack)
{
    // The makeTrafficSource() synthetic source must replay exactly the
    // stream of a hand-built WorkloadGen + WritebackMixer (the
    // refactor-equivalence guarantee behind the TrafficSource port).
    const SourceContext ctx = libqContext();
    auto src = makeTrafficSource("synthetic", ctx);

    const WorkloadGenParams params = generatorParams(
        *ctx.spec, ctx.core, ctx.numCores, ctx.scale, ctx.seed);
    WorkloadGen gen(params);
    WritebackMixer mixer(gen, ctx.spec->wbFrac, ctx.wbLag,
                         mix64(ctx.seed * 977 + ctx.core));
    for (int i = 0; i < 20000; ++i) {
        const Request a = src->next();
        const Request b = mixer.next();
        ASSERT_EQ(a.line, b.line) << "record " << i;
        ASSERT_EQ(a.kind, b.kind) << "record " << i;
    }
}

TEST(Registry, SyntheticLimitBoundsTheStream)
{
    auto src = makeTrafficSource("synthetic(limit=100)",
                                 libqContext());
    EXPECT_TRUE(src->bounded());
    EXPECT_EQ(src->size(), 100u);
    // Bounded streams get no automatic warm quota: warmup would eat
    // the records under measurement.
    EXPECT_EQ(src->defaultWarmQuota(), 0u);
    unsigned count = 0;
    while (!src->exhausted()) {
        src->next();
        ++count;
    }
    EXPECT_EQ(count, 100u);
    EXPECT_TRUE(src->rewind());
    EXPECT_FALSE(src->exhausted());
}

TEST(Registry, CyclicSourceAlternatesConflictPair)
{
    auto src = makeTrafficSource("cyclic(sets=64,iters=4)",
                                 libqContext());
    const LineAddr a = src->next().line;
    const LineAddr b = src->next().line;
    EXPECT_NE(a, b);
    EXPECT_EQ(src->next().line, a);
    EXPECT_EQ(src->next().line, b);
}

TEST(Registry, TraceSpecRoundTripsThroughFile)
{
    const auto path = tracePath("registry");
    std::vector<Request> recs;
    for (std::uint64_t i = 0; i < 25; ++i) {
        Request req;
        req.line = i * 3;
        recs.push_back(req);
    }
    writeRecords(path, recs);

    SourceContext ctx = libqContext();
    auto src = makeTrafficSource(
        "trace(file=" + path + ",loop=0,stripe=0)", ctx);
    EXPECT_TRUE(src->bounded());
    for (std::uint64_t i = 0; i < 25; ++i) {
        ASSERT_FALSE(src->exhausted());
        EXPECT_EQ(src->next().line, i * 3);
    }
    EXPECT_TRUE(src->exhausted());
    std::remove(path.c_str());
}

TEST(Registry, CanonicalSpecsAreStable)
{
    EXPECT_EQ(canonicalTrafficSpec("synthetic"), "synthetic");
    EXPECT_EQ(canonicalTrafficSpec("synthetic(limit=64k)"),
              "synthetic(limit=65536)");
    // Fractions scale before they truncate, as on the CLI.
    EXPECT_EQ(canonicalTrafficSpec("synthetic(limit=0.5k)"),
              "synthetic(limit=512)");
    EXPECT_EQ(canonicalTrafficSpec("cyclic"),
              "cyclic(sets=1024,iters=100)");
    // Paths canonicalize to their basename: reports must not embed
    // host-specific directories.
    EXPECT_EQ(canonicalTrafficSpec("trace(file=/a/b/c.trc)"),
              "trace(file=c.trc,loop=0,stripe=1)");
}

TEST(RegistryDeath, UnknownNameAndOptionAreFatal)
{
    EXPECT_EXIT(makeTrafficSource("nosuch", libqContext()),
                ::testing::ExitedWithCode(1), "nosuch");
    EXPECT_EXIT(makeTrafficSource("synthetic(bogus=1)", libqContext()),
                ::testing::ExitedWithCode(1), "bogus");
    EXPECT_EXIT(makeTrafficSource("trace(loop=1)", libqContext()),
                ::testing::ExitedWithCode(1), "file");
    EXPECT_EXIT(makeTrafficSource("cyclic(iters=4294967298)",
                                  libqContext()),
                ::testing::ExitedWithCode(1), "'iters'");
    EXPECT_EXIT(makeTrafficSource("synthetic(limit=1,limit=2)",
                                  libqContext()),
                ::testing::ExitedWithCode(1), "repeated source option");
}

TEST(Registry, SyntheticSourceEmitsDemandStreamWithPositions)
{
    // makeTrafficSource() is the only way to build traffic sources:
    // an unbounded demand stream with monotonically increasing
    // positions.
    const auto src = makeTrafficSource("synthetic", libqContext());
    EXPECT_FALSE(src->bounded());
    const Request first = src->next();
    EXPECT_EQ(first.kind, core::RequestKind::Demand);
    EXPECT_EQ(first.position, 0u);
    EXPECT_EQ(src->next().position, 1u);
    EXPECT_EQ(src->next().position, 2u);
}
