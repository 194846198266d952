/**
 * @file
 * The accord.trace/1 compact binary trace format and its replay
 * source.
 *
 * Layout (docs/TRACES.md has the full specification):
 *
 *   bytes 0..8    magic "ACRDBT01"
 *   byte  8       flags (reserved, must be 0)
 *   bytes 9..17   record count, little-endian u64 (0 = unknown)
 *   records       per record:
 *                   control byte  bit0 = writeback, bit1 = class
 *                                 varint follows, bits 2..7 zero
 *                   zigzag-varint delta of the line address vs. the
 *                                 previous record (first record:
 *                                 delta from 0)
 *                   [class varint]  new request class (persists
 *                                 until the next change; initial 0)
 *
 * Varint-delta encoding makes sequential streams ~2 bytes/record.  A
 * trace may additionally be gzip-wrapped: the reader auto-detects the
 * wrapper and streams through zlib, so multi-GB traces decode with
 * bounded memory.  Built without zlib
 * (ACCORD_HAVE_ZLIB undefined) plain files still work; gzip input is
 * rejected with a clear fatal().
 *
 * BinTraceReader decodes a run of records at a time: one loop, with
 * the buffer position, line and class in locals, serves next(), skip()
 * and the lines-only batch readLines(), and checks the read buffer once
 * per run rather than once per record.
 *
 * TraceSource replays a file, whole or as one of N stripes, and keeps a
 * sparse seek index so skips cost what they keep.  decodeStripes()
 * splits one decode of a file among all its stripes at once, one
 * readLines() call per group of N * kTraceSeekStride records: the
 * sampler's first pass (sample.hpp) uses it so that N cores striping
 * one trace decode it once, not N times, and each core's TraceSource
 * takes over the seek index that pass recorded for its stripe.
 *
 * tools/convert_trace.py produces this format from ChampSim/gem5-style
 * text traces.
 */

#ifndef ACCORD_TRACE_BINTRACE_HPP
#define ACCORD_TRACE_BINTRACE_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "trace/source.hpp"

namespace accord::trace
{

/** Magic bytes opening every accord.trace/1 file. */
inline constexpr char kBinTraceMagic[8] = {'A', 'C', 'R', 'D',
                                           'B', 'T', '0', '1'};

/**
 * Whether this build can write gzip-wrapped traces (zlib present).
 * Runtime probe because ACCORD_HAVE_ZLIB is private to the trace
 * library; tests and tools use it to skip gzip paths gracefully.
 */
bool binTraceGzipAvailable();

/** Fixed header size: magic + flags + record count. */
inline constexpr std::size_t kBinTraceHeaderBytes = 17;

/** Streams an access stream out in accord.trace/1. */
class BinTraceWriter
{
  public:
    /**
     * Open for writing; fatal() on failure.
     *
     * @param gzip write a gzip-wrapped stream (needs zlib; the record
     *             count stays 0/unknown because the wrapper cannot be
     *             patched after the fact)
     */
    explicit BinTraceWriter(const std::string &path, bool gzip = false);
    ~BinTraceWriter();

    BinTraceWriter(const BinTraceWriter &) = delete;
    BinTraceWriter &operator=(const BinTraceWriter &) = delete;

    /** Append one record. */
    void append(LineAddr line, core::RequestKind kind,
                std::uint16_t cls = 0);

    void
    append(const Request &req)
    {
        append(req.line, req.kind, req.cls);
    }

    /** Flush, patch the record count, close (destructor does too). */
    void close();

    std::uint64_t recordsWritten() const { return records_; }

  private:
    void flushBuffer();

    std::FILE *file_ = nullptr;
    void *gz_ = nullptr;  ///< gzFile when gzip output is active
    std::vector<unsigned char> buffer_;
    std::uint64_t records_ = 0;
    LineAddr prev_line_ = 0;
    std::uint16_t prev_cls_ = 0;
};

/**
 * Streaming accord.trace/1 reader with bounded memory (64 KB chunks).
 * fatal() on a missing file, bad magic, reserved control bits, varint
 * overflow, an over-wide class, mid-record truncation, or a record
 * count short of or beyond the header's.
 */
class BinTraceReader
{
  public:
    /**
     * The decoder state just before one record: enough to resume
     * decoding there without reading what precedes it.
     */
    struct Mark
    {
        std::uint64_t offset = 0;   ///< byte offset in the decoded stream
        LineAddr prevLine = 0;      ///< line the next delta applies to
        std::uint16_t cls = 0;      ///< class in force
        std::uint64_t records = 0;  ///< records before this point

        bool operator==(const Mark &) const = default;
    };

    explicit BinTraceReader(const std::string &path);
    ~BinTraceReader();

    BinTraceReader(const BinTraceReader &) = delete;
    BinTraceReader &operator=(const BinTraceReader &) = delete;

    /**
     * Read the next record into `out` (line/kind/cls; position is the
     * record's 0-based index).  False at clean end-of-trace.
     */
    bool next(Request &out);

    /**
     * Decode and drop up to `n` records with the same checks as next();
     * returns how many there were (fewer only at end-of-trace).
     */
    std::uint64_t skip(std::uint64_t n);

    /**
     * Decode up to `n` records with the same checks as next(), storing
     * each one's line address in `out`; returns how many there were
     * (fewer only at end-of-trace).
     */
    std::uint64_t readLines(LineAddr *out, std::uint64_t n);

    /** Header record count (0 = unknown, e.g. gzip-streamed write). */
    std::uint64_t declaredCount() const { return declared_; }

    const std::string &path() const { return path_; }

    std::uint64_t recordsRead() const { return records_; }

    /** The decoder state before the next record. */
    Mark
    mark() const
    {
        return {buf_origin_ + buf_pos_, prev_line_, cls_, records_};
    }

    /**
     * Resume at a mark() taken on this file.  Plain files seek
     * directly; gzip input seeks by decompressing (correct, not fast).
     */
    void seek(const Mark &at);

    /** Reopen at the first record. */
    void rewind();

  private:
    void open();
    void closeFile();
    void readHeader();
    void refill();
    void endOfTrace() const;

    /**
     * The decode loop: decode up to `n` records, handing each to
     * sink(line, control byte, class); returns how many there were.
     */
    template <class Sink>
    std::uint64_t decodeRun(std::uint64_t n, Sink &&sink);

    std::uint64_t readVarint(const unsigned char *&p,
                             const unsigned char *end,
                             const char *what) const;

    /** A decoded varint and the byte after it. */
    struct Varint
    {
        std::uint64_t value;
        const unsigned char *next;
    };

    /**
     * readVarint()'s byte-at-a-time path, kept out of the decode loop:
     * long varints, the buffer's last 7 bytes, and the fatal checks.
     */
    Varint readVarintBytes(const unsigned char *p,
                           const unsigned char *end,
                           const char *what) const;

    std::string path_;
    std::FILE *file_ = nullptr;
    void *gz_ = nullptr;  ///< gzFile handle when zlib is available
    std::vector<unsigned char> buffer_;
    std::uint64_t buf_origin_ = 0;  ///< stream offset of buffer_[0]
    std::size_t buf_pos_ = 0;
    std::size_t buf_len_ = 0;
    bool eof_ = false;  ///< the file has no bytes past the buffer
    std::uint64_t declared_ = 0;
    std::uint64_t records_ = 0;
    LineAddr prev_line_ = 0;
    std::uint16_t cls_ = 0;
};

/** Kept records between two TraceSource seek-index marks. */
inline constexpr std::uint64_t kTraceSeekStride = 4096;

/**
 * Replays an accord.trace/1 file as a TrafficSource.
 *
 * With stripe_count > 1 the reader keeps every stripe_count-th record
 * (offset stripe_index), so N cores can share one trace file without
 * replaying identical streams.  loop=true restarts at end-of-trace
 * (the source becomes unbounded); loop=false exhausts.
 *
 * While it decodes, the source records a sparse seek index: one
 * reader mark every kTraceSeekStride kept records.  skip() resumes at
 * the last mark at or before its target and decodes only the rest, so
 * a replay that passes over most of the trace pays for the records it
 * keeps.  Marks exist only where this source, or a decodeStripes()
 * pass handed to adoptSeekIndex(), has already decoded, so every
 * record a seek passes over has passed the decoder's checks.
 */
class TraceSource final : public TrafficSource
{
  public:
    TraceSource(const std::string &path, bool loop,
                unsigned stripe_count, unsigned stripe_index);

    Request next() override;

    /** Looped sources take the default path (stripes restart per pass). */
    void skip(std::uint64_t n) override;

    bool exhausted() const override { return !has_pending_; }
    bool bounded() const override { return !loop_; }
    std::uint64_t size() const override;
    bool rewind() override;
    std::string describe() const override;

    /** Records in the underlying file (header count; 0 = unknown). */
    std::uint64_t fileRecords() const { return reader_.declaredCount(); }

    const std::string &path() const { return reader_.path(); }
    unsigned stripeCount() const { return stripe_count_; }
    unsigned stripeIndex() const { return stripe_index_; }

    /** Seek-index marks recorded so far. */
    const std::vector<BinTraceReader::Mark> &
    seekMarks() const
    {
        return marks_;
    }

    /**
     * Take over `marks`, this stripe's share of a decodeStripes() pass
     * over the whole file, as the seek index: the marks this source
     * would record decoding its whole stripe itself.
     */
    void
    adoptSeekIndex(std::vector<BinTraceReader::Mark> marks)
    {
        marks_ = std::move(marks);
    }

  private:
    /** File position of this stripe's kept record `kept`. */
    std::uint64_t
    rawPosition(std::uint64_t kept) const
    {
        return kept * stripe_count_ + stripe_index_;
    }

    /** This stripe's share of the header count (0 = unknown). */
    std::uint64_t stripeRecords() const;

    bool seekKept(std::uint64_t kept);
    void advance();

    BinTraceReader reader_;
    bool loop_;
    unsigned stripe_count_;
    unsigned stripe_index_;
    std::uint64_t kept_ = 0;     ///< this pass's index of pending_
    std::uint64_t emitted_ = 0;  ///< pending_'s stream position
    Request pending_;
    bool has_pending_ = false;
    std::vector<BinTraceReader::Mark> marks_;
};

/**
 * Decode the trace at `path` once, split the way `stripe_count`
 * TraceSources over it split it.  keep(lines, count) sees the line
 * addresses of every record in file order, a group of stripe_count *
 * kTraceSeekStride records per call (the last group may be shorter):
 * each group starts a stride of every stripe, so lines[i] is kept by
 * stripe i % stripe_count.  Returns each stripe's seek index, mark for
 * mark the one its TraceSource records while decoding the whole
 * stripe, for adoptSeekIndex().  The decode runs through
 * BinTraceReader, so every fatal check of a full pass fires here; it
 * holds one group of lines (128 KB at 4 stripes).
 */
template <class Keep>
std::vector<std::vector<BinTraceReader::Mark>>
decodeStripes(const std::string &path, unsigned stripe_count, Keep &&keep)
{
    BinTraceReader reader(path);
    std::vector<std::vector<BinTraceReader::Mark>> marks(stripe_count);
    // Record r goes to stripe r % stripe_count as kept record
    // r / stripe_count.
    std::vector<LineAddr> group(std::size_t(stripe_count)
                                * kTraceSeekStride);
    for (;;) {
        // A stripe's mark precedes each kept record whose index is a
        // multiple of kTraceSeekStride, and end-of-trace when the
        // stripe's next index would be one: the group's record s, for
        // each stripe s.
        std::size_t got = 0;
        while (got < stripe_count) {
            marks[got].push_back(reader.mark());
            if (reader.readLines(&group[got], 1) == 0)
                break;
            ++got;
        }
        if (got == stripe_count)
            got += reader.readLines(&group[got], group.size() - got);
        if (got > 0)
            keep(std::as_const(group).data(), got);
        if (got < group.size())
            return marks;
    }
}

} // namespace accord::trace

#endif // ACCORD_TRACE_BINTRACE_HPP
