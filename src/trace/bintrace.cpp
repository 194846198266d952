#include "trace/bintrace.hpp"

#include <bit>
#include <cstring>

#include "common/log.hpp"

#ifdef ACCORD_HAVE_ZLIB
#include <zlib.h>
#endif

namespace accord::trace
{

namespace
{

/** Buffered-IO chunk size: bounded memory however large the trace. */
constexpr std::size_t kChunkBytes = 64 * 1024;

constexpr unsigned char kCtrlWriteback = 0x01;
constexpr unsigned char kCtrlClassFollows = 0x02;
constexpr unsigned char kCtrlReservedMask = 0xFC;

/** Varints longer than this overflow 64 bits and are fatal. */
constexpr std::size_t kMaxVarintBytes = 10;

/** Longest record the decoder can meet before a fatal: control byte,
 *  line varint, class varint. */
constexpr std::size_t kMaxRecordBytes = 1 + 2 * kMaxVarintBytes;

/**
 * Bytes a run leaves at the buffer's tail while more of the file is to
 * come: the longest record plus readVarint's 8-byte word load, so any
 * record a run starts lies whole in the buffer.
 */
constexpr std::size_t kTailMargin = kMaxRecordBytes + sizeof(std::uint64_t);

void
putVarint(std::vector<unsigned char> &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<unsigned char>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<unsigned char>(value));
}

std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1)
        ^ static_cast<std::uint64_t>(value >> 63);
}

std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1)
        ^ -static_cast<std::int64_t>(value & 1);
}

} // namespace

bool
binTraceGzipAvailable()
{
#ifdef ACCORD_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

BinTraceWriter::BinTraceWriter(const std::string &path, bool gzip)
{
    buffer_.reserve(kChunkBytes + 32);
    unsigned char header[kBinTraceHeaderBytes] = {};
    std::memcpy(header, kBinTraceMagic, sizeof(kBinTraceMagic));
    // flags byte and record count stay 0; close() patches the count
    // for plain files.
    if (gzip) {
#ifdef ACCORD_HAVE_ZLIB
        gzFile gz = gzopen(path.c_str(), "wb6");
        if (gz == nullptr)
            fatal("cannot open trace '%s' for writing", path.c_str());
        gz_ = gz;
        if (gzwrite(gz, header, sizeof(header))
            != static_cast<int>(sizeof(header)))
            fatal("write error on trace '%s'", path.c_str());
#else
        fatal("gzip trace output needs zlib (built without "
              "ACCORD_HAVE_ZLIB)");
#endif
        return;
    }
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        fatal("cannot open trace '%s' for writing", path.c_str());
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header))
        fatal("write error on trace '%s'", path.c_str());
}

BinTraceWriter::~BinTraceWriter()
{
    close();
}

void
BinTraceWriter::append(LineAddr line, core::RequestKind kind,
                       std::uint16_t cls)
{
    unsigned char control = 0;
    if (kind == core::RequestKind::Writeback)
        control |= kCtrlWriteback;
    if (cls != prev_cls_)
        control |= kCtrlClassFollows;
    buffer_.push_back(control);
    putVarint(buffer_,
              zigzagEncode(static_cast<std::int64_t>(line - prev_line_)));
    if (control & kCtrlClassFollows)
        putVarint(buffer_, cls);
    prev_line_ = line;
    prev_cls_ = cls;
    ++records_;
    if (buffer_.size() >= kChunkBytes)
        flushBuffer();
}

void
BinTraceWriter::flushBuffer()
{
    if (buffer_.empty())
        return;
#ifdef ACCORD_HAVE_ZLIB
    if (gz_ != nullptr) {
        if (gzwrite(static_cast<gzFile>(gz_), buffer_.data(),
                    static_cast<unsigned>(buffer_.size()))
            != static_cast<int>(buffer_.size()))
            fatal("write error on gzip trace");
        buffer_.clear();
        return;
    }
#endif
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_)
        != buffer_.size())
        fatal("write error on trace");
    buffer_.clear();
}

void
BinTraceWriter::close()
{
    if (file_ == nullptr && gz_ == nullptr)
        return;
    flushBuffer();
#ifdef ACCORD_HAVE_ZLIB
    if (gz_ != nullptr) {
        // Record count stays "unknown" — a gzip stream cannot be
        // patched in place after writing.
        gzclose(static_cast<gzFile>(gz_));
        gz_ = nullptr;
        return;
    }
#endif
    // Patch the record count into the fixed header slot.
    unsigned char count[8];
    for (int i = 0; i < 8; ++i)
        count[i] = static_cast<unsigned char>(records_ >> (8 * i));
    if (std::fseek(file_, 9, SEEK_SET) != 0
        || std::fwrite(count, 1, sizeof(count), file_) != sizeof(count))
        fatal("cannot patch record count into trace header");
    std::fclose(file_);
    file_ = nullptr;
}

BinTraceReader::BinTraceReader(const std::string &path) : path_(path)
{
    buffer_.resize(kChunkBytes);
    open();
}

BinTraceReader::~BinTraceReader()
{
    closeFile();
}

void
BinTraceReader::open()
{
#ifdef ACCORD_HAVE_ZLIB
    // gzread reads gzip-wrapped and plain files transparently.
    gzFile gz = gzopen(path_.c_str(), "rb");
    if (gz == nullptr)
        fatal("cannot open trace '%s'", path_.c_str());
    gz_ = gz;
#else
    file_ = std::fopen(path_.c_str(), "rb");
    if (file_ == nullptr)
        fatal("cannot open trace '%s'", path_.c_str());
#endif
    buf_origin_ = 0;
    buf_pos_ = 0;
    buf_len_ = 0;
    eof_ = false;
    records_ = 0;
    prev_line_ = 0;
    cls_ = 0;
    readHeader();
}

void
BinTraceReader::closeFile()
{
#ifdef ACCORD_HAVE_ZLIB
    if (gz_ != nullptr) {
        gzclose(static_cast<gzFile>(gz_));
        gz_ = nullptr;
    }
#endif
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
BinTraceReader::refill()
{
    // Move the unread tail to the front, then top the buffer up past
    // the tail margin unless the file ends.
    const std::size_t tail = buf_len_ - buf_pos_;
    std::memmove(buffer_.data(), buffer_.data() + buf_pos_, tail);
    buf_origin_ += buf_pos_;
    buf_pos_ = 0;
    buf_len_ = tail;
    while (!eof_ && buf_len_ < kTailMargin) {
        unsigned char *const dst = buffer_.data() + buf_len_;
        const std::size_t room = buffer_.size() - buf_len_;
#ifdef ACCORD_HAVE_ZLIB
        const int n = gzread(static_cast<gzFile>(gz_), dst,
                             static_cast<unsigned>(room));
        if (n < 0)
            fatal("read error on trace '%s'", path_.c_str());
        if (n == 0) {
            // zlib ends a gzip stream cut short like a whole one and
            // leaves only Z_BUF_ERROR behind to tell them apart.
            int status = Z_OK;
            gzerror(static_cast<gzFile>(gz_), &status);
            if (status == Z_BUF_ERROR)
                fatal("truncated trace '%s' (gzip stream ends early)",
                      path_.c_str());
        }
        const std::size_t got = static_cast<std::size_t>(n);
#else
        const std::size_t got = std::fread(dst, 1, room, file_);
#endif
        eof_ = got == 0;
        buf_len_ += got;
    }
}

inline std::uint64_t
BinTraceReader::readVarint(const unsigned char *&p,
                           const unsigned char *end,
                           const char *what) const
{
    // Fast path: a varint that ends within the next 8 bytes, decoded
    // from one little-endian word without a branch per byte.
    if constexpr (std::endian::native == std::endian::little) {
        if (end - p >= 8) {
            std::uint64_t word;
            std::memcpy(&word, p, sizeof(word));
            const std::uint64_t stops = ~word & 0x8080808080808080ULL;
            if (stops != 0) {
                // The lowest stop bit closes the varint's last byte:
                // step past it and keep the bytes up to it.
                p += static_cast<unsigned>(std::countr_zero(stops)) / 8 + 1;
                word &= stops ^ (stops - 1);
                // Squeeze out the continuation bits: 7-bit groups to
                // 14-, 28-, then 56-bit runs.
                word = (word & 0x7F007F007F007F00ULL) >> 1
                    | (word & 0x007F007F007F007FULL);
                word = (word & 0x3FFF00003FFF0000ULL) >> 2
                    | (word & 0x00003FFF00003FFFULL);
                return (word & 0x0FFFFFFF00000000ULL) >> 4
                    | (word & 0x000000000FFFFFFFULL);
            }
        }
    }
    const Varint slow = readVarintBytes(p, end, what);
    p = slow.next;
    return slow.value;
}

BinTraceReader::Varint
BinTraceReader::readVarintBytes(const unsigned char *p,
                                const unsigned char *end,
                                const char *what) const
{
    std::uint64_t value = 0;
    for (unsigned shift = 0;; shift += 7) {
        if (p == end)
            fatal("truncated trace '%s' (eof inside %s)", path_.c_str(),
                  what);
        const unsigned char byte = *p++;
        value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0)
            return {value, p};
        if (shift + 7 >= 64)
            fatal("corrupt trace '%s' (varint overflow in %s)",
                  path_.c_str(), what);
    }
}

void
BinTraceReader::readHeader()
{
    refill();
    if (buf_len_ < kBinTraceHeaderBytes)
        fatal("not an ACCORD binary trace: '%s' (short header)",
              path_.c_str());
    const unsigned char *header = buffer_.data();
    if (std::memcmp(header, kBinTraceMagic, sizeof(kBinTraceMagic))
        != 0)
        fatal("not an ACCORD binary trace: '%s' (bad magic)",
              path_.c_str());
    if (header[8] != 0)
        fatal("trace '%s': unsupported flags 0x%02x", path_.c_str(),
              header[8]);
    declared_ = 0;
    for (int i = 0; i < 8; ++i)
        declared_ |= static_cast<std::uint64_t>(header[9 + i])
            << (8 * i);
    buf_pos_ = kBinTraceHeaderBytes;
}

void
BinTraceReader::endOfTrace() const
{
    if (declared_ == 0 || records_ == declared_)
        return;
    if (records_ < declared_)
        fatal("truncated trace '%s' (%llu of %llu records)",
              path_.c_str(), static_cast<unsigned long long>(records_),
              static_cast<unsigned long long>(declared_));
    fatal("corrupt trace '%s' (%llu records, header declares %llu)",
          path_.c_str(), static_cast<unsigned long long>(records_),
          static_cast<unsigned long long>(declared_));
}

template <class Sink>
std::uint64_t
BinTraceReader::decodeRun(std::uint64_t n, Sink &&sink)
{
    std::uint64_t left = n;
    while (left > 0) {
        if (buf_len_ - buf_pos_ < kTailMargin && !eof_)
            refill();
        if (buf_pos_ == buf_len_) {
            endOfTrace();
            break;
        }
        // One run: every record that starts before the tail margin, or
        // with the whole file read, every record left.  Each one
        // therefore lies whole in the buffer, or the file ends inside
        // it and readVarint says so.
        const unsigned char *const base = buffer_.data();
        const unsigned char *const end = base + buf_len_;
        const unsigned char *const last = end - (eof_ ? 1 : kTailMargin);
        const unsigned char *p = base + buf_pos_;
        LineAddr line = prev_line_;
        std::uint16_t cls = cls_;
        const std::uint64_t asked = left;
        for (; left > 0 && p <= last; --left) {
            const unsigned char control = *p++;
            if (control & kCtrlReservedMask)
                fatal("corrupt trace '%s' (reserved control bits set)",
                      path_.c_str());
            line += static_cast<std::uint64_t>(
                zigzagDecode(readVarint(p, end, "line delta")));
            if (control & kCtrlClassFollows) {
                const std::uint64_t value =
                    readVarint(p, end, "request class");
                if (value > 0xFFFF)
                    fatal("corrupt trace '%s' (request class %llu > 16 "
                          "bit)",
                          path_.c_str(),
                          static_cast<unsigned long long>(value));
                cls = static_cast<std::uint16_t>(value);
            }
            sink(line, control, cls);
        }
        buf_pos_ = static_cast<std::size_t>(p - base);
        prev_line_ = line;
        cls_ = cls;
        records_ += asked - left;
    }
    return n - left;
}

bool
BinTraceReader::next(Request &out)
{
    if (decodeRun(1, [&out](LineAddr line, unsigned char control,
                            std::uint16_t cls) {
            out.line = line;
            out.kind = (control & kCtrlWriteback)
                ? core::RequestKind::Writeback
                : core::RequestKind::Demand;
            out.cls = cls;
        }) == 0)
        return false;
    out.warmup = false;
    out.position = records_ - 1;
    return true;
}

std::uint64_t
BinTraceReader::skip(std::uint64_t n)
{
    return decodeRun(n, [](LineAddr, unsigned char, std::uint16_t) {});
}

std::uint64_t
BinTraceReader::readLines(LineAddr *out, std::uint64_t n)
{
    return decodeRun(n, [&out](LineAddr line, unsigned char,
                               std::uint16_t) { *out++ = line; });
}

void
BinTraceReader::seek(const Mark &at)
{
    if (at.offset >= buf_origin_ && at.offset <= buf_origin_ + buf_len_) {
        buf_pos_ = static_cast<std::size_t>(at.offset - buf_origin_);
    } else {
#ifdef ACCORD_HAVE_ZLIB
        const auto offset = static_cast<z_off_t>(at.offset);
        const bool ok =
            gzseek(static_cast<gzFile>(gz_), offset, SEEK_SET) == offset;
#else
        const bool ok = std::fseek(file_, static_cast<long>(at.offset),
                                   SEEK_SET) == 0;
#endif
        if (!ok)
            fatal("seek error on trace '%s'", path_.c_str());
        buf_origin_ = at.offset;
        buf_pos_ = 0;
        buf_len_ = 0;
        eof_ = false;
    }
    prev_line_ = at.prevLine;
    cls_ = at.cls;
    records_ = at.records;
}

void
BinTraceReader::rewind()
{
    closeFile();
    open();
}

TraceSource::TraceSource(const std::string &path, bool loop,
                         unsigned stripe_count, unsigned stripe_index)
    : reader_(path), loop_(loop), stripe_count_(stripe_count),
      stripe_index_(stripe_index)
{
    ACCORD_ASSERT(stripe_count_ >= 1 && stripe_index_ < stripe_count_,
                  "bad trace stripe");
    marks_.reserve(stripeRecords() / kTraceSeekStride + 1);
    advance();
}

bool
TraceSource::seekKept(std::uint64_t kept)
{
    const std::uint64_t target = rawPosition(kept);
    ACCORD_ASSERT(target >= reader_.recordsRead(),
                  "trace source moved backwards");
    // Resume at the last mark at or before the target if it lies
    // ahead of the reader.
    if (!marks_.empty()) {
        const BinTraceReader::Mark &best =
            marks_[std::min<std::uint64_t>(kept / kTraceSeekStride,
                                           marks_.size() - 1)];
        if (best.records > reader_.recordsRead())
            reader_.seek(best);
    }
    // Decode the rest, extending the index at each stride boundary.
    for (;;) {
        const std::uint64_t boundary =
            rawPosition(marks_.size() * kTraceSeekStride);
        const bool marking = boundary <= target;
        const std::uint64_t stop = marking ? boundary : target;
        const std::uint64_t gap = stop - reader_.recordsRead();
        if (reader_.skip(gap) != gap)
            return false;
        if (!marking)
            return true;
        marks_.push_back(reader_.mark());
    }
}

void
TraceSource::advance()
{
    for (;;) {
        has_pending_ = seekKept(kept_) && reader_.next(pending_);
        if (has_pending_) {
            pending_.position = emitted_;
            return;
        }
        if (reader_.recordsRead() == 0)
            fatal("trace has no records");
        if (!loop_)
            return;
        reader_.rewind();
        kept_ = 0;
    }
}

Request
TraceSource::next()
{
    ACCORD_ASSERT(has_pending_, "next() on an exhausted trace source");
    const Request out = pending_;
    ++emitted_;
    ++kept_;
    advance();
    return out;
}

void
TraceSource::skip(std::uint64_t n)
{
    if (loop_ || n == 0) {
        TrafficSource::skip(n);
        return;
    }
    ACCORD_ASSERT(has_pending_, "skip() on an exhausted trace source");
    emitted_ += n;
    kept_ += n;
    advance();
}

std::uint64_t
TraceSource::stripeRecords() const
{
    const std::uint64_t declared = reader_.declaredCount();
    if (declared <= stripe_index_)
        return 0;
    return (declared - stripe_index_ + stripe_count_ - 1)
        / stripe_count_;
}

std::uint64_t
TraceSource::size() const
{
    return loop_ ? 0 : stripeRecords();
}

bool
TraceSource::rewind()
{
    reader_.rewind();
    kept_ = 0;
    emitted_ = 0;
    advance();
    return true;
}

std::string
TraceSource::describe() const
{
    std::string out = "accord.trace replay";
    if (stripe_count_ > 1) {
        out += " stripe " + std::to_string(stripe_index_) + "/"
            + std::to_string(stripe_count_);
    }
    if (loop_)
        out += " (looped)";
    return out;
}

} // namespace accord::trace
