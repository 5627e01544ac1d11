#include "trace/cvp_trace.hh"

#include <zlib.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"
#include "common/strings.hh"

namespace trb
{

namespace
{

constexpr char kMagic[8] = {'T', 'R', 'B', '1', 'C', 'V', 'P', '\0'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 20;

/** Write @p v little-endian at @p out; returns the byte after it. */
std::uint8_t *
putU64(std::uint8_t *out, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, &v, sizeof(v));
    } else {
        for (int i = 0; i < 8; ++i)
            out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return out + sizeof(v);
}

/** Write the header for @p count records at @p out; returns its end. */
std::uint8_t *
encodeCvpHeader(std::uint64_t count, std::uint8_t *out)
{
    std::memcpy(out, kMagic, sizeof(kMagic));
    out += sizeof(kMagic);
    for (int i = 0; i < 4; ++i)
        *out++ = static_cast<std::uint8_t>(kVersion >> (8 * i));
    return putU64(out, count);
}

bool
getU64(const std::uint8_t *data, std::size_t size, std::size_t &offset,
       std::uint64_t &v)
{
    if (offset + 8 > size)
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(data[offset + i]) << (8 * i);
    offset += 8;
    return true;
}

bool
getU8(const std::uint8_t *data, std::size_t size, std::size_t &offset,
      std::uint8_t &v)
{
    if (offset + 1 > size)
        return false;
    v = data[offset++];
    return true;
}

/**
 * Validate the 20-byte header (magic, version, count) shared by the
 * in-memory parser and the streaming reader.  @p name labels
 * diagnostics.  @p have is how many bytes @p data holds -- in the
 * streaming case possibly fewer than the whole file.
 */
Status
checkCvpHeader(const std::uint8_t *data, std::size_t have,
               const std::string &name, std::uint64_t &count)
{
    if (have >= sizeof(kMagic) &&
        std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
        return Status::badMagic("not a TraceRebase CVP-1 trace")
            .at(name, 0)
            .rule("cvp.magic");
    if (have < kHeaderBytes)
        return Status::truncated("CVP-1 header is " +
                                 std::to_string(have) +
                                 " bytes, need 20")
            .at(name, have)
            .rule("cvp.header");
    std::uint32_t version = 0;
    for (int i = 0; i < 4; ++i)
        version |= static_cast<std::uint32_t>(data[8 + i]) << (8 * i);
    if (version != kVersion)
        return Status::corrupt("unsupported CVP-1 trace version " +
                               std::to_string(version))
            .at(name, 8)
            .rule("cvp.version");
    std::size_t at = 12;
    getU64(data, have, at, count);
    return Status{};
}

} // namespace

bool
CvpRecord::operator==(const CvpRecord &other) const
{
    if (pc != other.pc || cls != other.cls || numSrc != other.numSrc ||
        numDst != other.numDst)
        return false;
    if (isBranch(cls) && (taken != other.taken || target != other.target))
        return false;
    if (isMem(cls) && (ea != other.ea || accessSize != other.accessSize))
        return false;
    for (unsigned i = 0; i < numSrc; ++i)
        if (src[i] != other.src[i])
            return false;
    for (unsigned i = 0; i < numDst; ++i)
        if (dst[i] != other.dst[i] || dstValue[i] != other.dstValue[i])
            return false;
    return true;
}

std::uint8_t *
encodeCvpRecord(const CvpRecord &rec, std::uint8_t *out)
{
    static_assert(sizeof(RegId) == 1, "register ids are one byte");
    out = putU64(out, rec.pc);
    *out++ = static_cast<std::uint8_t>(rec.cls);
    if (isBranch(rec.cls)) {
        *out++ = rec.taken ? 1 : 0;
        out = putU64(out, rec.target);
    }
    if (isMem(rec.cls)) {
        out = putU64(out, rec.ea);
        *out++ = rec.accessSize;
    }
    trb_assert(rec.numSrc <= kMaxCvpSrc, "too many sources");
    *out++ = rec.numSrc;
    std::memcpy(out, rec.src, rec.numSrc);
    out += rec.numSrc;
    trb_assert(rec.numDst <= kMaxCvpDst, "too many destinations");
    *out++ = rec.numDst;
    std::memcpy(out, rec.dst, rec.numDst);
    out += rec.numDst;
    for (unsigned i = 0; i < rec.numDst; ++i)
        out = putU64(out, rec.dstValue[i]);
    return out;
}

bool
encodeCvpTrace(
    const CvpTrace &trace, std::uint8_t *buf, std::size_t chunk,
    const std::function<bool(const std::uint8_t *, std::size_t)> &sink)
{
    std::uint8_t *end = encodeCvpHeader(trace.size(), buf);
    for (const CvpRecord &rec : trace) {
        end = encodeCvpRecord(rec, end);
        const auto size = static_cast<std::size_t>(end - buf);
        if (size >= chunk) {
            if (!sink(buf, size))
                return false;
            end = buf;
        }
    }
    return end == buf || sink(buf, static_cast<std::size_t>(end - buf));
}

void
serializeCvpRecord(const CvpRecord &rec, std::vector<std::uint8_t> &out)
{
    std::uint8_t bytes[kMaxCvpRecordBytes];
    out.insert(out.end(), bytes, encodeCvpRecord(rec, bytes));
}

CvpParse
deserializeCvpRecordEx(const std::uint8_t *data, std::size_t size,
                       std::size_t &offset, CvpRecord &rec)
{
    std::size_t at = offset;
    rec = CvpRecord{};
    std::uint8_t byte = 0;
    if (!getU64(data, size, at, rec.pc) || !getU8(data, size, at, byte))
        return CvpParse::NeedMore;
    if (byte > static_cast<std::uint8_t>(InstClass::Undef))
        return CvpParse::BadData;
    rec.cls = static_cast<InstClass>(byte);
    if (isBranch(rec.cls)) {
        if (!getU8(data, size, at, byte))
            return CvpParse::NeedMore;
        rec.taken = byte != 0;
        if (!getU64(data, size, at, rec.target))
            return CvpParse::NeedMore;
    }
    if (isMem(rec.cls)) {
        if (!getU64(data, size, at, rec.ea) ||
            !getU8(data, size, at, rec.accessSize))
            return CvpParse::NeedMore;
    }
    if (!getU8(data, size, at, rec.numSrc))
        return CvpParse::NeedMore;
    if (rec.numSrc > kMaxCvpSrc)
        return CvpParse::BadData;
    for (unsigned i = 0; i < rec.numSrc; ++i)
        if (!getU8(data, size, at, rec.src[i]))
            return CvpParse::NeedMore;
    if (!getU8(data, size, at, rec.numDst))
        return CvpParse::NeedMore;
    if (rec.numDst > kMaxCvpDst)
        return CvpParse::BadData;
    for (unsigned i = 0; i < rec.numDst; ++i)
        if (!getU8(data, size, at, rec.dst[i]))
            return CvpParse::NeedMore;
    for (unsigned i = 0; i < rec.numDst; ++i)
        if (!getU64(data, size, at, rec.dstValue[i]))
            return CvpParse::NeedMore;
    offset = at;
    return CvpParse::Ok;
}

bool
deserializeCvpRecord(const std::uint8_t *data, std::size_t size,
                     std::size_t &offset, CvpRecord &rec)
{
    return deserializeCvpRecordEx(data, size, offset, rec) == CvpParse::Ok;
}

std::vector<std::uint8_t>
serializeCvpTrace(const CvpTrace &trace)
{
    std::vector<std::uint8_t> buf(kHeaderBytes);
    buf.reserve(kHeaderBytes + trace.size() * 32);
    encodeCvpHeader(trace.size(), buf.data());
    for (const CvpRecord &rec : trace)
        serializeCvpRecord(rec, buf);
    return buf;
}

Expected<CvpTrace>
parseCvpTrace(const std::uint8_t *data, std::size_t size,
              const std::string &name)
{
    std::uint64_t count = 0;
    if (Status st = checkCvpHeader(data, size, name, count); !st.ok())
        return st;
    CvpTrace trace;
    trace.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, 1u << 22)));
    std::size_t at = kHeaderBytes;
    for (std::uint64_t i = 0; i < count; ++i) {
        CvpRecord rec;
        switch (deserializeCvpRecordEx(data, size, at, rec)) {
          case CvpParse::Ok:
            trace.push_back(rec);
            break;
          case CvpParse::NeedMore:
            return Status::truncated(
                       "CVP-1 trace ended mid-record: expected " +
                       std::to_string(count) + " records, got " +
                       std::to_string(i))
                .at(name, at, i)
                .rule("cvp.record-truncated");
          case CvpParse::BadData:
            return Status::corrupt("malformed CVP-1 record")
                .at(name, at, i)
                .rule("cvp.record");
        }
    }
    if (at != size)
        return Status::corrupt(std::to_string(size - at) +
                               " trailing bytes after final record")
            .at(name, at, count)
            .rule("cvp.trailing");
    return trace;
}

Status
tryWriteCvpTrace(const std::string &path, const CvpTrace &trace)
{
    gzFile f = gzopen(path.c_str(),
                      endsWith(path, ".gz") ? "wb6" : "wbT");
    if (!f)
        return Status::ioError("cannot open trace file for writing")
            .at(path);
    constexpr std::size_t kChunk = 1u << 20;
    std::vector<std::uint8_t> buf(kChunk + kMaxCvpRecordBytes);
    std::uint64_t written = 0;
    const bool ok = encodeCvpTrace(
        trace, buf.data(), kChunk,
        [&](const std::uint8_t *data, std::size_t size) {
            if (gzwrite(f, data, static_cast<unsigned>(size)) <= 0)
                return false;
            written += size;
            return true;
        });
    if (!ok) {
        gzclose(f);
        return Status::ioError("write error on trace file")
            .at(path, written);
    }
    if (gzclose(f) != Z_OK)
        return Status::ioError("close/flush error on trace file")
            .at(path, written);
    return Status{};
}

Expected<CvpTrace>
tryReadCvpTrace(const std::string &path)
{
    CvpTraceReader reader;
    if (Status st = reader.open(path); !st.ok())
        return st;
    CvpTrace trace;
    trace.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(reader.count(), 1u << 22)));
    CvpRecord rec;
    while (reader.next(rec))
        trace.push_back(rec);
    if (!reader.status().ok())
        return reader.status();
    if (Status st = reader.finish(); !st.ok())
        return st;
    return trace;
}

Status
CvpTraceReader::open(const std::string &path)
{
    buffer_.clear();
    pos_ = 0;
    bufferBase_ = 0;
    eof_ = false;
    count_ = 0;
    delivered_ = 0;
    status_ = Status{};
    if (Status st = in_.open(path); !st.ok())
        return st;
    if (Status st = fill(); !st.ok())
        return st;
    if (Status st = checkCvpHeader(buffer_.data(), buffer_.size(), path,
                                   count_);
        !st.ok())
        return st;
    pos_ = kHeaderBytes;
    return Status{};
}

Status
CvpTraceReader::fill()
{
    if (eof_)
        return Status{};
    // Compact consumed bytes, then top the buffer up to capacity.
    if (pos_ > 0) {
        bufferBase_ += pos_;
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    std::size_t old = buffer_.size();
    std::size_t want = (1u << 20) - old;
    buffer_.resize(old + want);
    int got = in_.readFully(buffer_.data() + old,
                            static_cast<unsigned>(want));
    if (got < 0) {
        buffer_.resize(old);
        return in_.status();
    }
    buffer_.resize(old + static_cast<std::size_t>(got));
    if (static_cast<std::size_t>(got) < want)
        eof_ = true;
    return Status{};
}

bool
CvpTraceReader::next(CvpRecord &rec)
{
    if (!status_.ok() || delivered_ >= count_)
        return false;
    std::size_t at = pos_;
    CvpParse parsed =
        deserializeCvpRecordEx(buffer_.data(), buffer_.size(), at, rec);
    if (parsed == CvpParse::NeedMore && !eof_) {
        if (Status st = fill(); !st.ok()) {
            status_ = st;
            return false;
        }
        at = pos_;
        parsed =
            deserializeCvpRecordEx(buffer_.data(), buffer_.size(), at, rec);
    }
    if (parsed == CvpParse::NeedMore) {
        status_ = Status::truncated(
                      "CVP-1 trace ended mid-record: expected " +
                      std::to_string(count_) + " records, got " +
                      std::to_string(delivered_))
                      .at(in_.path(), bufferBase_ + pos_, delivered_)
                      .rule("cvp.record-truncated");
        return false;
    }
    if (parsed == CvpParse::BadData) {
        status_ = Status::corrupt("malformed CVP-1 record")
                      .at(in_.path(), bufferBase_ + pos_, delivered_)
                      .rule("cvp.record");
        return false;
    }
    pos_ = at;
    ++delivered_;
    return true;
}

Status
CvpTraceReader::finish()
{
    if (!status_.ok() || delivered_ < count_)
        return Status{};
    if (pos_ >= buffer_.size() && !eof_) {
        if (Status st = fill(); !st.ok())
            return st;
    }
    if (pos_ < buffer_.size())
        return Status::corrupt(std::to_string(buffer_.size() - pos_) +
                               "+ trailing bytes after final record")
            .at(in_.path(), bufferBase_ + pos_, delivered_)
            .rule("cvp.trailing");
    return Status{};
}

} // namespace trb
