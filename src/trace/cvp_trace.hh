/**
 * @file
 * The CVP-1 trace format: in-memory record, binary serialisation, and
 * file readers/writers (zlib-backed, so plain and .gz files both work).
 *
 * The on-disk layout is our reconstruction of the public CVP-1 trace
 * reader's variable-length record:
 *
 *   u64  pc
 *   u8   instruction class (InstClass)
 *   [branches]  u8 taken, u64 target
 *   [loads/stores]  u64 effective address, u8 per-register access size
 *   u8   #source regs,      that many u8 reg ids
 *   u8   #destination regs, that many u8 reg ids, then that many u64
 *        output values (the architectural value written to each
 *        destination register -- the property CVP-1 traces are famous for)
 *
 * A 20-byte file header ("TRB1CVP\0", format version, instruction count)
 * precedes the records; the real Qualcomm traces are headerless, but since
 * both producers and consumers of this format live in this repository a
 * header buys cheap integrity checking.
 */

#ifndef TRB_TRACE_CVP_TRACE_HH
#define TRB_TRACE_CVP_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "resil/gz_stream.hh"
#include "resil/status.hh"

namespace trb
{

/** Maximum source registers a CVP-1 record can carry (CASP reaches 5). */
constexpr unsigned kMaxCvpSrc = 8;
/** Maximum destination registers a CVP-1 record can carry (0..3 typical). */
constexpr unsigned kMaxCvpDst = 4;

/**
 * One dynamic instruction as recorded by the CVP-1 tracer.
 *
 * Note what is *absent* -- addressing mode, opcode, special-purpose
 * registers (flags), exact footprint of multi-register loads -- because
 * those absences are exactly what the improved converter has to infer
 * around.
 */
struct CvpRecord
{
    Addr pc = 0;
    InstClass cls = InstClass::Alu;

    /** Branch fields; only meaningful when isBranch(cls). */
    bool taken = false;
    Addr target = 0;

    /** Memory fields; only meaningful when isMem(cls). */
    Addr ea = 0;
    std::uint8_t accessSize = 0;   //!< bytes transferred per register

    std::uint8_t numSrc = 0;
    RegId src[kMaxCvpSrc] = {};

    std::uint8_t numDst = 0;
    RegId dst[kMaxCvpDst] = {};
    std::uint64_t dstValue[kMaxCvpDst] = {};

    /** Append a source register (silently drops past kMaxCvpSrc). */
    void
    addSrc(RegId r)
    {
        if (numSrc < kMaxCvpSrc)
            src[numSrc++] = r;
    }

    /** Append a destination register with its output value. */
    void
    addDst(RegId r, std::uint64_t value)
    {
        if (numDst < kMaxCvpDst) {
            dst[numDst] = r;
            dstValue[numDst] = value;
            ++numDst;
        }
    }

    /** True if @p r appears among the source registers. */
    bool
    readsReg(RegId r) const
    {
        for (unsigned i = 0; i < numSrc; ++i)
            if (src[i] == r)
                return true;
        return false;
    }

    /** True if @p r appears among the destination registers. */
    bool
    writesReg(RegId r) const
    {
        for (unsigned i = 0; i < numDst; ++i)
            if (dst[i] == r)
                return true;
        return false;
    }

    bool operator==(const CvpRecord &other) const;
};

/** A whole CVP-1 trace held in memory. */
using CvpTrace = std::vector<CvpRecord>;

/**
 * Upper bound on one encoded record: pc, class, the branch and the
 * memory fields, and full source and destination lists.
 */
constexpr std::size_t kMaxCvpRecordBytes =
    8 + 1 + (1 + 8) + (8 + 1) + (1 + kMaxCvpSrc) + (1 + kMaxCvpDst) +
    8 * kMaxCvpDst;

/**
 * The one record encoder: write @p rec to @p out, which must hold
 * kMaxCvpRecordBytes, and return the end of the written bytes.  Every
 * serialised form (files, buffers, content digests) is built from it.
 */
std::uint8_t *encodeCvpRecord(const CvpRecord &rec, std::uint8_t *out);

/**
 * Encode the header and every record of @p trace into @p buf, which must
 * hold @p chunk + kMaxCvpRecordBytes bytes, and hand each filled chunk to
 * @p sink.  A chunk ends at the first record boundary at or past
 * @p chunk bytes, and a last, shorter one holds the rest.  Returns false
 * as soon as @p sink does, true when every byte was handed over.  The
 * streamed form of serializeCvpTrace(): the file writer and the content
 * digest use it, so neither holds the whole serialised trace.
 */
bool encodeCvpTrace(
    const CvpTrace &trace, std::uint8_t *buf, std::size_t chunk,
    const std::function<bool(const std::uint8_t *, std::size_t)> &sink);

/** Serialise a single record, appending to @p out. */
void serializeCvpRecord(const CvpRecord &rec, std::vector<std::uint8_t> &out);

/** Why a single-record deserialisation stopped. */
enum class CvpParse : std::uint8_t
{
    Ok,       //!< record parsed, offset advanced
    NeedMore, //!< ran off the end of @p data -- truncated or refill
    BadData,  //!< bytes present but violate a format rule
};

/**
 * Deserialise a single record from @p data at @p offset (advanced past
 * the record on Ok).  Distinguishes "not enough bytes" from "bytes that
 * cannot be a record" so callers can classify truncation vs corruption.
 */
CvpParse deserializeCvpRecordEx(const std::uint8_t *data, std::size_t size,
                                std::size_t &offset, CvpRecord &rec);

/**
 * Deserialise a single record from @p data at @p offset (advanced past the
 * record).  Returns false on truncated input.
 */
bool deserializeCvpRecord(const std::uint8_t *data, std::size_t size,
                          std::size_t &offset, CvpRecord &rec);

/** Serialise a whole trace (header + records) to an in-memory buffer. */
std::vector<std::uint8_t> serializeCvpTrace(const CvpTrace &trace);

/**
 * Parse a whole serialised trace from memory.  Validates the magic,
 * version, header count against records present, and rejects trailing
 * bytes -- so any corruption of the buffer is detected.  @p name labels
 * diagnostics (a file path or a synthetic trace name).
 */
Expected<CvpTrace> parseCvpTrace(const std::uint8_t *data, std::size_t size,
                                 const std::string &name);

/**
 * Write a trace to @p path; ".gz" selects compression.  Both gzwrite
 * and gzclose are checked: a flush failure at close is data loss.
 */
Status tryWriteCvpTrace(const std::string &path, const CvpTrace &trace);

/**
 * Read a trace written by tryWriteCvpTrace() with rich diagnostics (byte
 * offset, record index, violated rule).
 */
Expected<CvpTrace> tryReadCvpTrace(const std::string &path);

/**
 * Streaming reader over a CVP-1 trace file, for consumers that do not want
 * the whole trace in memory (the converter CLI uses this).
 *
 * Construct empty, then open(); open() reports a Status, and next()
 * returns false with status() set on malformed input.
 */
class CvpTraceReader
{
  public:
    CvpTraceReader() = default;
    ~CvpTraceReader() = default;

    CvpTraceReader(const CvpTraceReader &) = delete;
    CvpTraceReader &operator=(const CvpTraceReader &) = delete;

    /** Open @p path and validate the header. */
    Status open(const std::string &path);

    /** Instruction count promised by the header. */
    std::uint64_t count() const { return count_; }

    /** Records delivered so far. */
    std::uint64_t delivered() const { return delivered_; }

    /**
     * Fetch the next record; false at end of trace or on error.  Check
     * status() to tell the two apart.
     */
    bool next(CvpRecord &rec);

    /**
     * After next() has returned false cleanly, verify nothing trails
     * the promised records.  OK in all other error cases too (the
     * earlier error stands).
     */
    Status finish();

    /** The error that stopped next(); OK at a clean end of trace. */
    const Status &status() const { return status_; }

  private:
    Status fill();

    resil::GzInFile in_;
    std::vector<std::uint8_t> buffer_;
    std::size_t pos_ = 0;
    std::uint64_t bufferBase_ = 0; //!< file offset of buffer_[0]
    bool eof_ = false;
    std::uint64_t count_ = 0;
    std::uint64_t delivered_ = 0;
    Status status_;
};

} // namespace trb

#endif // TRB_TRACE_CVP_TRACE_HH
