/**
 * @file
 * trb::resil -- the structured error model the robust I/O paths speak.
 *
 * A Status is either OK or one error of a small taxonomy
 * (TruncatedInput, CorruptRecord, IoError, BadMagic, Internal,
 * BadRequest, Busy, Timeout) carrying rich diagnostics: the offending path, the absolute byte offset, the
 * record index inside the stream, and the format rule that was violated.
 * Expected<T> is the value-or-Status sum type the non-fatal readers
 * return.
 *
 * The taxonomy is deliberately coarse: callers dispatch policy on the
 * class (IoError, Busy and Timeout are retryable, everything else
 * quarantines) and log the message for humans.  The serving layer
 * (trb::serve) uses the same classes on the wire: BadRequest rejects a
 * malformed request, Busy is the typed backpressure reply a client
 * backs off from, Timeout answers a request whose deadline expired or
 * whose simulation was cancelled.  Every constructed error also bumps the
 * resil.errors.<class> counter in the global metrics registry, so a
 * sweep's failure profile lands in the standard TRB_OBS_JSON export.
 */

#ifndef TRB_RESIL_STATUS_HH
#define TRB_RESIL_STATUS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.hh"

namespace trb
{

/**
 * The error classes, as X(enumerator, stable lower-case name), in enum
 * order: the one table.  ErrorClass, errorClassName() and the wire
 * decoder's lookup, errorClassNamed(), are all made from it.
 */
#define TRB_ERROR_CLASSES(X)                                              \
    X(Ok, "ok")                                                           \
    /** Stream ended mid-record / short of its promise. */                \
    X(TruncatedInput, "truncated_input")                                  \
    /** Bytes present but violate the format rules. */                    \
    X(CorruptRecord, "corrupt_record")                                    \
    /** Open/read/write/close failure (retryable). */                     \
    X(IoError, "io_error")                                                \
    /** Not the expected file format at all. */                           \
    X(BadMagic, "bad_magic")                                              \
    /** A TraceRebase bug surfaced as data. */                            \
    X(Internal, "internal")                                               \
    /** A malformed/unsupported request (trb::serve). */                  \
    X(BadRequest, "bad_request")                                          \
    /** Bounded queue full; back off and resubmit. */                     \
    X(Busy, "busy")                                                       \
    /** Deadline expired / work cancelled (retryable). */                 \
    X(Timeout, "timeout")

/** What went wrong, at policy granularity. */
enum class ErrorClass : std::uint8_t
{
#define TRB_ERROR_CLASS_ENUMERATOR(cls, name) cls,
    TRB_ERROR_CLASSES(TRB_ERROR_CLASS_ENUMERATOR)
#undef TRB_ERROR_CLASS_ENUMERATOR
};

/** Stable lower-case name of an error class ("truncated_input", ...). */
const char *errorClassName(ErrorClass cls);

/** The class errorClassName() names @p name, if there is one. */
std::optional<ErrorClass> errorClassNamed(std::string_view name);

/** Sentinel for "offset/index not known" in Status diagnostics. */
constexpr std::uint64_t kNoPosition = ~std::uint64_t{0};

/**
 * OK, or one classified error with diagnostics.  Build errors through
 * the named factories and chain the at()/rule() setters:
 *
 *     return Status::corrupt("invalid class byte 200")
 *         .at(path, offset, record_index)
 *         .rule("cvp.class-range");
 */
class Status
{
  public:
    /** Default-constructed Status is OK. */
    Status() = default;

    static Status truncated(std::string msg);
    static Status corrupt(std::string msg);
    static Status ioError(std::string msg);
    static Status badMagic(std::string msg);
    static Status internal(std::string msg);
    static Status badRequest(std::string msg);
    static Status busy(std::string msg);
    static Status timeout(std::string msg);
    /** An error of class @p cls, which must not be Ok. */
    static Status of(ErrorClass cls, std::string msg);

    /** Attach the offending file and position. */
    Status &
    at(std::string path, std::uint64_t byte_offset = kNoPosition,
       std::uint64_t record_index = kNoPosition)
    {
        path_ = std::move(path);
        byteOffset_ = byte_offset;
        recordIndex_ = record_index;
        return *this;
    }

    /** Attach the format rule that was violated ("cvp.header", ...). */
    Status &
    rule(std::string rule_id)
    {
        rule_ = std::move(rule_id);
        return *this;
    }

    bool ok() const { return cls_ == ErrorClass::Ok; }
    explicit operator bool() const { return ok(); }

    ErrorClass errorClass() const { return cls_; }
    const std::string &message() const { return message_; }
    const std::string &path() const { return path_; }
    std::uint64_t byteOffset() const { return byteOffset_; }
    std::uint64_t recordIndex() const { return recordIndex_; }
    const std::string &ruleViolated() const { return rule_; }

    /** Retryable errors: transient I/O, an overloaded server, or an
     *  expired deadline -- the condition clears on its own (or a fresh
     *  deadline applies); resubmitting is correct. */
    bool
    retryable() const
    {
        return cls_ == ErrorClass::IoError ||
               cls_ == ErrorClass::Busy || cls_ == ErrorClass::Timeout;
    }

    /**
     * One-line rendering:
     * "corrupt_record: invalid class byte (path, byte 123, record 4,
     *  rule cvp.class-range)".
     */
    std::string toString() const;

  private:
    Status(ErrorClass cls, std::string msg);

    ErrorClass cls_ = ErrorClass::Ok;
    std::string message_;
    std::string path_;
    std::uint64_t byteOffset_ = kNoPosition;
    std::uint64_t recordIndex_ = kNoPosition;
    std::string rule_;
};

/**
 * A value or the Status explaining its absence.  Intentionally tiny:
 * implicit construction from both sides keeps the reader code flat
 * (`return trace;` / `return Status::truncated(...)`).
 */
template <typename T>
class Expected
{
  public:
    /* implicit */ Expected(T value)
        : value_(std::move(value)), hasValue_(true)
    {}

    /* implicit */ Expected(Status status) : status_(std::move(status))
    {
        trb_assert(!status_.ok(),
                   "Expected constructed from an OK Status");
    }

    bool ok() const { return hasValue_; }
    explicit operator bool() const { return hasValue_; }

    /** The error; Status::ok() when a value is held. */
    const Status &status() const { return status_; }

    const T &
    value() const &
    {
        trb_assert(hasValue_, "Expected::value() on error: ",
                   status_.toString());
        return value_;
    }

    T &
    value() &
    {
        trb_assert(hasValue_, "Expected::value() on error: ",
                   status_.toString());
        return value_;
    }

    T &&
    value() &&
    {
        trb_assert(hasValue_, "Expected::value() on error: ",
                   status_.toString());
        return std::move(value_);
    }

  private:
    T value_{};
    Status status_;
    bool hasValue_ = false;
};

} // namespace trb

#endif // TRB_RESIL_STATUS_HH
