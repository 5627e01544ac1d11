#include "resil/status.hh"

#include <iterator>
#include <sstream>

#include "obs/metrics.hh"

namespace trb
{

namespace
{

/** Every class's name, indexed by ErrorClass. */
constexpr const char *kClassNames[] = {
#define TRB_ERROR_CLASS_NAME(cls, name) name,
    TRB_ERROR_CLASSES(TRB_ERROR_CLASS_NAME)
#undef TRB_ERROR_CLASS_NAME
};

} // namespace

const char *
errorClassName(ErrorClass cls)
{
    const auto i = static_cast<std::size_t>(cls);
    return i < std::size(kClassNames) ? kClassNames[i] : "unknown";
}

std::optional<ErrorClass>
errorClassNamed(std::string_view name)
{
    for (std::size_t i = 0; i < std::size(kClassNames); ++i)
        if (name == kClassNames[i])
            return static_cast<ErrorClass>(i);
    return std::nullopt;
}

Status::Status(ErrorClass cls, std::string msg)
    : cls_(cls), message_(std::move(msg))
{
    // Every constructed error shows up in the standard metrics export.
    obs::MetricsRegistry::global().addCounter(
        std::string("resil.errors.") + errorClassName(cls));
}

Status
Status::truncated(std::string msg)
{
    return Status(ErrorClass::TruncatedInput, std::move(msg));
}

Status
Status::corrupt(std::string msg)
{
    return Status(ErrorClass::CorruptRecord, std::move(msg));
}

Status
Status::ioError(std::string msg)
{
    return Status(ErrorClass::IoError, std::move(msg));
}

Status
Status::badMagic(std::string msg)
{
    return Status(ErrorClass::BadMagic, std::move(msg));
}

Status
Status::internal(std::string msg)
{
    return Status(ErrorClass::Internal, std::move(msg));
}

Status
Status::badRequest(std::string msg)
{
    return Status(ErrorClass::BadRequest, std::move(msg));
}

Status
Status::busy(std::string msg)
{
    return Status(ErrorClass::Busy, std::move(msg));
}

Status
Status::timeout(std::string msg)
{
    return Status(ErrorClass::Timeout, std::move(msg));
}

Status
Status::of(ErrorClass cls, std::string msg)
{
    trb_assert(cls != ErrorClass::Ok, "an error needs an error class");
    return Status(cls, std::move(msg));
}

std::string
Status::toString() const
{
    if (ok())
        return "ok";
    std::ostringstream os;
    os << errorClassName(cls_) << ": " << message_;
    bool open = false;
    auto sep = [&]() -> std::ostream & {
        os << (open ? ", " : " (");
        open = true;
        return os;
    };
    if (!path_.empty())
        sep() << path_;
    if (byteOffset_ != kNoPosition)
        sep() << "byte " << byteOffset_;
    if (recordIndex_ != kNoPosition)
        sep() << "record " << recordIndex_;
    if (!rule_.empty())
        sep() << "rule " << rule_;
    if (open)
        os << ")";
    return os.str();
}

} // namespace trb
