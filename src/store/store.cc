#include "store/store.hh"

#include <atomic>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "obs/metrics.hh"
#include "resil/fault.hh"

namespace fs = std::filesystem;

namespace trb
{
namespace store
{

namespace
{

constexpr char kMagic[8] = {'T', 'R', 'B', 'S', 'T', 'O', 'R', '1'};
constexpr std::size_t kPayloadAlign = 64;

/** The fixed on-disk artifact header.  Exactly 64 bytes. */
struct ArtifactHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t kind;
    std::uint64_t payloadBytes;
    std::uint64_t digestHi;
    std::uint64_t digestLo;
    std::uint32_t keyBytes;
    std::uint32_t payloadOffset;
    std::uint64_t reserved[2];
};
static_assert(sizeof(ArtifactHeader) == 64,
              "artifact header must stay 64 bytes (on-disk format)");

/** File-name prefix per kind (retired kinds keep theirs for verify). */
const char *
kindPrefix(std::uint32_t kind)
{
    switch (kind) {
      case kTraceArtifact: return "tr-";
      case kRegionBbvArtifact: return "bv-";
      case kRegionMavArtifact: return "mv-";
      default: return "st-";
    }
}

std::size_t
alignedPayloadOffset(std::size_t key_bytes)
{
    return (sizeof(ArtifactHeader) + key_bytes + kPayloadAlign - 1) /
           kPayloadAlign * kPayloadAlign;
}

/**
 * Full structural + content validation of one artifact image.  @p key
 * is empty when the embedded key is not known in advance (verify);
 * otherwise a key mismatch is a corruption, not a miss -- the file name
 * is the digest of the key, so disagreement means a damaged or
 * misplaced artifact.
 */
Status
validateArtifact(const std::uint8_t *data, std::size_t size,
                 std::uint32_t kind, const std::string &key,
                 std::size_t &payload_off, std::size_t &payload_bytes)
{
    if (size < sizeof(ArtifactHeader))
        return Status::truncated("artifact shorter than its header")
            .rule("store.header");
    ArtifactHeader hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        return Status::badMagic("not a TRB store artifact")
            .rule("store.magic");
    if (hdr.version != kStoreFormatVersion)
        return Status::corrupt("artifact format version " +
                               std::to_string(hdr.version) +
                               " (expected " +
                               std::to_string(kStoreFormatVersion) + ")")
            .rule("store.version");
    if (hdr.kind != kind)
        return Status::corrupt("artifact kind " + std::to_string(hdr.kind) +
                               " under a kind-" + std::to_string(kind) +
                               " name")
            .rule("store.kind");
    if (hdr.payloadOffset < sizeof(ArtifactHeader) + hdr.keyBytes ||
        hdr.payloadOffset > size)
        return Status::corrupt("payload offset out of range")
            .rule("store.offset");
    if (!key.empty()) {
        if (hdr.keyBytes != key.size() ||
            std::memcmp(data + sizeof(ArtifactHeader), key.data(),
                        key.size()) != 0)
            return Status::corrupt("artifact key does not match its name")
                .rule("store.key");
    }
    if (hdr.payloadOffset + hdr.payloadBytes > size)
        return Status::truncated("artifact payload cut short")
            .rule("store.payload");
    if (hdr.payloadOffset + hdr.payloadBytes < size)
        return Status::corrupt("trailing bytes after the payload")
            .rule("store.payload");
    if (kind == kTraceArtifact &&
        hdr.payloadBytes % sizeof(ChampSimRecord) != 0)
        return Status::corrupt("trace payload is not whole records")
            .rule("store.record-size");
    Digest digest = digestBytes(data + hdr.payloadOffset,
                                static_cast<std::size_t>(hdr.payloadBytes));
    if (digest.hi != hdr.digestHi || digest.lo != hdr.digestLo)
        return Status::corrupt("payload digest mismatch")
            .rule("store.digest");
    payload_off = hdr.payloadOffset;
    payload_bytes = static_cast<std::size_t>(hdr.payloadBytes);
    return Status();
}

/** Embedded key of a validated-enough header (verify/ls). */
bool
embeddedKey(const std::uint8_t *data, std::size_t size, std::string &key,
            std::uint32_t &kind)
{
    if (size < sizeof(ArtifactHeader))
        return false;
    ArtifactHeader hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        return false;
    if (sizeof(ArtifactHeader) + hdr.keyBytes > size)
        return false;
    key.assign(reinterpret_cast<const char *>(data) +
                   sizeof(ArtifactHeader),
               hdr.keyBytes);
    kind = hdr.kind;
    return true;
}

std::int64_t
mtimeNanos(const fs::path &path)
{
    std::error_code ec;
    auto t = fs::last_write_time(path, ec);
    if (ec)
        return 0;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

bool
readWholeFile(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    std::streamoff len = in.tellg();
    if (len < 0)
        return false;
    in.seekg(0);
    out.resize(static_cast<std::size_t>(len));
    if (len > 0)
        in.read(reinterpret_cast<char *>(out.data()), len);
    return static_cast<bool>(in);
}

void
bump(const char *path, std::uint64_t delta = 1)
{
    obs::MetricsRegistry::global().addCounter(path, delta);
}

std::mutex g_global_mutex;
std::unique_ptr<Store> g_global_store;      // NOLINT: process singleton
bool g_global_init = false;                 // NOLINT
std::string g_test_dir;                     // NOLINT
bool g_test_dir_set = false;                // NOLINT

} // namespace

// ---------------------------------------------------------------------
// MappedFile

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile &&other) noexcept
    : data_(other.data_), size_(other.size_)
{
    other.data_ = nullptr;
    other.size_ = 0;
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        reset();
        data_ = other.data_;
        size_ = other.size_;
        other.data_ = nullptr;
        other.size_ = 0;
    }
    return *this;
}

void
MappedFile::reset()
{
    if (data_)
        ::munmap(const_cast<std::uint8_t *>(data_), size_);
    data_ = nullptr;
    size_ = 0;
}

Status
MappedFile::open(const std::string &path)
{
    reset();
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return Status::ioError(std::string("cannot open artifact: ") +
                               std::strerror(errno))
            .at(path);
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return Status::ioError(std::string("cannot stat artifact: ") +
                               std::strerror(errno))
            .at(path);
    }
    if (st.st_size == 0) {
        ::close(fd);
        return Status::truncated("empty artifact file")
            .at(path)
            .rule("store.header");
    }
    void *mapped = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                          PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (mapped == MAP_FAILED)
        return Status::ioError(std::string("mmap failed: ") +
                               std::strerror(errno))
            .at(path);
    data_ = static_cast<const std::uint8_t *>(mapped);
    size_ = static_cast<std::size_t>(st.st_size);
    return Status();
}

// ---------------------------------------------------------------------
// Store

Store::Store(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        trb_warn("store: cannot create ", dir_, ": ", ec.message());
}

Store *
Store::global()
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    if (!g_global_init) {
        g_global_init = true;
        std::string dir =
            g_test_dir_set ? g_test_dir : env::str("TRB_STORE");
        if (!dir.empty()) {
            g_global_store = std::make_unique<Store>(dir);
            trb_inform("store: artifact cache at ", dir);
        }
    }
    return g_global_store.get();
}

void
Store::setDirForTesting(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    g_test_dir = dir;
    g_test_dir_set = true;
    g_global_init = true;
    g_global_store = dir.empty() ? nullptr : std::make_unique<Store>(dir);
}

std::string
Store::artifactPath(std::uint32_t kind, const std::string &key) const
{
    return dir_ + "/" + kindPrefix(kind) + digestString(key).hex() +
           ".trb";
}

void
Store::quarantine(const std::string &path, const Status &status)
{
    trb_warn("store: quarantining damaged artifact ", path, ": ",
             status.toString());
    std::string bad = path + ".bad";
    if (std::rename(path.c_str(), bad.c_str()) != 0)
        std::remove(path.c_str());
    bump("store.quarantined");
}

bool
Store::loadArtifact(std::uint32_t kind, const std::string &key,
                    MappedFile &map, std::vector<std::uint8_t> &owned,
                    const std::uint8_t *&payload,
                    std::size_t &payloadBytes)
{
    std::string path = artifactPath(kind, key);
    if (::access(path.c_str(), F_OK) != 0) {
        bump("store.misses");
        return false;
    }

    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
    resil::FaultInjector &injector = resil::FaultInjector::global();
    if (injector.enabled()) {
        // Fault-injected loads go through an owned buffer so the plan
        // can damage the bytes -- the validation below must catch it.
        std::string name = path.substr(path.rfind('/') + 1);
        if (injector.shouldFailTransiently(name)) {
            bump("store.misses");
            return false;   // a miss re-simulates: always safe
        }
        if (!readWholeFile(path, owned)) {
            bump("store.misses");
            return false;
        }
        resil::FaultPlan plan = injector.plan(name);
        if (plan.corrupting())
            plan.corruptBuffer(owned);
        data = owned.data();
        size = owned.size();
    } else {
        Status mapped = map.open(path);
        if (!mapped.ok()) {
            trb_warn("store: ", mapped.toString());
            bump("store.misses");
            return false;
        }
        data = map.data();
        size = map.size();
    }

    std::size_t off = 0;
    std::size_t bytes = 0;
    Status valid = validateArtifact(data, size, kind, key, off, bytes);
    if (!valid.ok()) {
        quarantine(path, valid.at(path));
        bump("store.misses");
        return false;
    }
    payload = data + off;
    payloadBytes = bytes;
    bump("store.hits");
    bump("store.bytes", bytes);
    // Touch the artifact so gc() evicts in least-recently-used order.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return true;
}

void
Store::putArtifact(std::uint32_t kind, const std::string &key,
                   const void *payload, std::size_t payloadBytes)
{
    std::size_t off = alignedPayloadOffset(key.size());
    std::vector<std::uint8_t> blob(off + payloadBytes, 0);

    Digest digest = digestBytes(payload, payloadBytes);
    ArtifactHeader hdr = {};
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.version = kStoreFormatVersion;
    hdr.kind = kind;
    hdr.payloadBytes = payloadBytes;
    hdr.digestHi = digest.hi;
    hdr.digestLo = digest.lo;
    hdr.keyBytes = static_cast<std::uint32_t>(key.size());
    hdr.payloadOffset = static_cast<std::uint32_t>(off);
    std::memcpy(blob.data(), &hdr, sizeof(hdr));
    std::memcpy(blob.data() + sizeof(hdr), key.data(), key.size());
    std::memcpy(blob.data() + off, payload, payloadBytes);

    // Stage-and-rename: concurrent readers (and a crash mid-write) only
    // ever observe whole artifacts.
    static std::atomic<std::uint64_t> seq{0};
    std::string tmp = dir_ + "/.tmp-" + std::to_string(::getpid()) + "-" +
                      std::to_string(seq.fetch_add(1));
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (!out) {
        trb_warn("store: cannot stage artifact in ", dir_, ": ",
                 std::strerror(errno));
        return;
    }
    bool ok = std::fwrite(blob.data(), 1, blob.size(), out) == blob.size();
    ok = (std::fclose(out) == 0) && ok;
    std::string path = artifactPath(kind, key);
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        trb_warn("store: cannot publish artifact ", path, ": ",
                 std::strerror(errno));
        std::remove(tmp.c_str());
        return;
    }
    bump("store.writes");
    bump("store.write_bytes", blob.size());
}

bool
Store::loadTrace(const std::string &key, TraceHandle &out)
{
    const std::uint8_t *payload = nullptr;
    std::size_t bytes = 0;
    if (!loadArtifact(kTraceArtifact, key, out.map_, out.owned_, payload,
                      bytes))
        return false;
    out.payload_ = payload;
    out.records_ = bytes / sizeof(ChampSimRecord);
    return true;
}

void
Store::putTrace(const std::string &key, const ChampSimTrace &trace)
{
    putArtifact(kTraceArtifact, key, trace.data(),
                trace.size() * sizeof(ChampSimRecord));
}

bool
Store::loadBits(const std::string &key, std::vector<std::uint64_t> &out)
{
    MappedFile map;
    std::vector<std::uint8_t> owned;
    const std::uint8_t *payload = nullptr;
    std::size_t bytes = 0;
    if (!loadArtifact(kStatsArtifact, key, map, owned, payload, bytes))
        return false;
    if (bytes % sizeof(std::uint64_t) != 0) {
        quarantine(artifactPath(kStatsArtifact, key),
                   Status::corrupt("bit-pattern payload is not whole u64s")
                       .rule("store.record-size"));
        return false;
    }
    out.resize(bytes / sizeof(std::uint64_t));
    std::memcpy(out.data(), payload, bytes);
    return true;
}

void
Store::putBits(const std::string &key,
               const std::vector<std::uint64_t> &bits)
{
    putArtifact(kStatsArtifact, key, bits.data(),
                bits.size() * sizeof(std::uint64_t));
}

std::vector<ArtifactInfo>
Store::list() const
{
    std::vector<ArtifactInfo> out;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file())
            continue;
        std::string name = entry.path().filename().string();
        if (!endsWith(name, ".trb"))
            continue;
        ArtifactInfo info;
        info.file = name;
        info.bytes = static_cast<std::uint64_t>(entry.file_size());
        info.mtimeNs = mtimeNanos(entry.path());
        std::vector<std::uint8_t> head;
        std::ifstream in(entry.path(), std::ios::binary);
        head.resize(4096);
        in.read(reinterpret_cast<char *>(head.data()),
                static_cast<std::streamsize>(head.size()));
        head.resize(static_cast<std::size_t>(in.gcount()));
        if (!embeddedKey(head.data(), head.size(), info.key, info.kind))
            info.status = Status::corrupt("unreadable artifact header")
                              .at(entry.path().string())
                              .rule("store.header");
        out.push_back(std::move(info));
    }
    std::sort(out.begin(), out.end(),
              [](const ArtifactInfo &a, const ArtifactInfo &b) {
                  return a.file < b.file;
              });
    return out;
}

Store::GcResult
Store::gc(std::uint64_t maxBytes)
{
    GcResult result;
    struct Entry
    {
        fs::path path;
        std::uint64_t bytes;
        std::int64_t mtimeNs;
        std::string name;
    };
    std::vector<Entry> entries;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file())
            continue;
        std::string name = entry.path().filename().string();
        if (endsWith(name, ".trb")) {
            entries.push_back({entry.path(),
                               static_cast<std::uint64_t>(
                                   entry.file_size()),
                               mtimeNanos(entry.path()), name});
        } else {
            // Stale temporaries and quarantined artifacts never earn
            // their keep: always collect them.
            fs::remove(entry.path(), ec);
        }
    }
    result.scanned = entries.size();
    for (const Entry &e : entries)
        result.totalBytes += e.bytes;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtimeNs != b.mtimeNs ? a.mtimeNs < b.mtimeNs
                                                : a.name < b.name;
              });
    std::uint64_t remaining = result.totalBytes;
    for (const Entry &e : entries) {
        if (remaining <= maxBytes)
            break;
        if (fs::remove(e.path, ec)) {
            remaining -= e.bytes;
            ++result.evicted;
            result.evictedBytes += e.bytes;
        }
    }
    if (result.evicted > 0)
        bump("store.evicted", result.evicted);
    return result;
}

Store::VerifyResult
Store::verify()
{
    VerifyResult result;
    for (ArtifactInfo info : list()) {
        ++result.checked;
        std::string path = dir_ + "/" + info.file;
        std::vector<std::uint8_t> bytes;
        Status status;
        if (!info.status.ok()) {
            status = info.status;
        } else if (!readWholeFile(path, bytes)) {
            status = Status::ioError("cannot read artifact").at(path);
        } else {
            std::size_t off = 0;
            std::size_t plen = 0;
            status = validateArtifact(bytes.data(), bytes.size(),
                                      info.kind, info.key, off, plen);
            // The name is the digest of the key: a mismatch means the
            // artifact was renamed or its key bytes were damaged.
            if (status.ok() &&
                path != artifactPath(info.kind, info.key))
                status = Status::corrupt(
                             "artifact name does not match its key")
                             .at(path)
                             .rule("store.key");
        }
        if (status.ok()) {
            ++result.ok;
        } else {
            quarantine(path, status.at(path));
            info.status = status;
            result.bad.push_back(std::move(info));
        }
    }
    return result;
}

} // namespace store
} // namespace trb
