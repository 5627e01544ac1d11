/**
 * @file
 * trb::store -- a content-addressed on-disk artifact cache
 * (TRB_STORE=<dir>) that memoizes simulation results across processes,
 * stored as the exact u64 bit patterns of SimStats::toBits(), so a
 * cache hit reproduces the miss byte-for-byte.  It is the one memo of
 * results: a killed sweep resumes from the cells it already published.
 *
 * The converted-trace kind (the raw 64-byte record array, read back
 * zero-copy through an mmap'd ChampSimView) is not used by simulate();
 * list/verify/gc handle the ones older stores hold, and likewise the
 * retired region kinds 3/4, which no code writes or reads any more.
 *
 * Keys are canonical strings composed by the simulator facade (CVP
 * content digest + improvement set + converter version for the source,
 * plus core config, warm-up bits and prefetcher id); the file name is
 * the digest of the key.  Every artifact carries its key and a
 * payload digest in a fixed 64-byte header, both re-checked on load --
 * an artifact whose magic, key or digest mismatches is *quarantined*
 * (renamed to <file>.bad, classified through the trb::resil taxonomy)
 * and treated as a miss, so a damaged store can slow a run down but
 * never corrupt it.  TRB_FAULT injection is honoured on the load path,
 * exactly like the trace readers.
 *
 * Writes are crash- and race-safe: artifacts are staged to a temporary
 * file and atomically rename(2)d into place, so concurrent processes
 * warming the same store only ever observe whole artifacts.  Loads
 * touch the artifact's mtime, making gc(maxBytes) LRU eviction.
 *
 * Counters: store.{hits,misses,bytes,writes,write_bytes,quarantined,
 * evicted} in the global metrics registry.
 */

#ifndef TRB_STORE_STORE_HH
#define TRB_STORE_STORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "resil/status.hh"
#include "store/digest.hh"
#include "trace/champsim_trace.hh"

namespace trb
{
namespace store
{

/** On-disk artifact kinds. */
enum ArtifactKind : std::uint32_t
{
    kTraceArtifact = 1,      //!< converted ChampSim trace (record array)
    kStatsArtifact = 2,      //!< u64 bit-pattern vector (SimStats::toBits)
    kRegionBbvArtifact = 3,  //!< retired: region basic-block vectors
    kRegionMavArtifact = 4,  //!< retired: region memory-access vectors
};

/** Store format version; bump on any layout change. */
constexpr std::uint32_t kStoreFormatVersion = 1;

/** A read-only mmap of one file.  Move-only; unmaps on destruction. */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile();
    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /**
     * Map @p path read-only.  A missing file is an IoError whose
     * message starts with "no such artifact" (the caller's miss case);
     * anything else is a real I/O failure.
     */
    Status open(const std::string &path);

    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    void reset();

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

/**
 * A loaded converted-trace artifact.  Holds either the mmap (zero-copy
 * fast path) or an owned buffer (fault-injected loads); view() stays
 * valid for the handle's lifetime.
 */
class TraceHandle
{
  public:
    ChampSimView view() const
    {
        return {reinterpret_cast<const ChampSimRecord *>(payload_),
                records_};
    }

  private:
    friend class Store;

    MappedFile map_;
    std::vector<std::uint8_t> owned_;
    const std::uint8_t *payload_ = nullptr;
    std::size_t records_ = 0;
};

/** One artifact as listed by ls/verify. */
struct ArtifactInfo
{
    std::string file;          //!< file name inside the store
    std::uint64_t bytes = 0;   //!< whole file size
    std::uint32_t kind = 0;    //!< ArtifactKind (0 when unreadable)
    std::string key;           //!< canonical key (empty when unreadable)
    std::int64_t mtimeNs = 0;  //!< modification time (eviction order)
    Status status;             //!< non-OK when the artifact is damaged
};

/** The content-addressed artifact cache rooted at one directory. */
class Store
{
  public:
    /** Open (creating if needed) the store at @p dir. */
    explicit Store(std::string dir);

    Store(const Store &) = delete;
    Store &operator=(const Store &) = delete;

    /**
     * The process-wide store from TRB_STORE (or the test override);
     * nullptr when no store is configured.  Sized once, at first use.
     */
    static Store *global();

    /**
     * Point global() at @p dir for tests (empty string disables).
     * Replaces the cached instance; only call from single-threaded test
     * set-up.
     */
    static void setDirForTesting(const std::string &dir);

    const std::string &dir() const { return dir_; }

    /**
     * Fetch the converted trace under @p key.  True on hit; false on
     * miss or on a damaged artifact (which is quarantined first).
     */
    bool loadTrace(const std::string &key, TraceHandle &out);

    /** Publish a converted trace under @p key (best-effort). */
    void putTrace(const std::string &key, const ChampSimTrace &trace);

    /** Fetch a u64 bit-pattern artifact (simulation stats). */
    bool loadBits(const std::string &key, std::vector<std::uint64_t> &out);

    /** Publish a u64 bit-pattern artifact under @p key (best-effort). */
    void putBits(const std::string &key,
                 const std::vector<std::uint64_t> &bits);

    /** Every artifact in the store, sorted by file name. */
    std::vector<ArtifactInfo> list() const;

    struct GcResult
    {
        std::uint64_t scanned = 0;        //!< artifacts examined
        std::uint64_t totalBytes = 0;     //!< store size before eviction
        std::uint64_t evicted = 0;        //!< artifacts removed
        std::uint64_t evictedBytes = 0;
    };

    /**
     * Evict least-recently-used artifacts (oldest mtime first, file
     * name as the tie-break) until the store is at most @p maxBytes.
     * Stale temporaries and quarantined .bad files are always removed.
     */
    GcResult gc(std::uint64_t maxBytes);

    struct VerifyResult
    {
        std::uint64_t checked = 0;
        std::uint64_t ok = 0;
        std::vector<ArtifactInfo> bad;   //!< quarantined artifacts
    };

    /** Re-digest every artifact; quarantine the damaged ones. */
    VerifyResult verify();

    /** File path an artifact of @p kind under @p key would live at. */
    std::string artifactPath(std::uint32_t kind,
                             const std::string &key) const;

  private:
    bool loadArtifact(std::uint32_t kind, const std::string &key,
                      MappedFile &map, std::vector<std::uint8_t> &owned,
                      const std::uint8_t *&payload,
                      std::size_t &payloadBytes);
    void putArtifact(std::uint32_t kind, const std::string &key,
                     const void *payload, std::size_t payloadBytes);
    void quarantine(const std::string &path, const Status &status);

    std::string dir_;
};

} // namespace store
} // namespace trb

#endif // TRB_STORE_STORE_HH
