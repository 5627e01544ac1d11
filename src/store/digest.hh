/**
 * @file
 * 128-bit content digests for the artifact store.
 *
 * The store is content-addressed: artifact file names are digests of
 * canonical key strings, and every artifact's payload digest is stored
 * in its header and re-checked on load.  The hash is a fixed, seeded
 * 2x64-bit multiply-rotate-xor construction -- not cryptographic, but
 * stable across processes and platforms (the payloads it hashes are
 * already little-endian on-disk formats), which is the property the
 * cache keys need.  Changing the mixing constants invalidates every
 * store on disk, so treat them like an on-disk format.
 */

#ifndef TRB_STORE_DIGEST_HH
#define TRB_STORE_DIGEST_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/champsim_trace.hh"
#include "trace/cvp_trace.hh"

namespace trb
{
namespace store
{

/** A 128-bit content digest. */
struct Digest
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Digest &other) const = default;

    /** 32 lower-case hex characters, hi first. */
    std::string hex() const;
};

/** Streaming digest builder. */
class Hasher
{
  public:
    explicit Hasher(std::uint64_t seed = 0);

    /** Absorb @p size bytes. */
    void update(const void *data, std::size_t size);

    /** Finalize (idempotent only if no further update() follows). */
    Digest finish();

  private:
    void absorbWord(std::uint64_t word);

    std::uint64_t a_;
    std::uint64_t b_;
    std::uint64_t length_ = 0;
    std::uint8_t tail_[8] = {};
    std::size_t tailLen_ = 0;
};

/** One-shot digest of a byte buffer. */
Digest digestBytes(const void *data, std::size_t size,
                   std::uint64_t seed = 0);

/** One-shot digest of a string (key canonicalisation). */
Digest digestString(const std::string &text, std::uint64_t seed = 0);

/**
 * Content digest of a CVP-1 trace: hashes the canonical serialised form
 * (the same bytes serializeCvpTrace and tryWriteCvpTrace produce, from
 * the one record encoder), so the digest identifies the trace content
 * regardless of how it was produced.  The bytes are streamed through
 * the hasher in chunks; no copy of the whole trace is built.
 */
Digest digestCvpTrace(const CvpTrace &trace);

/** Content digest of a converted trace (the raw 64-byte records). */
Digest digestChampSimTrace(ChampSimView trace);

} // namespace store
} // namespace trb

#endif // TRB_STORE_DIGEST_HH
