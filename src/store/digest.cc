#include "store/digest.hh"

#include <cstdio>
#include <cstring>

namespace trb
{
namespace store
{

namespace
{

constexpr std::uint64_t kSeedA = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kSeedB = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kMulA = 0x9ddfea08eb382d69ULL;
constexpr std::uint64_t kMulB = 0xff51afd7ed558ccdULL;

std::uint64_t
rotl(std::uint64_t v, unsigned s)
{
    return (v << s) | (v >> (64 - s));
}

/** Murmur3-style finalizer: full avalanche on a 64-bit lane. */
std::uint64_t
fmix(std::uint64_t v)
{
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    v *= 0xc4ceb9fe1a85ec53ULL;
    v ^= v >> 33;
    return v;
}

} // namespace

std::string
Digest::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

Hasher::Hasher(std::uint64_t seed) : a_(kSeedA ^ seed), b_(kSeedB + seed) {}

void
Hasher::absorbWord(std::uint64_t word)
{
    a_ = rotl((a_ ^ word) * kMulA, 27) + b_;
    b_ = rotl((b_ + word) * kMulB, 31) ^ a_;
}

void
Hasher::update(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    length_ += size;

    if (tailLen_ > 0) {
        while (tailLen_ < sizeof(tail_) && size > 0) {
            tail_[tailLen_++] = *bytes++;
            --size;
        }
        if (tailLen_ < sizeof(tail_))
            return;
        std::uint64_t word = 0;
        std::memcpy(&word, tail_, sizeof(word));
        absorbWord(word);
        tailLen_ = 0;
    }

    while (size >= sizeof(std::uint64_t)) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes, sizeof(word));
        absorbWord(word);
        bytes += sizeof(word);
        size -= sizeof(word);
    }

    while (size > 0) {
        tail_[tailLen_++] = *bytes++;
        --size;
    }
}

Digest
Hasher::finish()
{
    std::uint64_t a = a_;
    std::uint64_t b = b_;
    if (tailLen_ > 0) {
        // Zero-padded final word; the absorbed length below keeps a
        // padded tail distinct from genuine trailing zero bytes.
        std::uint8_t padded[8] = {};
        std::memcpy(padded, tail_, tailLen_);
        std::uint64_t word = 0;
        std::memcpy(&word, padded, sizeof(word));
        a = rotl((a ^ word) * kMulA, 27) + b;
        b = rotl((b + word) * kMulB, 31) ^ a;
    }
    a ^= length_;
    b += length_;
    Digest d;
    d.hi = fmix(a + b);
    d.lo = fmix(b ^ rotl(a, 23));
    return d;
}

Digest
digestBytes(const void *data, std::size_t size, std::uint64_t seed)
{
    Hasher h(seed);
    h.update(data, size);
    return h.finish();
}

Digest
digestString(const std::string &text, std::uint64_t seed)
{
    return digestBytes(text.data(), text.size(), seed);
}

Digest
digestCvpTrace(const CvpTrace &trace)
{
    constexpr std::size_t kChunk = 16u << 10;
    std::uint8_t buf[kChunk + kMaxCvpRecordBytes];
    Hasher h;
    encodeCvpTrace(trace, buf, kChunk,
                   [&h](const std::uint8_t *data, std::size_t size) {
                       h.update(data, size);
                       return true;
                   });
    return h.finish();
}

Digest
digestChampSimTrace(ChampSimView trace)
{
    return digestBytes(trace.data(),
                       trace.size() * sizeof(ChampSimRecord));
}

} // namespace store
} // namespace trb
