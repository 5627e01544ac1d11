/**
 * @file
 * Aligned storage.  LineAlignedAllocator holds the simulator's hot
 * arrays (cache tags and replacement state, BTB ways, predictor tables
 * and history lanes): where such an array starts relative to a 64-byte
 * line would otherwise follow the heap's state at allocation time, so
 * identical model code could read a few percent faster or slower from
 * one build or run to the next; starting every array on a line boundary
 * pins it.  MappedAllocator holds long-lived buffers of megabytes in
 * pages of their own, outside the malloc heap.
 */

#ifndef TRB_COMMON_ALIGNED_HH
#define TRB_COMMON_ALIGNED_HH

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace trb
{

/** Host cache-line size every AlignedVector block starts on. */
constexpr std::size_t kHostLineBytes = 64;

/**
 * std::allocator, but every block starts on a kHostLineBytes boundary.
 * The block is cut from a plain allocation one line longer, with the
 * plain pointer stored just below the aligned one.  Aligned operator
 * new would go through glibc's memalign, which splits the slack off
 * into small free chunks; later small allocations fill them and pin the
 * large blocks freed around them, so whether a run's tables land on
 * mapped or on fresh pages would follow the heap's history.
 */
template <typename T>
struct LineAlignedAllocator
{
    using value_type = T;
    static_assert(alignof(T) <= kHostLineBytes);

    LineAlignedAllocator() = default;
    template <typename U>
    LineAlignedAllocator(const LineAlignedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        auto *plain = static_cast<std::byte *>(
            ::operator new(n * sizeof(T) + kHostLineBytes));
        const auto at = reinterpret_cast<std::uintptr_t>(plain);
        // operator new returns at least pointer alignment, so the line
        // boundary above it leaves room for the stored pointer.
        auto *aligned = plain + (kHostLineBytes - at % kHostLineBytes);
        reinterpret_cast<std::byte **>(aligned)[-1] = plain;
        return reinterpret_cast<T *>(aligned);
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(reinterpret_cast<std::byte **>(p)[-1]);
    }

    template <typename U>
    bool
    operator==(const LineAlignedAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A std::vector whose elements start on a host cache line. */
template <typename T>
using AlignedVector = std::vector<T, LineAlignedAllocator<T>>;

/**
 * Maps every block from the kernel (mmap/munmap), page-aligned and
 * outside the malloc heap.  For a buffer that outlives the work around
 * it: kept inside the heap, a block of megabytes stops glibc from
 * trimming the blocks freed below it, so whether later allocations land
 * on pages already mapped or on fresh ones would follow the heap's
 * history instead of the program.  Not for small or short-lived blocks:
 * each allocation is a system call.
 */
template <typename T>
struct MappedAllocator
{
    using value_type = T;

    MappedAllocator() = default;
    template <typename U>
    MappedAllocator(const MappedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        void *p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        ::munmap(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const MappedAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A std::vector whose storage is mapped outside the malloc heap. */
template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

} // namespace trb

#endif // TRB_COMMON_ALIGNED_HH
