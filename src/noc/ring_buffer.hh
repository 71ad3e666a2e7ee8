/**
 * @file
 * Power-of-two ring buffers for the NoC hot path.
 *
 * Every FIFO the flit path touches per hop -- link delay lines, VC
 * buffers, the NI inject queues, the generator queue -- used to be a
 * std::deque, as did the directory request queue and the L1's
 * deferred-forward queue. A deque allocates its map and chunk nodes lazily, chases
 * a double indirection on front()/back(), and its elements straddle
 * cache lines; on the hot path that cost shows up on every hop of
 * every flit. RingBuffer stores elements in one flat pow2 array with
 * head/size counters, so push/pop are an index mask and a move, and a
 * warm buffer performs zero heap allocation in steady state.
 *
 * The initial capacity lives inline in the object, so building a
 * buffer (one per link pipe, NI vnet queue, router generator queue,
 * directory and L1) touches no heap at all. Growth past it spills to a heap array and
 * from then on doubles the capacity (preserving FIFO order), so a cold
 * buffer warms up once and then never allocates again. Determinism:
 * growth depends only on occupancy, never on host state.
 */

#ifndef INPG_NOC_RING_BUFFER_HH
#define INPG_NOC_RING_BUFFER_HH

#include <array>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace inpg {

/**
 * Growable FIFO over a flat pow2 array.
 *
 * @tparam T          element type (move-constructible)
 * @tparam InitialCap initial capacity; must be a power of two so the
 *                    wrap is an AND instead of a modulo.
 */
template <typename T, std::size_t InitialCap = 8>
class RingBuffer
{
    static_assert(InitialCap > 0 && (InitialCap & (InitialCap - 1)) == 0,
                  "ring-buffer capacity must be a power of two");

  public:
    RingBuffer() = default;

    /** Moves the elements (inline) or steals the heap array (spilled). */
    RingBuffer(RingBuffer &&other) noexcept { take(other); }

    RingBuffer &
    operator=(RingBuffer &&other) noexcept
    {
        if (this != &other) {
            clear();
            take(other);
        }
        return *this;
    }

    RingBuffer(const RingBuffer &) = delete;
    RingBuffer &operator=(const RingBuffer &) = delete;

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return mask + 1; }

    T &
    front()
    {
        INPG_ASSERT(count > 0, "front() on empty ring buffer");
        return data[head];
    }

    const T &
    front() const
    {
        INPG_ASSERT(count > 0, "front() on empty ring buffer");
        return data[head];
    }

    /** The i-th element from the front (0 == front()). */
    T &
    operator[](std::size_t i)
    {
        INPG_ASSERT(i < count, "ring buffer index %zu of %zu", i, count);
        return data[(head + i) & mask];
    }

    const T &
    operator[](std::size_t i) const
    {
        INPG_ASSERT(i < count, "ring buffer index %zu of %zu", i, count);
        return data[(head + i) & mask];
    }

    void
    push_back(T value)
    {
        if (count == capacity())
            grow();
        data[(head + count) & mask] = std::move(value);
        ++count;
    }

    /** Pop and return the oldest element. */
    T
    pop_front()
    {
        INPG_ASSERT(count > 0, "pop_front() on empty ring buffer");
        T out = std::move(data[head]);
        head = (head + 1) & mask;
        --count;
        return out;
    }

    void
    clear()
    {
        while (count > 0) {
            data[head] = T();
            head = (head + 1) & mask;
            --count;
        }
        head = 0;
    }

  private:
    void
    grow()
    {
        const std::size_t cap = capacity();
        auto bigger = std::make_unique<T[]>(cap * 2);
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move(data[(head + i) & mask]);
        spill = std::move(bigger);
        data = spill.get();
        mask = cap * 2 - 1;
        head = 0;
    }

    /** Adopt `other`'s contents (ours are empty) and leave it empty. */
    void
    take(RingBuffer &other)
    {
        if (other.spill) {
            spill = std::move(other.spill);
            data = spill.get();
        } else {
            spill.reset();
            for (std::size_t i = 0; i < InitialCap; ++i)
                local[i] = std::move(other.local[i]);
            data = local.data();
        }
        mask = other.mask;
        head = other.head;
        count = other.count;
        other.data = other.local.data();
        other.mask = InitialCap - 1;
        other.head = 0;
        other.count = 0;
    }

    /** Inline storage, used until the first growth. */
    std::array<T, InitialCap> local{};
    /** Heap storage after growth; null while inline. */
    std::unique_ptr<T[]> spill;
    /** Current storage: local or spill. */
    T *data = local.data();
    std::size_t mask = InitialCap - 1;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace inpg

#endif // INPG_NOC_RING_BUFFER_HH
