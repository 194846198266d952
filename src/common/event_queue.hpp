/**
 * @file
 * Global discrete-event scheduler.
 *
 * All timed components (DRAM channels, NVM channels, cores, the DRAM
 * cache controller) share one EventQueue and schedule callbacks at
 * absolute cycle times.  Events at the same cycle run in scheduling
 * order (FIFO), which keeps runs deterministic.
 *
 * Internally the queue is a bucketed calendar (timing wheel): events
 * within kBuckets cycles of now() append O(1) to a per-cycle FIFO
 * list of arena-recycled nodes, and only far-future events (rare —
 * the DRAM/NVM timing constants are all far below the horizon) fall
 * back to a binary heap.  Callbacks are stored in an EventCallback
 * whose inline buffer fits every capture the simulator schedules, so
 * the common path performs no heap allocation at all.  Execution
 * order is IDENTICAL to the historical priority-queue implementation
 * — (when, schedule order) — which the refactor-equivalence gate
 * (byte-identical run reports) depends on.
 */

#ifndef ACCORD_COMMON_EVENT_QUEUE_HPP
#define ACCORD_COMMON_EVENT_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace accord
{

template <typename Sig, std::size_t Bytes>
class InlineFunction;

/**
 * Move-only type-erased callable with a small-buffer optimization:
 * captures of up to `Bytes` bytes (pointer-aligned, nothrow-movable)
 * live inline, so building, moving and calling one never allocates.
 * Larger captures still work; they transparently spill to the heap.
 * Each instance is sized so every capture the untraced simulator
 * builds fits.  Like std::function, a const call may run a mutable
 * callable.
 */
template <typename R, typename... Args, std::size_t Bytes>
class InlineFunction<R(Args...), Bytes>
{
  public:
    /** Inline capture capacity. */
    static constexpr std::size_t kInlineBytes = Bytes;

    InlineFunction() = default;

    InlineFunction(std::nullptr_t) {} // NOLINT(google-explicit-constructor)

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>
                  && !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    ACCORD_HOT ACCORD_HOT_ALLOW(
        "oversized captures spill to the heap by design; every capture "
        "the untraced simulator builds fits the inline buffer")
    InlineFunction(F &&fn) // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(storage_))
                Fn(std::forward<F>(fn));
            ops_ = &kInlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(storage_))
                Fn *(new Fn(std::forward<F>(fn)));
            ops_ = &kHeapOps<Fn>;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    ACCORD_HOT R
    operator()(Args... args) const
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    /** Destroy the held callable (no-op when empty). */
    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        R (*invoke)(void *storage, Args... args);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *storage);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes
            && alignof(Fn) <= alignof(void *)
            && std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static inline const Ops kInlineOps = {
        [](void *storage, Args... args) -> R {
            return (*static_cast<Fn *>(storage))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        [](void *storage) { static_cast<Fn *>(storage)->~Fn(); },
    };

    template <typename Fn>
    static inline const Ops kHeapOps = {
        [](void *storage, Args... args) -> R {
            return (**static_cast<Fn **>(storage))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            ::new (dst) Fn *(*static_cast<Fn **>(src));
        },
        [](void *storage) { delete *static_cast<Fn **>(storage); },
    };

    void
    moveFrom(InlineFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;

    /**
     * Pointer alignment, not max_align_t: a 16-byte alignment would
     * pad every instance and push captures that hold one (the DRAM
     * channel's completion event) past the inline size.
     */
    alignas(void *) mutable unsigned char storage_[kInlineBytes];
};

/**
 * Event-queue callback: the largest scheduled capture (a device
 * completion holding its MemCallback and a cycle) fits inline.
 */
using EventCallback = InlineFunction<void(), 56>;

/** Discrete-event queue in the CPU cycle domain. */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Cycle now() const { return now_; }

    /** Schedule a callback at an absolute cycle (>= now). */
    ACCORD_HOT void scheduleAt(Cycle when, Callback callback);

    /** Schedule a callback delay cycles from now. */
    ACCORD_HOT void scheduleAfter(Cycle delay, Callback callback)
    {
        scheduleAt(now_ + delay, std::move(callback));
    }

    /** True if no events remain. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return pending_; }

    /** Run a single event; returns false if the queue was empty. */
    ACCORD_HOT bool step();

    /**
     * Run events until the queue drains or the predicate returns true.
     * The predicate is checked between events.
     */
    template <typename Pred>
    void
    runUntil(Pred done)
    {
        while (!done() && step()) {
        }
    }

    /** Run all events to completion. */
    void
    run()
    {
        while (step()) {
        }
    }

    /** Total events executed (for perf sanity checks). */
    std::uint64_t executed() const { return executed_; }

    /**
     * High-water mark of simultaneously pending events over the
     * queue's lifetime.  A health gauge for telemetry heartbeats and
     * SystemMetrics: a runaway occupancy means a component is
     * scheduling faster than the run retires.
     */
    std::uint64_t occupancyPeak() const { return occupancy_peak_; }

    /**
     * Events that landed beyond the calendar horizon and spilled to
     * the overflow heap.  Expected to stay near zero (every DRAM/NVM
     * timing constant is far below kBuckets); growth signals a timing
     * model scheduling pathologically far ahead.
     */
    std::uint64_t overflowSpills() const { return overflow_spills_; }

    /** Calendar horizon: near events bucket, farther ones overflow. */
    static constexpr std::size_t kBuckets = 4096;

  private:
    static_assert((kBuckets & (kBuckets - 1)) == 0,
                  "bucket count must be a power of two");
    static constexpr Cycle kMask = kBuckets - 1;
    static constexpr std::size_t kChunkNodes = 256;

    /** One scheduled event; nodes are recycled through a freelist. */
    struct Node
    {
        Cycle when = 0;
        Node *next = nullptr;
        EventCallback cb;
    };

    /** FIFO list of one cycle's events. */
    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    /** Far-future event awaiting migration into the calendar. */
    struct Overflow
    {
        Cycle when;
        std::uint64_t seq;
        EventCallback cb;
    };

    /** Min-heap order on (when, schedule order). */
    struct OverflowLater
    {
        bool
        operator()(const Overflow &a, const Overflow &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Node *allocNode();
    void freeNode(Node *node);
    void appendBucketed(Node *node);

    /**
     * Advance now_ to the next pending cycle (current bucket empty)
     * and migrate newly in-horizon overflow events into the calendar.
     */
    void advance();

    /** Earliest bucketed cycle > now_ (requires bucketed_ > 0). */
    Cycle nextBucketedCycle() const;

    std::vector<Bucket> buckets_;

    /** One bit per bucket: set iff the bucket is non-empty. */
    std::vector<std::uint64_t> occupancy_;

    /** Binary heap (via std::push_heap) of beyond-horizon events. */
    std::vector<Overflow> overflow_;

    /** Node arena: chunks own storage, freelist links recycled nodes. */
    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *free_nodes_ = nullptr;

    std::size_t pending_ = 0;
    std::size_t bucketed_ = 0;
    Cycle now_ = 0;
    std::uint64_t overflow_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t occupancy_peak_ = 0;
    std::uint64_t overflow_spills_ = 0;
};

} // namespace accord

#endif // ACCORD_COMMON_EVENT_QUEUE_HPP
