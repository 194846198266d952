/**
 * @file
 * Paged struct-of-arrays storage layer for per-set cache state.
 *
 * Every large per-set structure in the simulator (tag store, MRU
 * table, partial tags, LRU stamps) is a flat array indexed by slot.
 * At 1/128 bench scale a dense vector is ideal; at full gigascale
 * (4GB cache = 64M lines) eager dense allocation costs gigabytes of
 * host RSS before the first access retires.  This layer makes the
 * representation pluggable:
 *
 *  - Dense: one eagerly allocated vector, zero indirection.
 *  - Paged: fixed-size pages materialized on first write; reads of
 *    never-written slots return the fill value without allocating.
 *
 * Both modes expose identical semantics — a slot reads as the fill
 * value until written — so simulation results are byte-identical
 * across them (StorageEquivalence in tests/test_paged_table.cpp runs
 * the fig01, fig07, fig12 and ablation configurations both ways).
 * Table size picks the mode (autoStorageMode);
 * SystemConfig::stateBackend forces one for tests and
 * bench_throughput's paged mode.  Resident-page/byte accounting feeds
 * the footprint gauges in SystemMetrics and telemetry heartbeats.
 *
 * Purity contract: read() is the ACCORD_HOT unchecked fast path and
 * never allocates.  materializeSlot()/ensurePage() are the only
 * allocation seams; the analyzer's hot-paged-materialize rule bans
 * them from ACCORD_HOT functions so page materialization can never
 * silently land on the timed read path.
 */

#ifndef ACCORD_COMMON_PAGED_TABLE_HPP
#define ACCORD_COMMON_PAGED_TABLE_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace accord
{

/** Storage policy of a PagedColumn. */
enum class StorageMode : std::uint8_t
{
    Dense,  ///< one eager allocation, no page indirection
    Paged,  ///< fixed-size pages materialized on first write
};

/**
 * Slot-count threshold above which autoStorageMode() picks Paged.
 * 4M slots keeps every 1/128-scale bench dense (32MB cache = 512K
 * lines) while full-scale 4GB runs (64M lines) go paged.
 */
inline constexpr std::uint64_t pagedStorageThreshold = 1ULL << 22;

/** Resolve the backend for a table of `slots` entries. */
constexpr StorageMode
autoStorageMode(std::uint64_t slots)
{
    return slots >= pagedStorageThreshold ? StorageMode::Paged
                                          : StorageMode::Dense;
}

/**
 * One column of a struct-of-arrays table: a flat array of `T` indexed
 * by slot, stored dense or in lazily-materialized fixed-size pages.
 * Unwritten slots read as the fill value in both modes.
 */
template <typename T> class PagedColumn
{
  public:
    /** Slots per page (power of two so page math is shifts). */
    static constexpr std::uint64_t kPageSlots = 4096;

    PagedColumn() = default;

    PagedColumn(std::uint64_t slots, StorageMode mode, T fill = T{})
    {
        reset(slots, mode, fill);
    }

    /** Drop all state and reshape the column. */
    void
    reset(std::uint64_t slots, StorageMode mode, T fill = T{})
    {
        slots_ = slots;
        mode_ = mode;
        fill_ = fill;
        dense_.clear();
        pages_.clear();
        resident_pages_ = 0;
        if (mode_ == StorageMode::Dense) {
            // Value-initialization compiles to a memset; a fill loop
            // ran up to twice as slow depending on where the linker
            // placed it, a fifth of a timed run's setup time.
            dense_.resize(static_cast<std::size_t>(slots_));
            if (fill_ != T{})
                std::fill(dense_.begin(), dense_.end(), fill_);
        } else {
            pages_.resize(static_cast<std::size_t>(
                (slots_ + kPageSlots - 1) / kPageSlots));
        }
    }

    /**
     * Unchecked fast-path read (bounds validated only when checks are
     * compiled in).  Never allocates: a non-resident page reads as the
     * fill value.
     */
    ACCORD_HOT T
    read(std::uint64_t slot) const
    {
        ACCORD_CHECK(slot < slots_, "slot %llu outside column of %llu",
                     static_cast<unsigned long long>(slot),
                     static_cast<unsigned long long>(slots_));
        if (mode_ == StorageMode::Dense)
            return dense_[static_cast<std::size_t>(slot)];
        const T *page =
            pages_[static_cast<std::size_t>(slot / kPageSlots)].get();
        return page ? page[slot % kPageSlots] : fill_;
    }

    /** Always-checked read for tests and audits. */
    T
    at(std::uint64_t slot) const
    {
        ACCORD_ASSERT(slot < slots_, "slot %llu outside column of %llu",
                      static_cast<unsigned long long>(slot),
                      static_cast<unsigned long long>(slots_));
        return read(slot);
    }

    /**
     * Mutable slot access, materializing its page if needed.  This is
     * the allocation seam: never call from ACCORD_HOT code without a
     * hot-paged-materialize allow (see tools/accord_analyzer).
     */
    T &
    materializeSlot(std::uint64_t slot)
    {
        ACCORD_CHECK(slot < slots_, "slot %llu outside column of %llu",
                     static_cast<unsigned long long>(slot),
                     static_cast<unsigned long long>(slots_));
        if (mode_ == StorageMode::Dense)
            return dense_[static_cast<std::size_t>(slot)];
        return ensurePage(slot / kPageSlots)[slot % kPageSlots];
    }

    /** Write a slot, materializing its page if needed. */
    void
    write(std::uint64_t slot, T value)
    {
        materializeSlot(slot) = value;
    }

    std::uint64_t size() const { return slots_; }
    StorageMode mode() const { return mode_; }
    T fill() const { return fill_; }

    /** Page index covering a slot. */
    static std::uint64_t pageOf(std::uint64_t slot)
    {
        return slot / kPageSlots;
    }

    /** Pages the column spans (dense mode reports one logical page). */
    std::uint64_t
    pageCount() const
    {
        return mode_ == StorageMode::Dense
            ? (slots_ ? 1 : 0)
            : pages_.size();
    }

    /** True when reads of the page can differ from the fill value. */
    bool
    pageResident(std::uint64_t page) const
    {
        if (mode_ == StorageMode::Dense)
            return slots_ != 0;
        return pages_[static_cast<std::size_t>(page)] != nullptr;
    }

    /**
     * First slot >= `slot` whose page is resident, or size().  Audit
     * sweeps use this to skip whole never-written pages (their slots
     * all read as the fill value, which violates no invariant).
     */
    std::uint64_t
    nextResidentSlot(std::uint64_t slot) const
    {
        if (mode_ == StorageMode::Dense)
            return slot;
        while (slot < slots_
               && pages_[static_cast<std::size_t>(pageOf(slot))]
                   == nullptr)
            slot = (pageOf(slot) + 1) * kPageSlots;
        return slot < slots_ ? slot : slots_;
    }

    /** Materialized pages (dense counts its single allocation). */
    std::uint64_t
    residentPages() const
    {
        return mode_ == StorageMode::Dense ? pageCount()
                                           : resident_pages_;
    }

    /** Host bytes currently backing slot storage. */
    std::uint64_t
    residentBytes() const
    {
        if (mode_ == StorageMode::Dense)
            return slots_ * sizeof(T);
        return resident_pages_ * kPageSlots * sizeof(T);
    }

  private:
    /** Materialize and return a page (the allocation seam). */
    T *
    ensurePage(std::uint64_t page)
    {
        auto &slot = pages_[static_cast<std::size_t>(page)];
        if (!slot) {
            slot = std::make_unique<T[]>(kPageSlots);
            for (std::uint64_t i = 0; i < kPageSlots; ++i)
                slot[i] = fill_;
            ++resident_pages_;
        }
        return slot.get();
    }

    std::uint64_t slots_ = 0;
    StorageMode mode_ = StorageMode::Dense;
    T fill_ = T{};
    std::vector<T> dense_;
    std::vector<std::unique_ptr<T[]>> pages_;
    std::uint64_t resident_pages_ = 0;
};

} // namespace accord

#endif // ACCORD_COMMON_PAGED_TABLE_HPP
