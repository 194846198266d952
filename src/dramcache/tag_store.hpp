/**
 * @file
 * Functional tag array of the DRAM cache.
 *
 * In the modeled hardware the tags live in unused ECC bits next to the
 * data (KNL-style, Section II-A), so every tag check costs a DRAM line
 * transfer — the timing side charges those.  This class is the
 * simulator's functional mirror of that in-DRAM state.
 *
 * Like the hardware's tag-with-ECC word, each slot is one 64-bit word
 * holding the tag and its state, `tag << 2 | dirty << 1 | valid`, so a
 * way check is one load and one compare that ignores the dirty bit.
 * Tags must fit in 62 bits: a set-associative tag (line >> setBits)
 * always does once the cache has 4 sets, and install() rejects a wider
 * one (a column-associative line address at or above 2^62).
 *
 * The words live in one PagedColumn whose mode the table size picks:
 * dense for bench-scale runs, lazily-paged for gigascale ones, unless
 * a StateBackend forces one.  A never-written slot reads 0 (invalid)
 * in both modes, exactly like an invalidated one, so results are
 * byte-identical across them.
 */

#ifndef ACCORD_DRAMCACHE_TAG_STORE_HPP
#define ACCORD_DRAMCACHE_TAG_STORE_HPP

#include <cstdint>

#include "common/log.hpp"
#include "common/paged_table.hpp"
#include "core/way_policy.hpp"
#include "dramcache/enums.hpp"

namespace accord::dramcache
{

/** Tag/dirty/valid state of every line slot in the cache. */
class TagStore
{
  public:
    /** What install() displaced. */
    struct Victim
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
    };

    /** Widest tag a slot word holds. */
    static constexpr unsigned kTagBits = 62;

    explicit TagStore(const core::CacheGeometry &geom,
                      StateBackend backend = StateBackend::Auto);

    /** Way holding the tag in the set, or -1 if absent. */
    int findWay(std::uint64_t set, std::uint64_t tag) const;

    /** True when the way holds the tag, clean or dirty. */
    bool
    holds(std::uint64_t set, unsigned way, std::uint64_t tag) const
    {
        return matches(words.read(index(set, way)), probeKey(tag));
    }

    bool valid(std::uint64_t set, unsigned way) const
        { return (words.read(index(set, way)) & kValid) != 0; }
    bool dirty(std::uint64_t set, unsigned way) const
        { return (words.read(index(set, way)) & kDirty) != 0; }
    std::uint64_t tag(std::uint64_t set, unsigned way) const
        { return words.read(index(set, way)) >> kTagShift; }

    /**
     * Install a tag into a way, returning the displaced victim.
     * Fatal when the tag is wider than kTagBits.
     */
    Victim install(std::uint64_t set, unsigned way, std::uint64_t tag,
                   bool dirty);

    /** Mark a resident way dirty (writeback hit). */
    void markDirty(std::uint64_t set, unsigned way);

    /** Drop a way's line. */
    void invalidate(std::uint64_t set, unsigned way);

    /** Valid lines currently held (for tests/occupancy checks). */
    std::uint64_t occupancy() const;

    const core::CacheGeometry &geometry() const { return geom; }

    /** Storage mode the backend resolved to. */
    StorageMode storageMode() const { return words.mode(); }

    /** Host bytes currently backing the slot words. */
    std::uint64_t residentStateBytes() const
        { return words.residentBytes(); }

    /**
     * True unless every slot of the set is on a never-written page
     * (then all its ways read invalid).  Audit sweeps skip such sets.
     */
    bool
    setPossiblyOccupied(std::uint64_t set) const
    {
        const std::uint64_t first = set * geom.ways;
        return words.nextResidentSlot(first) < first + geom.ways;
    }

    /** Reconstruct the full line address stored in a way. */
    LineAddr
    lineAt(std::uint64_t set, unsigned way) const
    {
        return (tag(set, way) << geom.setBits()) | set;
    }

  private:
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;
    static constexpr unsigned kTagShift = 2;

    /**
     * The word a clean copy of `tag` is stored as.  A tag too wide
     * for the word gets a key with the dirty bit set, which no masked
     * word equals: such a tag is never resident.
     */
    static std::uint64_t
    probeKey(std::uint64_t tag)
    {
        return (tag << kTagShift) | kValid
            | ((tag >> kTagBits) != 0 ? kDirty : 0);
    }

    /** Whether a slot word holds the tag behind `key`. */
    static bool
    matches(std::uint64_t word, std::uint64_t key)
    {
        return (word & ~kDirty) == key;
    }

    std::uint64_t
    index(std::uint64_t set, unsigned way) const
    {
        ACCORD_CHECK(set < geom.sets && way < geom.ways,
                     "set %llu way %u outside %llu x %u geometry",
                     static_cast<unsigned long long>(set), way,
                     static_cast<unsigned long long>(geom.sets),
                     geom.ways);
        return set * geom.ways + way;
    }

    core::CacheGeometry geom;
    PagedColumn<std::uint64_t> words;
    std::uint64_t occupancy_ = 0;
};

} // namespace accord::dramcache

#endif // ACCORD_DRAMCACHE_TAG_STORE_HPP
