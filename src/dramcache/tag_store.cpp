#include "dramcache/tag_store.hpp"

#include "common/log.hpp"

namespace accord::dramcache
{

TagStore::TagStore(const core::CacheGeometry &geom, StateBackend backend)
    : geom(geom)
{
    words.reset(geom.lines(), resolveStorageMode(backend, geom.lines()),
                0);
}

int
TagStore::findWay(std::uint64_t set, std::uint64_t tag) const
{
    const std::uint64_t key = probeKey(tag);
    const std::uint64_t first = index(set, 0);
    for (unsigned way = 0; way < geom.ways; ++way) {
        if (matches(words.read(first + way), key))
            return static_cast<int>(way);
    }
    return -1;
}

TagStore::Victim
TagStore::install(std::uint64_t set, unsigned way, std::uint64_t tag,
                  bool dirty)
{
    ACCORD_ASSERT(way < geom.ways, "install way out of range");
    if ((tag >> kTagBits) != 0) {
        fatal("tag store: tag %llx for set %llu does not fit the "
              "%u-bit tag field",
              static_cast<unsigned long long>(tag),
              static_cast<unsigned long long>(set), kTagBits);
    }
    const std::uint64_t i = index(set, way);

    // Materializes the slot's page on the first install into it —
    // one allocation per page lifetime, amortized over the fills that
    // land there, never on the read path.
    std::uint64_t &word = words.materializeSlot(i);

    Victim victim;
    if (word & kValid) {
        victim.valid = true;
        victim.dirty = (word & kDirty) != 0;
        victim.tag = word >> kTagShift;
    } else {
        ++occupancy_;
    }

    word = (tag << kTagShift) | (dirty ? kDirty : 0) | kValid;
    return victim;
}

void
TagStore::markDirty(std::uint64_t set, unsigned way)
{
    std::uint64_t &word = words.materializeSlot(index(set, way));
    ACCORD_ASSERT(word & kValid, "markDirty on invalid way");
    word |= kDirty;
}

void
TagStore::invalidate(std::uint64_t set, unsigned way)
{
    const std::uint64_t i = index(set, way);
    const std::uint64_t word = words.read(i);
    // A never-written slot is already invalid; leave its page cold.
    if (word == 0)
        return;
    if (word & kValid)
        --occupancy_;
    words.write(i, 0);
}

std::uint64_t
TagStore::occupancy() const
{
    return occupancy_;
}

} // namespace accord::dramcache
