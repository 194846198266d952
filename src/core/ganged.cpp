#include "core/ganged.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/bits.hpp"
#include "common/invariant_auditor.hpp"
#include "common/log.hpp"
#include "common/metrics/registry.hpp"

namespace accord::core
{

RegionTable::RegionTable(unsigned entries)
{
    ACCORD_ASSERT(entries > 0 && entries <= kMaxEntries,
                  "region table of %u entries outside [1, %u]", entries,
                  kMaxEntries);
    // At most half the buckets are ever full, so every probe run ends
    // at an empty bucket.
    const std::uint64_t buckets = std::bit_ceil(2ULL * entries);
    mask_ = static_cast<std::uint32_t>(buckets - 1);
    shift_ = 64u - floorLog2(buckets);
    regions_.resize(entries);
    links_.resize(entries);
    ways_.resize(entries);
    index_.assign(static_cast<std::size_t>(buckets), kNone);
}

std::uint32_t
RegionTable::home(std::uint64_t region) const
{
    // Fibonacci hashing: the top bits of the product spread
    // consecutive region ids across the index.
    return static_cast<std::uint32_t>(
        (region * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::uint32_t
RegionTable::bucketOf(std::uint64_t region) const
{
    std::uint32_t bucket = home(region);
    while (index_[bucket] != kNone && regions_[index_[bucket]] != region)
        bucket = (bucket + 1) & mask_;
    return bucket;
}

void
RegionTable::eraseBucket(std::uint32_t bucket)
{
    // Backward-shift delete: pull later members of the probe run into
    // the hole unless their home lies cyclically in (hole, member].
    std::uint32_t hole = bucket;
    for (std::uint32_t next = (hole + 1) & mask_; index_[next] != kNone;
         next = (next + 1) & mask_) {
        const std::uint32_t want = home(regions_[index_[next]]);
        if (((next - want) & mask_) >= ((next - hole) & mask_)) {
            index_[hole] = index_[next];
            hole = next;
        }
    }
    index_[hole] = kNone;
}

void
RegionTable::unlink(std::uint32_t slot)
{
    const Link link = links_[slot];
    if (link.prev != kNone)
        links_[link.prev].next = link.next;
    else
        head_ = link.next;
    if (link.next != kNone)
        links_[link.next].prev = link.prev;
    else
        tail_ = link.prev;
}

void
RegionTable::pushFront(std::uint32_t slot)
{
    links_[slot] = {kNone, head_};
    if (head_ != kNone)
        links_[head_].prev = slot;
    else
        tail_ = slot;
    head_ = slot;
}

std::optional<unsigned>
RegionTable::lookup(std::uint64_t region)
{
    const std::uint32_t slot = index_[bucketOf(region)];
    if (slot == kNone)
        return std::nullopt;
    if (slot != head_) {
        unlink(slot);
        pushFront(slot);
    }
    return ways_[slot];
}

void
RegionTable::insert(std::uint64_t region, unsigned way)
{
    std::uint32_t bucket = bucketOf(region);
    std::uint32_t slot = index_[bucket];
    if (slot == kNone) {
        if (live_ < regions_.size()) {
            slot = live_++;
        } else {
            // Full: the least recently used slot takes the region.
            slot = tail_;
            unlink(slot);
            eraseBucket(bucketOf(regions_[slot]));
            bucket = bucketOf(region);
        }
        regions_[slot] = region;
        index_[bucket] = slot;
        pushFront(slot);
    } else if (slot != head_) {
        unlink(slot);
        pushFront(slot);
    }
    ways_[slot] = static_cast<std::uint8_t>(way);
}

std::uint64_t
RegionTable::residentStateBytes() const
{
    return regions_.size()
        * (sizeof(std::uint64_t) + sizeof(Link) + sizeof(std::uint8_t))
        + index_.size() * sizeof(std::uint32_t);
}

void
RegionTable::audit(InvariantAuditor &auditor, const char *label,
                   unsigned maxWays, unsigned maxEntries) const
{
    if (regions_.size() > maxEntries) {
        auditor.fail("gws-table-bound",
                     "%s holds %llu slots, configured bound is %u",
                     label,
                     static_cast<unsigned long long>(regions_.size()),
                     maxEntries);
    }

    // Recency list: walking from the MRU end must visit every live
    // slot exactly once, with each prev link naming its predecessor.
    std::vector<bool> seen(live_, false);
    std::uint32_t count = 0;
    std::uint32_t prev = kNone;
    for (std::uint32_t slot = head_; slot != kNone;
         slot = links_[slot].next) {
        if (slot >= live_ || seen[slot] || links_[slot].prev != prev) {
            auditor.fail("gws-lru-list",
                         "%s slot %u: bad recency link (after slot %u, "
                         "%u live)",
                         label, slot, prev, live_);
            return;
        }
        seen[slot] = true;
        ++count;
        prev = slot;
    }
    if (count != live_ || tail_ != prev) {
        auditor.fail("gws-lru-list",
                     "%s recency list links %u of %u live slots",
                     label, count, live_);
    }

    std::vector<std::pair<std::uint64_t, std::uint32_t>> regions;
    for (std::uint32_t slot = 0; slot < live_; ++slot) {
        if (ways_[slot] >= maxWays) {
            auditor.fail("gws-way-range",
                         "%s slot %u: way %u out of range (ways=%u)",
                         label, slot, ways_[slot], maxWays);
        }
        if (index_[bucketOf(regions_[slot])] != slot) {
            auditor.fail("gws-index",
                         "%s slot %u: region %llx not indexed to it",
                         label, slot,
                         static_cast<unsigned long long>(regions_[slot]));
        }
        regions.emplace_back(regions_[slot], slot);
    }
    std::uint32_t indexed = 0;
    for (const std::uint32_t slot : index_)
        indexed += slot != kNone ? 1 : 0;
    if (indexed != live_) {
        auditor.fail("gws-index",
                     "%s index holds %u entries for %u live slots",
                     label, indexed, live_);
    }

    std::sort(regions.begin(), regions.end());
    for (std::size_t i = 1; i < regions.size(); ++i) {
        if (regions[i].first == regions[i - 1].first) {
            auditor.fail("gws-dup-region",
                         "%s slots %u and %u both map region %llx",
                         label, regions[i - 1].second,
                         regions[i].second,
                         static_cast<unsigned long long>(
                             regions[i].first));
        }
    }
}

GangedPolicy::GangedPolicy(std::unique_ptr<WayPolicy> base,
                           const GangedParams &params)
    : WayPolicy(base->geometry()), base_(std::move(base)), params(params),
      rit(params.ritEntries), rlt(params.rltEntries)
{
    // Lines of one 4KB region must share their tag so the ganged way is
    // always inside the base policy's candidate set; this holds as long
    // as the set index covers the in-region line bits.
    ACCORD_ASSERT(geom_.setBits() >= regionShift - lineShift,
                  "GWS requires at least 64 sets");
}

unsigned
GangedPolicy::predict(const LineRef &ref)
{
    ++predictions;
    if (const auto way = rlt.lookup(regionOf(ref.line))) {
        ++rlt_hits;
        return *way;
    }
    return base_->predict(ref);
}

unsigned
GangedPolicy::install(const LineRef &ref)
{
    const std::uint64_t region = regionOf(ref.line);
    if (const auto way = rit.lookup(region))
        return *way;
    const unsigned way = base_->install(ref);
    rit.insert(region, way);
    return way;
}

std::uint64_t
GangedPolicy::candidates(const LineRef &ref) const
{
    return base_->candidates(ref);
}

void
GangedPolicy::onHit(const LineRef &ref, unsigned way)
{
    ACCORD_ASSERT(way < geom_.ways, "onHit way %u out of range", way);
    rlt.insert(regionOf(ref.line), way);
    base_->onHit(ref, way);
}

void
GangedPolicy::onMiss(const LineRef &ref)
{
    base_->onMiss(ref);
}

void
GangedPolicy::onInstall(const LineRef &ref, unsigned way)
{
    ACCORD_ASSERT(way < geom_.ways, "onInstall way %u out of range",
                  way);
    rlt.insert(regionOf(ref.line), way);
    base_->onInstall(ref, way);
}

std::uint64_t
GangedPolicy::storageBits() const
{
    const unsigned way_bits =
        geom_.ways > 1 ? floorLog2(geom_.ways) : 1;
    const std::uint64_t per_entry =
        params.regionTagBits + 1 /* valid */ + way_bits;
    return (params.ritEntries + params.rltEntries) * per_entry
        + base_->storageBits();
}

std::uint64_t
GangedPolicy::residentStateBytes() const
{
    return rit.residentStateBytes() + rlt.residentStateBytes()
        + base_->residentStateBytes();
}

std::string
GangedPolicy::name() const
{
    const std::string inner = base_->name();
    return inner == "rand" ? "gws" : inner + "+gws";
}

void
GangedPolicy::audit(InvariantAuditor &auditor) const
{
    rit.audit(auditor, "rit", geom_.ways, params.ritEntries);
    rlt.audit(auditor, "rlt", geom_.ways, params.rltEntries);
    if (rlt_hits > predictions) {
        auditor.fail("gws-coverage",
                     "rlt hits %llu exceed predictions %llu",
                     static_cast<unsigned long long>(rlt_hits),
                     static_cast<unsigned long long>(predictions));
    }
    base_->audit(auditor);
}

double
GangedPolicy::rltCoverage() const
{
    return predictions == 0
        ? 0.0
        : static_cast<double>(rlt_hits)
            / static_cast<double>(predictions);
}

void
GangedPolicy::registerMetrics(MetricRegistry &registry,
                              const std::string &prefix) const
{
    registry.addValue(MetricRegistry::join(prefix, "rlt_hits"),
                      rlt_hits);
    registry.addValue(MetricRegistry::join(prefix, "predictions"),
                      predictions);
    registry.addGauge(MetricRegistry::join(prefix, "rlt_coverage"),
                      [this] { return rltCoverage(); });
    base_->registerMetrics(registry,
                           MetricRegistry::join(prefix, "base"));
}

} // namespace accord::core
