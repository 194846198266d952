/** @file Shared fixture helpers for DRAM-cache controller tests. */

#ifndef ACCORD_TESTS_CONTROLLER_FIXTURE_HPP
#define ACCORD_TESTS_CONTROLLER_FIXTURE_HPP

#include <memory>

#include "common/event_queue.hpp"
#include "core/factory.hpp"
#include "dramcache/controller.hpp"
#include "nvm/nvm_system.hpp"

namespace accord::test
{

/** A small DRAM cache + NVM pair wired to one event queue. */
struct MiniSystem
{
    EventQueue eq;
    nvm::NvmSystem nvm{eq};
    std::unique_ptr<dramcache::DramCacheController> cache;

    MiniSystem(unsigned ways, dramcache::LookupMode lookup,
               const std::string &policy_spec,
               std::uint64_t capacity = 1ULL << 20,
               dramcache::Organization org =
                   dramcache::Organization::SetAssoc,
               bool dcp_way_bits = true)
        : MiniSystem(
              [&] {
                  dramcache::DramCacheParams params;
                  params.capacityBytes = capacity;
                  params.ways = ways;
                  params.org = org;
                  params.lookup = lookup;
                  params.dcpWayBits = dcp_way_bits;
                  params.seed = 99;
                  return params;
              }(),
              policy_spec)
    {
    }

    /** Full-params overload (replacement, audit settings). */
    MiniSystem(const dramcache::DramCacheParams &params,
               const std::string &policy_spec)
    {
        std::unique_ptr<core::WayPolicy> policy;
        if (!policy_spec.empty()) {
            core::CacheGeometry geom;
            geom.ways = params.ways;
            geom.sets = params.capacityBytes / lineSize / params.ways;
            core::PolicyOptions opts;
            opts.seed = 4242;
            policy = core::makePolicy(policy_spec, geom, opts);
        }
        cache = std::make_unique<dramcache::DramCacheController>(
            params, std::move(policy), dram::hbmCacheTiming(), eq,
            nvm);
    }

    dramcache::DramCacheController &operator*() { return *cache; }
    dramcache::DramCacheController *operator->()
    {
        return cache.get();
    }

    /** Line address mapping to a chosen set with a chosen tag. */
    LineAddr
    lineFor(std::uint64_t set, std::uint64_t tag) const
    {
        return (tag << cache->geometry().setBits()) | set;
    }

    /** Timed read that runs the queue to completion. */
    bool
    readBlocking(LineAddr line)
    {
        bool hit = false;
        bool done = false;
        cache->read(line, [&](bool was_hit, Cycle) {
            hit = was_hit;
            done = true;
        });
        eq.runUntil([&] { return done; });
        return hit;
    }
};

} // namespace accord::test

#endif // ACCORD_TESTS_CONTROLLER_FIXTURE_HPP
