/** @file Timed-path tests of the DRAM-cache controller. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "controller_fixture.hpp"

using namespace accord;
using namespace accord::test;
using dramcache::LookupMode;
using dramcache::Organization;

TEST(TimedDm, MissThenHit)
{
    MiniSystem sys(1, LookupMode::Serial, "");
    EXPECT_FALSE(sys.readBlocking(1000));
    EXPECT_TRUE(sys.readBlocking(1000));
}

TEST(TimedDm, HitFasterThanMiss)
{
    MiniSystem sys(1, LookupMode::Serial, "");
    sys.readBlocking(1000);
    sys.eq.run();
    sys->resetStats();
    sys.readBlocking(2000);     // miss (new line)
    sys.readBlocking(1000);     // hit
    const auto &s = sys->stats();
    EXPECT_EQ(s.readHits.hits(), 1u);
    EXPECT_EQ(s.readHits.misses(), 1u);
    EXPECT_LT(s.readHitLatency.mean(), s.readMissLatency.mean());
}

TEST(TimedDm, MissLatencyIncludesNvm)
{
    MiniSystem sys(1, LookupMode::Serial, "");
    sys.readBlocking(5);
    // Probe (HBM round trip) + NVM array read; must exceed the NVM
    // unloaded latency alone.
    const auto &nvm_params = sys.nvm.params();
    EXPECT_GT(sys->stats().readMissLatency.mean(),
              static_cast<double>(nvm_params.tRcd));
}

TEST(Timed2Way, PredictedHitTakesOneProbe)
{
    MiniSystem sys(2, LookupMode::Predicted, "perfect");
    sys.readBlocking(42);
    sys.eq.run();
    sys->resetStats();
    EXPECT_TRUE(sys.readBlocking(42));
    EXPECT_EQ(sys->stats().cacheReadTransfers.value(), 1u);
    EXPECT_DOUBLE_EQ(sys->stats().wayPrediction.rate(), 1.0);
}

TEST(Timed2Way, MispredictedHitTakesTwoProbesAndLonger)
{
    // Force mispredictions: policy predicts the preferred way, but we
    // keep re-installing lines until one lands in the other way.
    MiniSystem sys(2, LookupMode::Predicted, "pws");
    Rng rng(3);
    for (int i = 0; i < 3000; ++i)
        sys->warmRead(rng.below(2048));
    sys.eq.run();
    sys->resetStats();
    for (int i = 0; i < 3000; ++i)
        sys.readBlocking(rng.below(2048));
    const auto &s = sys->stats();
    EXPECT_GT(s.readHits.hits(), 0u);
    EXPECT_LT(s.wayPrediction.rate(), 1.0);
    EXPECT_GT(s.wayPrediction.rate(), 0.6);
}

TEST(TimedParallel, CompletesHitsAndMisses)
{
    MiniSystem sys(4, LookupMode::Parallel, "");
    EXPECT_FALSE(sys.readBlocking(9));
    EXPECT_TRUE(sys.readBlocking(9));
    EXPECT_EQ(sys->stats().readHits.total(), 2u);
    // 4 probes per access.
    EXPECT_EQ(sys->stats().cacheReadTransfers.value(), 8u);
}

TEST(TimedParallel, ReadIssuedFromCompletionWaitsForItsOwnProbes)
{
    // Eight chains of reads, each issuing its next read from the
    // completion of the last (as cores do), while the broadside probes
    // behind earlier hits are still arriving.  Those arrivals belong to
    // reads already finished: no read may complete sooner than one
    // probe's column access and burst.
    MiniSystem sys(4, LookupMode::Parallel, "");
    std::vector<LineAddr> lines;
    for (std::uint64_t tag = 1; tag <= 4; ++tag) {
        for (std::uint64_t set = 0; set < 8; ++set)
            lines.push_back(sys.lineFor(set, tag));
    }
    for (const LineAddr line : lines)
        sys.readBlocking(line);
    sys.eq.run();

    std::size_t issued = 0;
    Cycle fastest = invalidCycle;
    std::function<void()> issue = [&] {
        const Cycle start = sys.eq.now();
        sys->read(lines[(issued++ * 5) % lines.size()],
                  [&, start](bool, Cycle when) {
            fastest = std::min(fastest, when - start);
            if (issued < 800)
                issue();
        });
    };
    for (int chain = 0; chain < 8; ++chain)
        issue();
    sys.eq.run();
    EXPECT_EQ(issued, 800u);
    EXPECT_GT(sys->stats().readHits.hits(), 600u);
    const auto &timing = sys->hbm().params();
    EXPECT_GE(fastest, timing.tCas + timing.tBurst);
}

TEST(TimedIdeal, SingleTransferEachWay)
{
    MiniSystem sys(4, LookupMode::Ideal, "");
    EXPECT_FALSE(sys.readBlocking(9));
    EXPECT_TRUE(sys.readBlocking(9));
    EXPECT_EQ(sys->stats().cacheReadTransfers.value(), 2u);
}

TEST(TimedSerial, SecondWayHitSlowerThanFirst)
{
    MiniSystem sys(2, LookupMode::Serial, "");
    // Install a line and find which way it landed in; compare hit
    // latency for way-0 vs way-1 residents.
    Rng rng(11);
    std::vector<LineAddr> way0, way1;
    for (int i = 0; i < 2000 && (way0.empty() || way1.empty()); ++i) {
        const LineAddr line = 100000 + i;
        sys->warmRead(line);
        const auto ref = core::LineRef::make(line, sys->geometry());
        const int way =
            sys->tagStore().findWay(ref.set, ref.tag);
        if (way == 0)
            way0.push_back(line);
        else if (way == 1)
            way1.push_back(line);
    }
    ASSERT_FALSE(way0.empty());
    ASSERT_FALSE(way1.empty());

    sys->resetStats();
    sys.readBlocking(way0.front());
    const double lat0 = sys->stats().readHitLatency.mean();
    sys->resetStats();
    sys.readBlocking(way1.front());
    const double lat1 = sys->stats().readHitLatency.mean();
    EXPECT_GT(lat1, lat0);
}

TEST(TimedWriteback, DcpHitWritesCache)
{
    MiniSystem sys(2, LookupMode::Predicted, "pws+gws");
    sys.readBlocking(777);
    sys->writeback(777);
    sys.eq.run();
    EXPECT_EQ(sys->stats().writebacksToCache.value(), 1u);
    EXPECT_TRUE(sys->quiesced());
}

TEST(TimedWriteback, AbsentGoesToNvmDevice)
{
    MiniSystem sys(2, LookupMode::Predicted, "pws+gws");
    sys->writeback(777);
    sys.eq.run();
    EXPECT_EQ(sys.nvm.writes(), 1u);
}

TEST(TimedFill, DirtyVictimReachesNvmDevice)
{
    MiniSystem sys(1, LookupMode::Serial, "");
    const LineAddr a = sys.lineFor(5, 1);
    const LineAddr b = sys.lineFor(5, 2);
    sys.readBlocking(a);
    sys->writeback(a);
    sys.eq.run();
    sys.readBlocking(b);    // evicts dirty a
    sys.eq.run();
    EXPECT_EQ(sys.nvm.writes(), 1u);
}

TEST(TimedConcurrency, OverlappingSameLineMissesDoNotDuplicate)
{
    MiniSystem sys(2, LookupMode::Predicted, "pws");
    int done = 0;
    // Two reads of the same absent line issued back to back.
    sys->read(4242, [&](bool, Cycle) { ++done; });
    sys->read(4242, [&](bool, Cycle) { ++done; });
    sys.eq.run();
    EXPECT_EQ(done, 2);
    // Exactly one copy resident.
    const auto ref = core::LineRef::make(4242, sys->geometry());
    int copies = 0;
    for (unsigned way = 0; way < 2; ++way) {
        if (sys->tagStore().valid(ref.set, way)
            && sys->tagStore().tag(ref.set, way) == ref.tag)
            ++copies;
    }
    EXPECT_EQ(copies, 1);
    // The second fill's in-place write is a counted transfer too.
    const auto hbm = sys->hbm().aggregateStats();
    EXPECT_EQ(hbm.readsServed + hbm.writesServed,
              sys->stats().cacheReadTransfers.value()
                  + sys->stats().cacheWriteTransfers.value());
}

TEST(TimedConcurrency, ManyOutstandingReadsComplete)
{
    MiniSystem sys(2, LookupMode::Predicted, "pws+gws");
    Rng rng(13);
    int done = 0;
    for (int i = 0; i < 500; ++i)
        sys->read(rng.below(1 << 14), [&](bool, Cycle) { ++done; });
    sys.eq.run();
    EXPECT_EQ(done, 500);
    EXPECT_TRUE(sys->quiesced());
}

TEST(TimedCa, ReadsAndSwapsComplete)
{
    MiniSystem sys(1, LookupMode::Serial, "", 1ULL << 20,
                   Organization::ColumnAssoc);
    const std::uint64_t slots = sys->geometry().sets;
    const LineAddr a = 5;
    const LineAddr b = 5 + slots;
    EXPECT_FALSE(sys.readBlocking(a));
    EXPECT_FALSE(sys.readBlocking(b));
    sys.eq.run();
    EXPECT_TRUE(sys.readBlocking(a));   // secondary hit + swap
    sys.eq.run();
    EXPECT_EQ(sys->stats().swaps.value(), 1u);
    EXPECT_TRUE(sys.readBlocking(a));   // now a primary hit
}

TEST(TimedCa, OverlappingSameLineMissesDoNotDuplicate)
{
    MiniSystem sys(1, LookupMode::Serial, "", 1ULL << 20,
                   Organization::ColumnAssoc);
    int done = 0;
    // Both reads miss before either fill lands; the second fill must
    // not relocate the first copy into the pair slot.
    sys->read(4242, [&](bool, Cycle) { ++done; });
    sys->read(4242, [&](bool, Cycle) { ++done; });
    sys.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(sys->tagStore().occupancy(), 1u);
    const auto hbm = sys->hbm().aggregateStats();
    EXPECT_EQ(hbm.readsServed + hbm.writesServed,
              sys->stats().cacheReadTransfers.value()
                  + sys->stats().cacheWriteTransfers.value());
}

TEST(TimedTeardown, ControllerDestroyedWithReadsInFlight)
{
    // MiniSystem declares its queue first, so the queue dies after
    // the controller.  The events still queued hold raw transaction
    // pointers and must be destroyed without touching them; the ASan
    // leg checks that nothing leaks or is read after free.
    int done = 0;
    {
        MiniSystem sys(4, LookupMode::Parallel, "");
        for (LineAddr line = 0; line < 64; ++line)
            sys->read(line * 7, [&done](bool, Cycle) { ++done; });
        for (int i = 0; i < 20; ++i)
            sys.eq.step();
        EXPECT_FALSE(sys->quiesced());
        EXPECT_GT(sys.eq.size(), 0u);
    }
    EXPECT_LT(done, 64);
}

TEST(TimedDeterminism, SameSeedSameTimeline)
{
    auto run = [] {
        MiniSystem sys(2, LookupMode::Predicted, "pws+gws");
        Rng rng(17);
        Cycle last = 0;
        int remaining = 300;
        for (int i = 0; i < 300; ++i) {
            sys->read(rng.below(1 << 12), [&](bool, Cycle when) {
                last = std::max(last, when);
                --remaining;
            });
        }
        sys.eq.runUntil([&] { return remaining == 0; });
        return last;
    };
    EXPECT_EQ(run(), run());
}

TEST(TimedVsFunctional, SameSequentialStreamSameHits)
{
    // With one access at a time, the timed and functional paths must
    // produce identical hit/miss sequences given identical policy
    // seeds.
    MiniSystem timed(2, LookupMode::Predicted, "pws+gws");
    MiniSystem warm(2, LookupMode::Predicted, "pws+gws");
    Rng rng(23);
    for (int i = 0; i < 2000; ++i) {
        const LineAddr line = rng.below(1 << 13);
        EXPECT_EQ(timed.readBlocking(line), warm->warmRead(line))
            << "diverged at access " << i;
    }
    EXPECT_EQ(timed->stats().readHits.hits(),
              warm->stats().readHits.hits());
    EXPECT_EQ(timed->stats().wayPrediction.hits(),
              warm->stats().wayPrediction.hits());
}
