/**
 * @file
 * Unit tests for the paged struct-of-arrays storage layer
 * (common/paged_table.hpp): page materialization and teardown,
 * dense/paged read identity, resident-byte accounting, and the
 * end-to-end check that every bench configuration ends a run with the
 * same metrics whether its per-set state is dense or paged.
 */

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/paged_table.hpp"
#include "common/rng.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

using namespace accord;

namespace
{

constexpr std::uint64_t kPage = PagedColumn<std::uint32_t>::kPageSlots;

} // namespace

TEST(AutoStorageMode, ThresholdSplitsBenchAndGigascale)
{
    // 1/128-scale tag stores (512K lines) stay dense; full-scale 4GB
    // caches (64M lines) go paged.
    EXPECT_EQ(autoStorageMode(1ULL << 19), StorageMode::Dense);
    EXPECT_EQ(autoStorageMode(pagedStorageThreshold - 1),
              StorageMode::Dense);
    EXPECT_EQ(autoStorageMode(pagedStorageThreshold),
              StorageMode::Paged);
    EXPECT_EQ(autoStorageMode(1ULL << 26), StorageMode::Paged);
}

TEST(PagedColumn, UnwrittenSlotsReadAsFillWithoutMaterializing)
{
    const PagedColumn<std::uint32_t> col(3 * kPage, StorageMode::Paged,
                                         77);
    EXPECT_EQ(col.residentPages(), 0u);
    EXPECT_EQ(col.residentBytes(), 0u);
    EXPECT_EQ(col.read(0), 77u);
    EXPECT_EQ(col.read(3 * kPage - 1), 77u);
    EXPECT_EQ(col.at(kPage + 5), 77u);
    // Reads are the pure fast path: nothing materialized.
    EXPECT_EQ(col.residentPages(), 0u);
}

TEST(PagedColumn, WriteMaterializesExactlyOnePage)
{
    PagedColumn<std::uint32_t> col(4 * kPage, StorageMode::Paged);
    col.write(2 * kPage + 9, 42);
    EXPECT_EQ(col.residentPages(), 1u);
    EXPECT_EQ(col.residentBytes(), kPage * sizeof(std::uint32_t));
    EXPECT_TRUE(col.pageResident(2));
    EXPECT_FALSE(col.pageResident(0));
    EXPECT_FALSE(col.pageResident(3));
    EXPECT_EQ(col.read(2 * kPage + 9), 42u);
    // The rest of the materialized page still reads as fill.
    EXPECT_EQ(col.read(2 * kPage), 0u);
    // Re-writing the same page allocates nothing new.
    col.write(2 * kPage, 7);
    EXPECT_EQ(col.residentPages(), 1u);
}

TEST(PagedColumn, ResetTearsDownPages)
{
    PagedColumn<std::uint8_t> col(2 * kPage, StorageMode::Paged, 3);
    col.write(0, 1);
    col.write(kPage, 2);
    EXPECT_EQ(col.residentPages(), 2u);

    col.reset(2 * kPage, StorageMode::Paged, 3);
    EXPECT_EQ(col.residentPages(), 0u);
    EXPECT_EQ(col.residentBytes(), 0u);
    EXPECT_EQ(col.read(0), 3u);
    EXPECT_EQ(col.read(kPage), 3u);
}

TEST(PagedColumn, DenseModeIsEagerAndFullyResident)
{
    const std::uint64_t slots = kPage / 2 + 13;
    PagedColumn<std::uint64_t> col(slots, StorageMode::Dense, 5);
    EXPECT_EQ(col.pageCount(), 1u);
    EXPECT_TRUE(col.pageResident(0));
    EXPECT_EQ(col.residentBytes(), slots * sizeof(std::uint64_t));
    EXPECT_EQ(col.read(slots - 1), 5u);
    col.write(slots - 1, 9);
    EXPECT_EQ(col.at(slots - 1), 9u);
}

// SoA column identity: the same write sequence applied to a dense and
// a paged column must make every slot read identically — the property
// the rtol-0 refactor-equivalence gate relies on.
TEST(PagedColumn, DensePagedReadIdentityUnderRandomWrites)
{
    const std::uint64_t slots = 5 * kPage + 123;
    PagedColumn<std::uint32_t> dense(slots, StorageMode::Dense, 11);
    PagedColumn<std::uint32_t> paged(slots, StorageMode::Paged, 11);

    Rng rng(1234);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t slot = rng.next() % slots;
        const auto value = static_cast<std::uint32_t>(rng.next());
        dense.write(slot, value);
        paged.write(slot, value);
    }
    for (std::uint64_t slot = 0; slot < slots; ++slot)
        ASSERT_EQ(dense.at(slot), paged.at(slot)) << "slot " << slot;
}

// Occupancy invariant: residentBytes is exactly pages x page bytes,
// and nextResidentSlot skips whole never-written pages.
TEST(PagedColumn, ResidencyAccountingAndAuditSkip)
{
    PagedColumn<std::uint16_t> col(6 * kPage, StorageMode::Paged);
    col.write(1 * kPage + 7, 1);
    col.write(4 * kPage, 2);
    EXPECT_EQ(col.residentPages(), 2u);
    EXPECT_EQ(col.residentBytes(),
              2 * kPage * sizeof(std::uint16_t));

    // From slot 0 the first resident slot is the start of page 1.
    EXPECT_EQ(col.nextResidentSlot(0), kPage);
    // Within a resident page the cursor does not move.
    EXPECT_EQ(col.nextResidentSlot(kPage + 100), kPage + 100);
    // Pages 2..3 are cold: skip straight to page 4.
    EXPECT_EQ(col.nextResidentSlot(2 * kPage), 4 * kPage);
    // Past the last resident page the sweep terminates at size().
    EXPECT_EQ(col.nextResidentSlot(5 * kPage), col.size());

    // Dense columns never skip.
    const PagedColumn<std::uint16_t> dense(2 * kPage,
                                           StorageMode::Dense);
    EXPECT_EQ(dense.nextResidentSlot(17), 17u);
}

TEST(PagedColumnDeath, AtRejectsOutOfRangeSlot)
{
    // at() uses ACCORD_ASSERT, so this dies in every build mode.
    const PagedColumn<std::uint32_t> col(kPage, StorageMode::Paged);
    EXPECT_DEATH(col.at(kPage), "outside column");
}

#if ACCORD_CHECKS_ENABLED
// read()/materializeSlot() bounds are ACCORD_CHECK: compiled out in
// plain Release builds, fatal in Debug/ACCORD_CHECKS builds.
TEST(PagedColumnDeath, CheckedBuildsRejectOutOfRangeFastPath)
{
    PagedColumn<std::uint32_t> col(kPage, StorageMode::Paged);
    EXPECT_DEATH(col.read(kPage), "outside column");
    EXPECT_DEATH(col.materializeSlot(2 * kPage), "outside column");
}
#endif

namespace
{

/**
 * Every configuration the fig01, fig07, fig12 and ablation benches
 * run ("/nodcp" marks abl's variant without DCP way bits), plus the
 * MRU and partial-tag predictors and the column-associative layout.
 */
const std::vector<std::string> kStorageConfigs = {
    "dm", "2way-rand", "4way-rand", "8way-rand", "2way-parallel",
    "4way-parallel", "8way-parallel", "2way-ideal", "4way-ideal",
    "8way-ideal", "2way-pws", "2way-gws", "2way-pws+gws",
    "8way-sws+gws", "2way-serial", "2way-lru", "2way-pws+gws/nodcp",
    "2way-mru", "2way-ptag", "ca",
};

/** Every kStorageConfigs run on libq and mcf, functional and timed. */
std::vector<sim::SystemConfig>
storageRuns(dramcache::StateBackend backend)
{
    Config cli;
    cli.parseArg("scale=4096");
    cli.parseArg("cores=2");
    cli.parseArg("warm=2000");
    cli.parseArg("timed=1500");
    cli.parseArg("measure=4000");
    std::vector<sim::SystemConfig> runs;
    for (const char *workload : {"libq", "mcf"}) {
        for (const bool timed : {false, true}) {
            for (const std::string &name : kStorageConfigs) {
                const std::size_t slash = name.find('/');
                sim::SystemConfig config = sim::resolve(
                    workload, name.substr(0, slash), timed, cli);
                if (slash != std::string::npos)
                    config.dcpWayBits = false;
                config.stateBackend = backend;
                runs.push_back(config);
            }
        }
    }
    return runs;
}

/** Bit-for-bit equality, so NaN cells compare equal too. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a)
        == std::bit_cast<std::uint64_t>(b);
}

} // namespace

// The storage layer never changes results: each run, with every
// per-set table forced dense and then forced paged, must end with the
// same metric snapshot, per-core IPC and event count.
TEST(StorageEquivalence, DenseAndPagedRunsAgree)
{
    const std::vector<sim::SystemConfig> dense =
        storageRuns(dramcache::StateBackend::Dense);
    const std::vector<sim::SystemConfig> paged =
        storageRuns(dramcache::StateBackend::Paged);
    const std::vector<sim::SystemMetrics> want = sim::runConfigs(dense, 0);
    const std::vector<sim::SystemMetrics> got = sim::runConfigs(paged, 0);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(sim::canonicalConfigSpec(dense[i]));
        const auto &a = want[i].finalMetrics.values();
        const auto &b = got[i].finalMetrics.values();
        ASSERT_EQ(a.size(), b.size());
        EXPECT_FALSE(a.empty());
        for (std::size_t m = 0; m < a.size(); ++m) {
            EXPECT_EQ(a[m].first, b[m].first);
            EXPECT_TRUE(sameBits(a[m].second, b[m].second))
                << a[m].first << ": " << a[m].second << " dense, "
                << b[m].second << " paged";
        }
        ASSERT_EQ(want[i].coreIpc.size(), got[i].coreIpc.size());
        for (std::size_t c = 0; c < want[i].coreIpc.size(); ++c)
            EXPECT_TRUE(sameBits(want[i].coreIpc[c], got[i].coreIpc[c]))
                << "core " << c;
        EXPECT_EQ(want[i].eventsExecuted, got[i].eventsExecuted);
    }
}
