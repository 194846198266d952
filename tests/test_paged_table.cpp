/**
 * @file
 * Unit tests for the paged struct-of-arrays storage layer
 * (common/paged_table.hpp): page materialization and teardown,
 * dense/paged read identity, resident-byte accounting, and the
 * end-to-end dense-vs-paged byte-identity replay of the fig12 smoke
 * sweep.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/paged_table.hpp"
#include "common/rng.hpp"
#include "sim/runner.hpp"

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

/** Fig12 smoke sweep recorded with a forced storage backend. */
std::string
recordFig12Smoke(const std::string &backend)
{
    Config cli;
    cli.parseArg("scale=4096");
    cli.parseArg("cores=2");
    cli.parseArg("warm=3000");
    cli.parseArg("timed=200");
    cli.parseArg("measure=500");
    cli.parseArg("state_backend=" + backend);

    const bench::SpeedupSweep sweep({"libq", "mcf"}, {"2way-pws+gws"},
                                    cli);

    report::RunReport report("backend replay",
                             "dense/paged byte-identity test");
    sweep.record(report);

    // Two surfaces may legitimately differ between the backends, and
    // compare_reports.py ignores both: the forced state_backend spec
    // token (--ignore-spec-key) and the per-run "host" objects (the
    // volatile partition, which carries resident_state_bytes — a
    // footprint gauge that is *supposed* to shrink under paging).
    // Strip them; everything left must match byte for byte.
    std::string json = report.toJson();
    const std::string token = " state_backend=" + backend;
    for (std::size_t pos = json.find(token);
         pos != std::string::npos; pos = json.find(token, pos))
        json.erase(pos, token.size());
    const std::string host = "\"host\": {";
    for (std::size_t pos = json.find(host);
         pos != std::string::npos; pos = json.find(host, pos)) {
        const std::size_t close = json.find('}', pos);
        // Swallow the preceding ",\n      " separator too.
        const std::size_t comma = json.rfind(',', pos);
        if (close == std::string::npos || comma == std::string::npos) {
            ADD_FAILURE() << "malformed host object in report JSON";
            break;
        }
        json.erase(comma, close + 1 - comma);
    }
    return json;
}

} // namespace

// The storage-layer replay of the refactor-equivalence guarantee: the
// fig12 smoke sweep must serialize to byte-identical run reports with
// the backend forced dense and forced paged — every metric of every
// run, not just headline speedups.  This is the in-process twin of
// the state_backend legs of tools/check_equivalence.py.
TEST(StorageEquivalence, Fig12SmokeReportBytesIdenticalDenseVsPaged)
{
    EXPECT_EQ(recordFig12Smoke("dense"), recordFig12Smoke("paged"));
}
