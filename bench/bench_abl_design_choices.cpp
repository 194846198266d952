/**
 * @file
 * Ablations of ACCORD's design choices (beyond the paper's tables):
 *
 *  1. GWS table size: RIT/RLT entries 8..256 vs prediction accuracy —
 *     the paper claims 64 entries capture most of the benefit (IV-C2).
 *  2. DCP way bits: writebacks with vs without the probe-elision
 *     extension (II-B3) — transfer overhead of writeback probes.
 *  3. SWS alternate-location count k: hit rate vs miss-confirmation
 *     cost for SWS(8,k) (V-A mentions the k>2 generalization).
 *  4. Replacement policy in the DRAM cache: LRU's recency state lives
 *     with the tags in DRAM, so every hit pays an update write —
 *     footnote 2 reports LRU losing ~9% to update-free random.
 *  5. Way placement: the paper co-locates all ways of a set in one
 *     row buffer (Fig 2b / Section VII) so mispredicted second probes
 *     are row hits; the striped layout ablation quantifies that.
 *  6. Main-memory technology: the paper's premise (Section II-B) is
 *     that associativity matters because NVM misses are expensive;
 *     with conventional DDR below the cache the benefit should shrink.
 */

#include <iterator>

#include "bench_common.hpp"

using namespace accord;

namespace
{

/**
 * Run make(v, workload) for every variant v < variants and every
 * workload as one batch; returns metrics[v][w].
 */
template <typename Make>
std::vector<std::vector<sim::SystemMetrics>>
runGrid(std::size_t variants, const std::vector<std::string> &workloads,
        const Config &cli, Make make)
{
    std::vector<sim::SystemConfig> configs;
    for (std::size_t v = 0; v < variants; ++v) {
        for (const auto &workload : workloads)
            configs.push_back(make(v, workload));
    }
    std::vector<sim::SystemMetrics> metrics = sim::runBatch(configs, cli);
    std::vector<std::vector<sim::SystemMetrics>> grid(variants);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        grid[i / workloads.size()].push_back(std::move(metrics[i]));
    return grid;
}

} // namespace

int
main(int argc, char **argv)
{
    report::Reporter rep(
        argc, argv, "Ablations: GWS table size, DCP way bits, SWS k",
        "design-choice ablations referenced in DESIGN.md");
    const Config &cli = rep.cli();

    const auto workloads = trace::mainWorkloadNames();

    // --- 1. GWS table size ------------------------------------------
    {
        report::ReportTable &table = rep.table(
            "gws_table_size",
            {"rit/rlt entries", "wp-acc (amean)",
             "storage (bytes)"});
        const unsigned entries[] = {8u, 16u, 32u, 64u, 128u, 256u};
        const auto grid = runGrid(
            std::size(entries), workloads, cli,
            [&](std::size_t v, const std::string &workload) {
                sim::SystemConfig config =
                    sim::resolve(workload, "2way-pws+gws", false, cli);
                config.policyOpts.gwsEntries = entries[v];
                return config;
            });
        for (std::size_t v = 0; v < grid.size(); ++v) {
            std::vector<double> acc;
            for (const sim::SystemMetrics &m : grid[v])
                acc.push_back(m.wpAccuracy);
            table.row()
                .cell(std::to_string(entries[v]))
                .percent(amean(acc))
                .cell(grid[v].back().policyStorageBits / 8);
        }
    }

    // --- 2. DCP way bits --------------------------------------------
    {
        report::ReportTable &table = rep.table(
            "dcp_way_bits",
            {"writeback routing", "xfers/read (amean)",
             "wb probe transfers / wb"});
        const bool dcp[] = {true, false};
        const auto grid = runGrid(
            std::size(dcp), workloads, cli,
            [&](std::size_t v, const std::string &workload) {
                sim::SystemConfig config =
                    sim::resolve(workload, "2way-pws+gws", false, cli);
                config.dcpWayBits = dcp[v];
                return config;
            });
        for (std::size_t v = 0; v < grid.size(); ++v) {
            std::vector<double> xfers, probes;
            for (const sim::SystemMetrics &m : grid[v]) {
                xfers.push_back(m.transfersPerRead);
                const auto &s = m.cacheStats;
                const double wbs =
                    static_cast<double>(s.writebacksToCache.value()
                                        + s.writebacksToNvm.value());
                probes.push_back(
                    wbs == 0 ? 0.0
                             : static_cast<double>(
                                   s.writebackProbeTransfers.value())
                                 / wbs);
            }
            table.row()
                .cell(dcp[v] ? "DCP + way bits (paper)" : "probe per wb")
                .cell(amean(xfers), 3)
                .cell(amean(probes), 2);
        }
    }

    // --- 3. SWS(8,k) ------------------------------------------------
    {
        report::ReportTable &table = rep.table(
            "sws_k", {"design", "hit-rate (amean)",
                      "miss-confirm probes"});
        const unsigned ks[] = {2u, 3u, 4u, 8u};
        const auto grid = runGrid(
            std::size(ks), workloads, cli,
            [&](std::size_t v, const std::string &workload) {
                sim::SystemConfig config =
                    sim::resolve(workload, "8way-sws+gws", false, cli);
                config.policyOpts.swsK = ks[v];
                return config;
            });
        for (std::size_t v = 0; v < grid.size(); ++v) {
            std::vector<double> hits;
            for (const sim::SystemMetrics &m : grid[v])
                hits.push_back(m.hitRate);
            table.row()
                .cell("SWS(8," + std::to_string(ks[v]) + ")")
                .percent(amean(hits))
                .cell(std::to_string(ks[v]));
        }
    }

    // --- 4. LRU vs random replacement in the L4 ---------------------
    {
        report::ReportTable &table = rep.table(
            "l4_replacement",
            {"replacement", "hit-rate (amean)",
             "xfers/read (amean)", "update writes/hit"});
        const bench::FunctionalSweep sweep(
            workloads, {"2way-serial", "2way-lru"}, cli);
        for (const std::string &name : sweep.configs()) {
            std::vector<double> hits, xfers, updates;
            for (std::size_t w = 0; w < workloads.size(); ++w) {
                const sim::SystemMetrics &m = sweep.metrics(name, w);
                hits.push_back(m.hitRate);
                xfers.push_back(m.transfersPerRead);
                const auto &s = m.cacheStats;
                updates.push_back(
                    s.readHits.hits() == 0
                        ? 0.0
                        : static_cast<double>(
                              s.replacementUpdateWrites.value())
                            / static_cast<double>(s.readHits.hits()));
            }
            table.row()
                .cell(name == "2way-lru"
                          ? "LRU (in-DRAM state)"
                          : "random (update-free)")
                .percent(amean(hits))
                .cell(amean(xfers), 3)
                .cell(amean(updates), 2);
        }
    }

    // --- 5. Row-co-located vs striped way placement (timed) ---------
    {
        report::ReportTable &table = rep.table(
            "way_placement", {"layout", "speedup vs dm (gmean)",
                              "row-hit rate"});
        const std::vector<std::string> subset = {"sphinx", "libq",
                                                 "wrf", "gcc", "mcf"};
        const dramcache::LayoutMode layouts[] = {
            dramcache::LayoutMode::RowCoLocated,
            dramcache::LayoutMode::WayStriped};
        // Variant 0 is the dm baseline, 1 + l is ACCORD on layouts[l].
        const auto grid = runGrid(
            1 + std::size(layouts), subset, cli,
            [&](std::size_t v, const std::string &workload) {
                sim::SystemConfig config = sim::resolve(
                    workload, v == 0 ? "dm" : "2way-pws+gws", true, cli);
                if (v > 0)
                    config.layout = layouts[v - 1];
                return config;
            });
        for (std::size_t l = 0; l < std::size(layouts); ++l) {
            std::vector<double> speedups, row_hits;
            for (std::size_t w = 0; w < subset.size(); ++w) {
                const sim::SystemMetrics &m = grid[1 + l][w];
                speedups.push_back(sim::weightedSpeedup(m, grid[0][w]));
                row_hits.push_back(m.hbmStats.rowHitRate());
            }
            table.row()
                .cell(layouts[l] == dramcache::LayoutMode::RowCoLocated
                          ? "ways share a row (paper)"
                          : "ways striped over banks")
                .cell(geomean(speedups), 3)
                .percent(amean(row_hits));
        }
    }

    // --- 6. NVM vs DDR main memory (timed) --------------------------
    {
        report::ReportTable &table = rep.table(
            "main_memory_technology",
            {"main memory", "accord speedup (gmean)"});
        const std::vector<std::string> subset = {"libq", "wrf", "gcc",
                                                 "soplex", "mcf"};
        const bool nvm_mem[] = {true, false};
        // Variant t is the dm baseline on nvm_mem[t], 2 + t is ACCORD.
        const auto grid = runGrid(
            2 * std::size(nvm_mem), subset, cli,
            [&](std::size_t v, const std::string &workload) {
                sim::SystemConfig config = sim::resolve(
                    workload, v < 2 ? "dm" : "2way-pws+gws", true, cli);
                config.nvmMainMemory = nvm_mem[v % 2];
                return config;
            });
        for (std::size_t t = 0; t < std::size(nvm_mem); ++t) {
            std::vector<double> speedups;
            for (std::size_t w = 0; w < subset.size(); ++w)
                speedups.push_back(
                    sim::weightedSpeedup(grid[2 + t][w], grid[t][w]));
            table.row()
                .cell(nvm_mem[t] ? "PCM-class NVM (paper)"
                                 : "conventional DDR")
                .cell(geomean(speedups), 3);
        }
    }

    return rep.finish();
}
