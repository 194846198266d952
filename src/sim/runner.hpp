/**
 * @file
 * Experiment-runner helpers shared by benches and examples: config
 * construction shorthands, CLI overrides, weighted speedup, and a
 * per-workload baseline cache so each bench simulates the
 * direct-mapped baseline once.
 */

#ifndef ACCORD_SIM_RUNNER_HPP
#define ACCORD_SIM_RUNNER_HPP

#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/system.hpp"

namespace accord::sim
{

/** Build and run a System in one call. */
SystemMetrics runSystem(const SystemConfig &config);

/**
 * Weighted speedup of a configuration over a baseline: the mean of
 * per-core IPC ratios (Section III-B).
 */
double weightedSpeedup(const SystemMetrics &config,
                       const SystemMetrics &baseline);

/**
 * Apply common CLI overrides (key=value) to a config:
 * scale=, cores=, timed=, warm=, measure=, seed=, mlp=, jobs=,
 * epoch= (metric snapshot period; 0 disables epoch sampling).
 * scale=1 is the paper-sized 4GB cache and footprints.
 * jobs= sets the sweep worker count (0 = all hardware threads,
 * jobs=1 = the historical serial path); results never depend on it.
 * trace= writes a Chrome trace-event JSON of the timed phase and
 * trace_cap= bounds its ring buffer; like jobs=, tracing never
 * changes simulation results (and so stays out of the canonical
 * config spec).  A malformed or out-of-range number, or scale=,
 * cores= or mlp= of 0, is fatal with the key named.
 */
void applyCliOverrides(SystemConfig &config, const Config &cli);

/**
 * Canonical one-line description of a SystemConfig, embedded in run
 * reports so a report fully identifies its configuration.  Every
 * field that affects simulation results appears (jobs= does not,
 * because it never changes results); the policy spec uses
 * core::canonicalSpec() so policy knobs round-trip too.
 */
std::string canonicalConfigSpec(const SystemConfig &config);

/** Direct-mapped baseline config for a workload. */
SystemConfig baselineConfig(const std::string &workload);

/**
 * Shorthand for the paper's named configurations:
 *   "dm"            direct-mapped baseline
 *   "Nway-parallel" N-way, parallel lookup, random install
 *   "Nway-serial"   N-way, serial lookup, random install
 *   "Nway-ideal"    N-way with 1-transfer hits and misses (Fig 1c)
 *   "Nway-lru"      N-way, serial lookup, LRU with in-DRAM recency
 *                   updates (paper footnote 2 ablation)
 *   "Nway-rand"     N-way, predicted lookup, random predictor
 *   "Nway-<spec>"   N-way, predicted lookup, policy spec from
 *                   core::makePolicy ("pws", "gws", "pws+gws", "mru",
 *                   "ptag", "perfect", "sws", "sws+gws")
 *   "ca"            column-associative cache (hash-rehash with swaps)
 */
SystemConfig namedConfig(const std::string &workload,
                         const std::string &config_name);

/**
 * Memoizes the baseline run per workload so sweeps over many
 * configurations pay for the baseline only once.
 */
class BaselineCache
{
  public:
    /** Baseline metrics for the workload under the given overrides. */
    const SystemMetrics &get(const std::string &workload,
                             const Config &cli);

    /**
     * Simulate all not-yet-cached workloads in parallel (jobs= from
     * the CLI) so later get() calls are pure lookups.
     */
    void prefetch(const std::vector<std::string> &workloads,
                  const Config &cli);

  private:
    std::map<std::string, SystemMetrics> cache;
};

} // namespace accord::sim

#endif // ACCORD_SIM_RUNNER_HPP
