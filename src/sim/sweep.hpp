/**
 * @file
 * Parallel experiment fan-out: run many independent (workload,
 * config) simulations across a thread pool and collect their metrics
 * in a deterministic layout.
 *
 * Every simulation seeds its RNGs from (seed, workload, config), so
 * results are bit-identical for any job count; scheduling order only
 * affects wall-clock time.  All SystemConfigs are resolved on the
 * calling thread before any worker starts (the CLI Config tracks
 * consumed keys and is not thread-safe), and per-run warn()/inform()
 * output is captured and replayed in job order after the batch
 * completes.  runBatch() is how benches and examples run a batch: it
 * rejects a mistyped CLI key before the first simulation.
 */

#ifndef ACCORD_SIM_SWEEP_HPP
#define ACCORD_SIM_SWEEP_HPP

#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/system.hpp"

namespace accord::sim
{

/** Resolve a jobs= override: 0 means all hardware threads. */
unsigned resolveJobs(unsigned jobs);

/**
 * Per-run trace output path for run `index` of a batch: inserts
 * ".run<index>" before the extension ("out.json" -> "out.run3.json",
 * "out" -> "out.run3").  Derived from the batch position — never from
 * scheduling — so paths are identical for any job count.
 */
std::string perRunTracePath(const std::string &path, std::size_t index);

/**
 * Per-run telemetry stream path for run `index` of a batch.  The
 * conventional "<base>.telemetry.jsonl" spelling keeps its compound
 * extension intact ("out.telemetry.jsonl" -> "out.run3.telemetry.jsonl")
 * so every stream of a sweep stays recognizable by suffix; any other
 * spelling falls back to the perRunTracePath rule.  Like trace paths,
 * derived from the batch position — never from scheduling.
 */
std::string perRunTelemetryPath(const std::string &path,
                                std::size_t index);

/**
 * Schedules batches of independent simulations over a ThreadPool.
 * jobs=1 reproduces the historical serial execution order exactly.
 */
class SweepRunner
{
  public:
    /** @param jobs worker count; 0 means all hardware threads. */
    explicit SweepRunner(unsigned jobs = 0);

    /** Read the jobs= override from CLI configuration. */
    explicit SweepRunner(const Config &cli);

    unsigned jobs() const { return jobs_; }

    /**
     * Run every config and return metrics in input order, regardless
     * of the job count.  The first exception any run throws is
     * rethrown (lowest input index wins) after all runs finish.
     */
    std::vector<SystemMetrics>
    runConfigs(const std::vector<SystemConfig> &configs) const;

  private:
    unsigned jobs_;
};

/**
 * Check, then run: reject any CLI key nothing has read
 * (Config::checkConsumed), then run every config on a SweepRunner
 * sized by jobs= and return metrics in input order.  Resolve every
 * config before calling, so a typo fails before the first simulation.
 */
std::vector<SystemMetrics>
runBatch(const std::vector<SystemConfig> &configs, const Config &cli);

} // namespace accord::sim

#endif // ACCORD_SIM_SWEEP_HPP
