/**
 * @file
 * Parallel experiment fan-out: run many independent (workload,
 * config) simulations on a few threads and collect their metrics in
 * a deterministic layout.
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

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/system.hpp"

namespace accord::sim
{

/** Resolve a jobs= override: 0 means all hardware threads (at least 1). */
unsigned resolveJobs(unsigned jobs);

/**
 * Call body(i) once for every i < n on min(resolveJobs(jobs), n)
 * threads that pull indices from one shared counter; one thread runs
 * the indices in order on the calling thread.  Once every index has
 * run, rethrows the exception of the lowest index that threw.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &body);

/**
 * Per-run trace output path for run `index`: inserts ".run<index>"
 * before the extension ("out.json" -> "out.run3.json", "out" ->
 * "out.run3").  Derived from the run's position — never from
 * scheduling — so paths are identical for any job count.
 */
std::string perRunTracePath(const std::string &path, std::size_t index);

/**
 * Per-run telemetry stream path for run `index`.  The conventional
 * "<base>.telemetry.jsonl" spelling keeps its compound extension
 * intact ("out.telemetry.jsonl" -> "out.run3.telemetry.jsonl") so
 * every stream of a sweep stays recognizable by suffix; any other
 * spelling falls back to the perRunTracePath rule.  Like trace paths,
 * derived from the run's position — never from scheduling.
 */
std::string perRunTelemetryPath(const std::string &path,
                                std::size_t index);

/**
 * Run every config on parallelFor(jobs) and return metrics in input
 * order, regardless of the job count.  Run i writes its trace= and
 * telemetry= output to the .run<first_run + i> path unless it is the
 * only run (a one-run batch with first_run 0).  Captured log output
 * is replayed in input order before the lowest-index exception, if
 * any, is rethrown.
 */
std::vector<SystemMetrics>
runConfigs(const std::vector<SystemConfig> &configs, unsigned jobs,
           std::size_t first_run = 0);

/**
 * Check, then run: reject any CLI key nothing has read
 * (Config::checkConsumed), then runConfigs() with jobs= workers and
 * return metrics in input order.  Runs are numbered across every
 * batch of the process, so a later batch never overwrites an earlier
 * one's .runN files.  Resolve every config before calling, so a typo
 * fails before the first simulation.
 */
std::vector<SystemMetrics>
runBatch(const std::vector<SystemConfig> &configs, const Config &cli);

} // namespace accord::sim

#endif // ACCORD_SIM_SWEEP_HPP
