/**
 * @file
 * Full-system assembly: N cores -> DRAM cache -> NVM main memory.
 *
 * A System owns one experiment run.  It builds one TrafficSource per
 * core with trace::makeTrafficSource (identical streams for every
 * cache configuration given the same seed and spec), optionally wraps
 * each in the SimPoint-style sampler, warms the cache functionally,
 * and then either measures functional statistics (hit rate,
 * way-prediction accuracy, transfer counts) over the stream or runs
 * the timed phase to obtain per-core IPC for weighted speedup.
 */

#ifndef ACCORD_SIM_SYSTEM_HPP
#define ACCORD_SIM_SYSTEM_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hpp"
#include "common/metrics/registry.hpp"
#include "common/telemetry/telemetry.hpp"
#include "core/factory.hpp"
#include "dramcache/controller.hpp"
#include "nvm/nvm_system.hpp"
#include "sim/core_model.hpp"
#include "sim/energy.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

namespace accord::sim
{

/** Everything one experiment run needs. */
struct SystemConfig
{
    /** Workload name ("libq", "mix3", ...). */
    std::string workload = "libq";

    unsigned numCores = 16;

    /** Footprints and cache are both divided by this (DESIGN.md §2). */
    std::uint64_t scale = 128;

    /** Full-scale cache capacity (paper default: 4GB). */
    std::uint64_t fullCacheBytes = 4ULL << 30;

    // Cache organization.
    unsigned ways = 1;
    dramcache::Organization org = dramcache::Organization::SetAssoc;
    dramcache::LookupMode lookup = dramcache::LookupMode::Predicted;
    bool dcpWayBits = true;
    dramcache::L4Replacement replacement =
        dramcache::L4Replacement::Random;
    dramcache::LayoutMode layout = dramcache::LayoutMode::RowCoLocated;

    /**
     * Backend for per-set cache state (tag store, predictor tables,
     * LRU stamps): auto (per table by size; no CLI key changes it),
     * or dense vectors or lazily-materialized pages forced for every
     * table.  Never changes simulation results — only host memory
     * footprint — so the canonical spec leaves it out.
     */
    dramcache::StateBackend stateBackend =
        dramcache::StateBackend::Auto;

    /**
     * Main memory below the cache: true = PCM-class NVM (the paper's
     * system), false = conventional DDR (the Section II-B premise
     * ablation: associativity buys little when memory is fast).
     */
    bool nvmMainMemory = true;

    /** Way policy spec ("" = none; see core::makePolicy). */
    std::string policySpec;
    core::PolicyOptions policyOpts;

    /** Functional warmup accesses per core (0 = auto from footprint). */
    std::uint64_t warmPerCore = 0;

    /** Functional measurement accesses per core (untimed runs). */
    std::uint64_t measurePerCore = 20000;

    /** Timed demand reads per core (timed runs). */
    std::uint64_t timedPerCore = 6000;

    /** Run the timed phase (else functional measurement only). */
    bool runTimed = true;

    unsigned mlp = 8;

    /**
     * Worker threads for sweeps this run belongs to (0 = all
     * hardware threads; 1 = the historical serial path).  Scheduling
     * metadata only — it never changes simulation results, which are
     * bit-identical for any job count.
     */
    unsigned jobs = 0;

    /** Demand-to-writeback lag of the writeback mixer. */
    unsigned wbLag = 2048;

    /**
     * Traffic source spec per core ("name(key=value,...)"; see
     * trace/source.hpp).  The default keeps the synthetic workload
     * models; "trace(file=...)" replays a recorded binary trace.
     */
    std::string trafficSpec = trace::kDefaultTrafficSpec;

    /**
     * SimPoint-style sampling spec applied on top of the source
     * ("" = off; knob syntax in trace::SampleParams::fromString).
     * Requires a bounded source and a functional run.
     */
    std::string sampleSpec;

    /**
     * Snapshot the metric registry every this many demand accesses
     * (functional runs) or completed demand reads (timed runs) during
     * the measurement phase, into SystemMetrics::epochs.  Each sample
     * lands on the first sampling point at or past its epoch: the end
     * of a round-robin round, or a 256-event boundary when timed.  0
     * (the default) disables epoch sampling entirely.
     */
    std::uint64_t epochEvery = 0;

    /**
     * Write a Chrome trace-event JSON of the timed phase to this path
     * ("" = tracing off).  Timed runs only — the functional path has
     * no cycle timeline to trace.  Like jobs=, tracing never changes
     * simulation results.
     */
    std::string tracePath;

    /**
     * Ring-buffer cap: completed transactions retained in the trace
     * (0 = keep everything).  See trace_event::TracerConfig.
     */
    std::uint64_t traceCap = 0;

    /**
     * Flight-recorder telemetry stream path ("" = telemetry off).
     * Appends one accord.telemetry/1 JSONL heartbeat every
     * telemetryInterval progress units (functional accesses, or
     * retired demand reads on timed runs) — deterministic cadence, so
     * the canonical fields are byte-identical across re-runs and
     * jobs= values.  Like jobs= and trace=, telemetry never changes
     * simulation results and stays out of canonicalConfigSpec.
     */
    std::string telemetryPath;

    /** Heartbeat cadence in progress units (0 = recorder default). */
    std::uint64_t telemetryInterval = 0;

    std::uint64_t seed = 1;

    /** Scaled cache capacity in bytes. */
    std::uint64_t cacheBytes() const { return fullCacheBytes / scale; }
};

/** Results of one run. */
struct SystemMetrics
{
    double hitRate = 0.0;
    double wpAccuracy = 0.0;
    double transfersPerRead = 0.0;

    /** Per-core IPC (empty for functional-only runs). */
    std::vector<double> coreIpc;
    // accord-lint: allow(metric-unregistered) reported via per-core
    // IPC, not as a registry leaf
    Cycle cycles = 0;

    /**
     * Discrete events the queue executed over the whole run (warmup
     * included; 0 for functional-only runs).  Host-side throughput
     * denominator for bench_throughput — deliberately NOT a registry
     * metric, so run reports stay byte-identical across engine
     * refactors.
     */
    // accord-lint: allow(metric-unregistered) see above: host-side
    // denominator only, kept out of canonical reports on purpose
    std::uint64_t eventsExecuted = 0;

    /**
     * Functional accesses executed in the measurement phase, sampled
     * warmup-replay accesses included (0 for timed runs).  The
     * replayed-event numerator of bench_trace_replay's sampled-vs-full
     * ratio; like eventsExecuted, kept out of the registry so run
     * reports stay byte-identical across frontend refactors.
     */
    // accord-lint: allow(metric-unregistered) see above: host-side
    // denominator only, kept out of canonical reports on purpose
    std::uint64_t accessesExecuted = 0;

    /**
     * EventQueue occupancy high-water mark over the run (peak
     * simultaneously pending events; 0 for functional-only runs).
     * The same EventQueue counter telemetry heartbeats sample, so
     * mid-run and end-of-run views share one source of truth; kept
     * out of the registry like eventsExecuted so canonical run
     * reports keep their baseline key set.
     */
    // accord-lint: allow(metric-unregistered) see above: engine-health
    // gauge, kept out of canonical reports on purpose
    std::uint64_t eqOccupancyPeak = 0;

    /**
     * Events that spilled past the EventQueue's calendar horizon into
     * the overflow heap (see EventQueue::overflowSpills).  Same
     * source feeds the telemetry heartbeats.
     */
    // accord-lint: allow(metric-unregistered) see above: engine-health
    // gauge, kept out of canonical reports on purpose
    std::uint64_t eqOverflowSpills = 0;

    dramcache::DramCacheStats cacheStats;
    dram::DeviceStats hbmStats;
    dram::DeviceStats nvmStats;
    EnergyBreakdown energy;

    /** SRAM bits the way policy required. */
    // accord-lint: allow(metric-unregistered) static hardware cost, not
    // a run-time counter; reported in bench tables directly
    std::uint64_t policyStorageBits = 0;

    /**
     * Host bytes backing per-set cache state (packed tag words,
     * predictor tables) at the end of the run.  Host-side
     * footprint gauge for the gigascale RSS budget — deliberately NOT
     * a registry metric (it varies with the state backend while
     * simulation results do not), so canonical run reports keep their
     * baseline key set; reports carry it in the volatile host
     * partition instead.
     */
    // accord-lint: allow(metric-unregistered) see above: host-side
    // footprint gauge, kept out of canonical reports on purpose
    std::uint64_t residentStateBytes = 0;

    /** Registry snapshot at the end of the measurement phase. */
    MetricSnapshot finalMetrics;

    /** Epoch time-series (empty unless SystemConfig::epochEvery). */
    MetricSeries epochs;

    /** The trace JSON written to SystemConfig::tracePath ("" when
     *  tracing was off). */
    std::string traceJson;
};

/** One assembled simulation instance. */
class System
{
  public:
    explicit System(const SystemConfig &config);

    System(const System &) = delete;
    System &operator=(const System &) = delete;
    ~System();

    /** Warm, (measure | run timed), and report. */
    SystemMetrics run();

    dramcache::DramCacheController &cache() { return *cache_; }
    const SystemConfig &config() const { return config_; }

    /** The hierarchical metric registry every component feeds. */
    const MetricRegistry &metrics() const { return registry_; }

  private:
    void warm();
    void measureFunctional();
    void runTimed();

    /**
     * Functional accesses in rounds of up to 8 per core until every
     * core has spent its quota or run dry, sampling after each round.
     */
    void roundRobin(const char *phase, std::vector<std::uint64_t> quota);

    /** One functional access for a core. */
    void funcAccess(unsigned core);

    /** Demand reads the timed cores have completed (0 before timing). */
    std::uint64_t completedReads() const;

    /**
     * The one sampling point: records an epoch snapshot once the
     * measured position crosses the next epoch, and a heartbeat once
     * the progress position crosses the telemetry cadence.
     */
    void sample(const char *phase);

    /** Snapshot the canonical heartbeat gauges at `position`. */
    telemetry::HeartbeatSample
    telemetrySample(const char *phase, std::uint64_t position) const;

    SystemConfig config_;
    EventQueue eq;
    MetricRegistry registry_;
    MetricSeries epoch_series_;

    /** Unarmed (never reached) until the measurement phase starts. */
    std::uint64_t next_epoch_at_ = ~std::uint64_t(0);
    std::unique_ptr<telemetry::FlightRecorder> recorder_;

    /**
     * Functional accesses executed so far, warm and measured, sampled
     * warmup replay included.  With the timed cores' completed reads
     * on top, this is the telemetry progress position.
     */
    std::uint64_t progress_ = 0;

    /**
     * Functional accesses since run() reset it after warm, sampled
     * warmup replay excluded: the functional epoch position.
     */
    std::uint64_t measured_ = 0;
    std::unique_ptr<trace_event::Tracer> tracer_;
    std::unique_ptr<nvm::NvmSystem> nvm;
    std::unique_ptr<dramcache::DramCacheController> cache_;

    std::vector<const trace::WorkloadSpec *> assignment;
    std::vector<std::unique_ptr<trace::TrafficSource>> sources;
    std::vector<std::unique_ptr<CoreModel>> cores;
};

} // namespace accord::sim

#endif // ACCORD_SIM_SYSTEM_HPP
