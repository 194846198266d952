#include "sim/system.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/trace_event/tracer.hpp"
#include "sim/runner.hpp"
#include "trace/sample.hpp"

namespace accord::sim
{

System::System(const SystemConfig &config) : config_(config)
{
    nvm = std::make_unique<nvm::NvmSystem>(
        config_.nvmMainMemory ? dram::pcmMainMemoryTiming()
                              : dram::ddrMainMemoryTiming(),
        eq);

    dramcache::DramCacheParams cache_params;
    cache_params.capacityBytes = config_.cacheBytes();
    cache_params.ways = config_.ways;
    cache_params.org = config_.org;
    cache_params.lookup = config_.lookup;
    cache_params.dcpWayBits = config_.dcpWayBits;
    cache_params.replacement = config_.replacement;
    cache_params.layout = config_.layout;
    cache_params.stateBackend = config_.stateBackend;
    cache_params.seed = config_.seed * 0x9e3779b9ULL + 0x7;

    std::unique_ptr<core::WayPolicy> policy;
    if (!config_.policySpec.empty()) {
        core::CacheGeometry geom;
        geom.ways = config_.ways;
        geom.sets = cache_params.capacityBytes / lineSize / config_.ways;
        core::PolicyOptions opts = config_.policyOpts;
        opts.seed = mix64(config_.seed ^ 0xacc0d);
        // Auto stays nullopt so each policy table resolves by its own
        // size; an explicit backend forces every table.
        if (config_.stateBackend != dramcache::StateBackend::Auto) {
            opts.storage = dramcache::resolveStorageMode(
                config_.stateBackend, geom.lines());
        }
        policy = core::makePolicy(config_.policySpec, geom, opts);
    }

    cache_ = std::make_unique<dramcache::DramCacheController>(
        cache_params, std::move(policy), dram::hbmCacheTiming(), eq,
        *nvm);

    assignment =
        trace::coreAssignment(config_.workload, config_.numCores);
    if (!config_.sampleSpec.empty() && config_.runTimed)
        fatal("sample= supports functional runs only "
              "(set runTimed=false)");
    for (unsigned core = 0; core < config_.numCores; ++core) {
        trace::SourceContext ctx;
        ctx.spec = assignment[core];
        ctx.core = core;
        ctx.numCores = config_.numCores;
        ctx.scale = config_.scale;
        ctx.seed = config_.seed;
        ctx.wbLag = config_.wbLag;
        sources.push_back(
            trace::makeTrafficSource(config_.trafficSpec, ctx));
    }
    if (!config_.sampleSpec.empty()) {
        const trace::SampleParams sample =
            trace::SampleParams::fromString(config_.sampleSpec);
        // Per-core sampler stream: fold the core id in so cores
        // sharing a spec still cluster independently.
        std::vector<std::uint64_t> seeds;
        for (unsigned core = 0; core < config_.numCores; ++core)
            seeds.push_back(mix64(sample.seed ^ (0x5a3fULL + core)));
        // Cores striping one trace share a single profiling decode.
        sources = trace::sampleSources(std::move(sources), sample, seeds);
    }

    // Registration happens once, here; the hot paths never touch the
    // registry.  Timed cores register later (runTimed creates them).
    cache_->registerMetrics(registry_, "l4");
    cache_->hbm().registerMetrics(registry_, "dram");
    nvm->registerMetrics(registry_, "nvm");

    if (!config_.tracePath.empty()) {
        if (!config_.runTimed)
            fatal("trace= requires a timed run (the functional path "
                  "has no cycle timeline)");
        trace_event::TracerConfig trace_config;
        trace_config.path = config_.tracePath;
        trace_config.cap = config_.traceCap;
        tracer_ = std::make_unique<trace_event::Tracer>(trace_config);
        cache_->attachTracer(*tracer_);
        nvm->attachTracer(*tracer_);
        // txn.* metrics exist only on traced runs, so untraced run
        // reports keep their baseline key set.
        tracer_->registerMetrics(registry_, "txn");
    }

    if (!config_.telemetryPath.empty()) {
        telemetry::TelemetryConfig telem;
        telem.path = config_.telemetryPath;
        telem.interval = config_.telemetryInterval;
        telemetry::FlightRecorder::Header header;
        header.spec = canonicalConfigSpec(config_);
        header.units = config_.runTimed ? "reads" : "accesses";
        // Expected final position (warm accesses plus the measured
        // phase), for the auto cadence and the (volatile) ETA field.
        // warm=0 means source-chosen auto quotas, so the warm leg is
        // an estimate then; 0 total = run-to-exhaustion, no ETA.
        std::uint64_t warm_units =
            config_.warmPerCore * config_.numCores;
        if (config_.warmPerCore == 0) {
            for (const auto &source : sources)
                warm_units += source->defaultWarmQuota();
        }
        header.totalUnits = warm_units
            + (config_.runTimed
                   ? config_.timedPerCore * config_.numCores
                   : config_.measurePerCore * config_.numCores);
        recorder_ = std::make_unique<telemetry::FlightRecorder>(
            telem, header);
    }
}

System::~System() = default;

void
System::warm()
{
    if (recorder_)
        recorder_->profiler().enterPhase("warm", progress_, eq.now());

    // Auto quota: each source knows how much functional warmup makes
    // sense for it (enough footprint passes for the synthetic models,
    // none for bounded streams that warmup would consume).
    std::vector<std::uint64_t> quota(config_.numCores);
    for (unsigned core = 0; core < config_.numCores; ++core) {
        quota[core] = config_.warmPerCore > 0
            ? config_.warmPerCore
            : sources[core]->defaultWarmQuota();
    }
    roundRobin("warm", std::move(quota));
}

void
System::measureFunctional()
{
    if (recorder_)
        recorder_->profiler().enterPhase("measure", progress_, eq.now());

    // A bounded source with measure=0 runs to exhaustion (trace and
    // sampled replays); an unbounded one needs an explicit budget.
    std::vector<std::uint64_t> quota(config_.numCores);
    for (unsigned core = 0; core < config_.numCores; ++core) {
        if (config_.measurePerCore > 0)
            quota[core] = config_.measurePerCore;
        else if (sources[core]->bounded())
            quota[core] = ~std::uint64_t(0);
    }
    roundRobin("measure", std::move(quota));
}

void
System::roundRobin(const char *phase, std::vector<std::uint64_t> quota)
{
    // Fine-grained round-robin so cores interleave in the sets the way
    // concurrent execution would.
    constexpr unsigned chunk = 8;
    bool any = true;
    while (any) {
        any = false;
        for (unsigned core = 0; core < config_.numCores; ++core) {
            std::uint64_t n = std::min<std::uint64_t>(chunk, quota[core]);
            while (n > 0 && !sources[core]->exhausted()) {
                funcAccess(core);
                --n;
                --quota[core];
            }
            if (sources[core]->exhausted())
                quota[core] = 0;
            any = any || quota[core] > 0;
        }
        sample(phase);
    }
}

std::uint64_t
System::completedReads() const
{
    std::uint64_t completed = 0;
    for (const auto &core : cores)
        completed += core->completedReads();
    return completed;
}

void
System::sample(const char *phase)
{
    // Functional runs advance by the accesses funcAccess counts, timed
    // runs by the demand reads the cores complete (no cores exist
    // before the timed phase).
    const std::uint64_t completed = completedReads();
    const std::uint64_t measured = measured_ + completed;
    if (config_.epochEvery > 0 && measured >= next_epoch_at_) {
        epoch_series_.record(measured, registry_.snapshot());
        next_epoch_at_ = measured + config_.epochEvery;
    }
    const std::uint64_t position = progress_ + completed;
    if (recorder_ && recorder_->due(position))
        recorder_->heartbeat(telemetrySample(phase, position));
}

telemetry::HeartbeatSample
System::telemetrySample(const char *phase, std::uint64_t position) const
{
    // Every field is simulator state at a cadence-defined position —
    // deterministic, so the canonical stream is byte-identical across
    // re-runs and jobs= values.  The recorder adds the volatile host
    // fields itself, under the partitioned "host" object.
    telemetry::HeartbeatSample s;
    s.phase = phase;
    s.position = position;
    s.cycles = eq.now();
    const Ratio &reads = cache_->stats().readHits;
    s.reads = reads.total();
    s.readHits = reads.hits();
    s.eqPending = eq.size();
    s.eqExecuted = eq.executed();
    s.eqOccupancyPeak = eq.occupancyPeak();
    s.eqOverflowSpills = eq.overflowSpills();
    s.poolLive = cache_->liveTxns();
    s.poolBlockBytes = cache_->txnBytes();
    s.stateBytes = cache_->residentStateBytes();
    return s;
}

void
System::funcAccess(unsigned core)
{
    const trace::Request req = sources[core]->next();
    // Warmup-replay accesses (sampled simulation) update cache state
    // under stats exclusion so measurements stay clean.
    if (req.warmup)
        cache_->beginStatsExclusion();
    if (req.kind == core::RequestKind::Writeback)
        cache_->warmWriteback(req.line);
    else
        cache_->warmRead(req.line);
    if (req.warmup)
        cache_->endStatsExclusion();
    ++progress_;
    // Sampled warmup-replay accesses update cache state but do not
    // advance the measured position.
    if (!req.warmup)
        ++measured_;
}

void
System::runTimed()
{
    if (recorder_)
        recorder_->profiler().enterPhase("timed", progress_, eq.now());
    cores.clear();
    for (unsigned core = 0; core < config_.numCores; ++core) {
        CoreParams params;
        params.mpki = assignment[core]->mpki;
        params.mlp = config_.mlp;
        params.quota = config_.timedPerCore;
        cores.push_back(std::make_unique<CoreModel>(
            core, params, *sources[core], *cache_, eq));
        cores.back()->setTracer(tracer_.get());
        cores.back()->registerMetrics(
            registry_, "core" + std::to_string(core));
    }
    for (auto &core : cores)
        core->start();

    const auto all_done = [this] {
        for (const auto &core : cores) {
            if (!core->finished())
                return false;
        }
        return true;
    };
    // Sampling runs on every 256th executed event, so an enabled
    // recorder stays within its <=1% overhead contract.  The stride
    // keys on eq.executed() -- deterministic simulation state -- and
    // the runner ticks between events, so every sample lands on the
    // same event boundary for any jobs= count.
    constexpr std::uint64_t kSampleStride = 256;
    eq.runUntil([this, &all_done] {
        if (eq.executed() % kSampleStride == 0)
            sample("timed");
        return all_done();
    });
    if (!all_done())
        panic("timed phase deadlocked: event queue drained with "
              "unfinished cores");
}

SystemMetrics
System::run()
{
    warm();
    cache_->resetStats();
    const std::uint64_t warmed = progress_;

    // Epoch positions count measurement-phase progress only; the
    // first sample lands once epochEvery units have elapsed.
    measured_ = 0;
    next_epoch_at_ = config_.epochEvery;

    if (config_.runTimed)
        runTimed();
    else
        measureFunctional();

    SystemMetrics m;
    m.eventsExecuted = eq.executed();
    m.accessesExecuted = progress_ - warmed;
    m.eqOccupancyPeak = eq.occupancyPeak();
    m.eqOverflowSpills = eq.overflowSpills();
    m.cacheStats = cache_->stats();
    m.hitRate = m.cacheStats.readHits.rate();
    m.wpAccuracy = m.cacheStats.wayPrediction.rate();
    m.transfersPerRead = m.cacheStats.transfersPerRead();
    m.hbmStats = cache_->hbm().aggregateStats();
    m.nvmStats = nvm->aggregateStats();
    if (cache_->policy())
        m.policyStorageBits = cache_->policy()->storageBits();
    m.residentStateBytes = cache_->residentStateBytes();
    m.finalMetrics = registry_.snapshot();
    m.epochs = epoch_series_;

    if (config_.runTimed) {
        Cycle last = 0;
        for (const auto &core : cores) {
            m.coreIpc.push_back(core->ipc());
            last = std::max(last, core->finishTime());
        }
        m.cycles = last;
        m.energy = computeEnergy(m.hbmStats, m.nvmStats, m.cycles);
    }

    if (tracer_) {
        m.traceJson = tracer_->toJson();
        tracer_->writeFile(m.traceJson);
    }

    // A run shorter than one heartbeat interval still gets exactly
    // this final record.
    if (recorder_)
        recorder_->finish(
            telemetrySample("end", progress_ + completedReads()));
    return m;
}

} // namespace accord::sim
