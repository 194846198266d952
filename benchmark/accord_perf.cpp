/**
 * @file
 * accord_perf: the program benchmark/run.py runs.
 *
 * One invocation is one (workload, rep, mode) of the repository
 * benchmark and prints one JSON object on the last line of stdout.
 * run.py owns the workload definitions and passes them as the usual
 * key=value knobs (workload=, config=, phase=timed|functional, plus
 * everything sim::applyCliOverrides reads).  Modes:
 *
 *   run     Untraced.  Constructs sim::System setup_reps= times (each
 *           construction is one setup_s sample) and runs the last one;
 *           reports host seconds of System::run() and the simulated
 *           counters.  End-to-end metrics come only from this mode.
 *   traced  Rebuilds System's stack from the public constructors and
 *           replays System::run()'s exact sequence with spans at each
 *           layer boundary (see SpanRecorder).  Its counters must equal
 *           the untraced run's; its spans give per-layer host time.
 *   probe   Isolated layer probes fed with the workload's own request
 *           stream: way policy, tag-store lookup, HBM and NVM device
 *           operations, and event-queue dispatch.
 *   record  Writes the workload's per-core synthetic streams, one
 *           record per core in turn, as an accord.trace/1 file, so a
 *           trace(stripe=1) replay hands each core its own stream.
 *
 * Everything here goes through the simulator's public API; nothing in
 * src/ knows the benchmark exists.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/factory.hpp"
#include "dram/dram_system.hpp"
#include "dramcache/controller.hpp"
#include "dramcache/tag_store.hpp"
#include "nvm/nvm_system.hpp"
#include "sim/core_model.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "trace/bintrace.hpp"
#include "trace/sample.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

using namespace accord;

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** One flat JSON object, numbers at full precision. */
class Json
{
  public:
    Json &
    num(const std::string &key, double value)
    {
        char buf[40];
        if (std::isfinite(value))
            std::snprintf(buf, sizeof buf, "%.17g", value);
        else
            std::snprintf(buf, sizeof buf, "null");
        return raw(key, buf);
    }

    Json &
    count(const std::string &key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    Json &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, "\"" + value + "\"");
    }

    Json &
    list(const std::string &key, const std::vector<double> &values)
    {
        std::string text = "[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", values[i]);
            text += (i == 0 ? "" : ",") + std::string(buf);
        }
        return raw(key, text + "]");
    }

    Json &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// ---------------------------------------------------------------------
// Configuration shared by every mode.

sim::SystemConfig
makeConfig(const Config &cli)
{
    sim::SystemConfig config =
        sim::namedConfig(cli.getString("workload", "libq"),
                         cli.getString("config", "2way-pws+gws"));
    const std::string phase = cli.getString("phase", "timed");
    if (phase != "timed" && phase != "functional")
        fatal("phase must be timed or functional, not '%s'",
              phase.c_str());
    config.runTimed = phase == "timed";
    config.jobs = 1;
    sim::applyCliOverrides(config, cli);
    return config;
}

/** Geometry sim::System gives the way policy for `config`. */
core::CacheGeometry
cacheGeometry(const sim::SystemConfig &config)
{
    core::CacheGeometry geom;
    geom.ways = config.ways;
    geom.sets = config.cacheBytes() / lineSize / config.ways;
    return geom;
}

/** The way policy sim::System builds for `config` (null if none). */
std::unique_ptr<core::WayPolicy>
makeSystemPolicy(const sim::SystemConfig &config)
{
    if (config.policySpec.empty())
        return nullptr;
    const core::CacheGeometry geom = cacheGeometry(config);
    core::PolicyOptions opts = config.policyOpts;
    opts.seed = mix64(config.seed ^ 0xacc0d);
    if (config.stateBackend != dramcache::StateBackend::Auto) {
        opts.storage = dramcache::resolveStorageMode(config.stateBackend,
                                                     geom.lines());
    }
    return core::makePolicy(config.policySpec, geom, opts);
}

/**
 * The per-core sources sim::System builds for `config`; with
 * `sampled`, each is wrapped in the SimPoint sampler as System does.
 */
std::vector<std::unique_ptr<trace::TrafficSource>>
makeSources(const sim::SystemConfig &config, bool sampled)
{
    const auto assignment =
        trace::coreAssignment(config.workload, config.numCores);
    std::vector<std::unique_ptr<trace::TrafficSource>> sources;
    for (unsigned core = 0; core < config.numCores; ++core) {
        trace::SourceContext ctx;
        ctx.spec = assignment[core];
        ctx.core = core;
        ctx.numCores = config.numCores;
        ctx.scale = config.scale;
        ctx.seed = config.seed;
        ctx.wbLag = config.wbLag;
        auto source = trace::makeTrafficSource(config.trafficSpec, ctx);
        if (sampled && !config.sampleSpec.empty()) {
            trace::SampleParams sample =
                trace::SampleParams::fromString(config.sampleSpec);
            sample.seed = mix64(sample.seed ^ (0x5a3fULL + core));
            source = std::make_unique<trace::SampledSource>(
                std::move(source), sample);
        }
        sources.push_back(std::move(source));
    }
    return sources;
}

/**
 * The counters a run must reproduce exactly: the same seed and knobs
 * give the same values on every host and in the traced replay.
 */
std::string
countersJson(const sim::SystemMetrics &m)
{
    const dramcache::DramCacheStats &s = m.cacheStats;
    Json json;
    json.count("reads", s.readHits.total())
        .count("hits", s.readHits.hits())
        .count("wp_hits", s.wayPrediction.hits())
        .count("wp_lookups", s.wayPrediction.total())
        .count("transfers",
               s.cacheReadTransfers.value() + s.cacheWriteTransfers.value())
        .count("cycles", m.cycles)
        .list("ipc", m.coreIpc)
        .count("hbm_reads", m.hbmStats.readsServed)
        .count("hbm_writes", m.hbmStats.writesServed)
        .count("hbm_row_hits", m.hbmStats.rowHits)
        .num("hbm_read_latency", m.hbmStats.avgReadLatency)
        .count("nvm_reads", m.nvmStats.readsServed)
        .count("nvm_writes", m.nvmStats.writesServed)
        .num("nvm_read_latency", m.nvmStats.avgReadLatency)
        .count("events", m.eventsExecuted)
        .count("accesses", m.accessesExecuted)
        .count("eq_peak", m.eqOccupancyPeak)
        .count("eq_spills", m.eqOverflowSpills)
        .count("state_bytes", m.residentStateBytes);
    return json.text();
}

// ---------------------------------------------------------------------
// run: the untraced measurement.

int
runUntraced(const Config &cli, const sim::SystemConfig &config)
{
    const std::uint64_t setup_reps =
        std::max<std::uint64_t>(1, cli.getUint("setup_reps", 1));
    cli.checkConsumed();

    std::vector<double> setup;
    std::unique_ptr<sim::System> system;
    for (std::uint64_t i = 0; i < setup_reps; ++i) {
        system.reset();
        const std::int64_t t0 = nowNs();
        system = std::make_unique<sim::System>(config);
        setup.push_back(seconds(nowNs() - t0));
    }
    const std::int64_t t0 = nowNs();
    const sim::SystemMetrics m = system->run();
    const double run_s = seconds(nowNs() - t0);

    Json out;
    out.str("mode", "run")
        .list("setup_s", setup)
        .num("run_s", run_s)
        .raw("counters", countersJson(m));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// traced: spans around each layer call, recorded from outside src/.

enum SpanId : unsigned
{
    kSetup,
    kTraceSetup,
    kSourceNext,
    kWarmAccess,
    kEqStep,
    kSpanCount,
};

constexpr std::array<const char *, kSpanCount> kSpanNames = {
    "setup", "trace.setup", "source.next", "cache.warm_access", "eq.step"};

/**
 * Log-linear histogram of nanosecond durations: exact below 16 ns,
 * then 16 linear sub-buckets per power of two (<= 6.25% wide), so
 * percentiles interpolate to a few percent without storing samples.
 */
class LogHistogram
{
  public:
    void
    add(std::int64_t ns)
    {
        ++buckets_[index(static_cast<std::uint64_t>(std::max<std::int64_t>(
            ns, 0)))];
        ++count_;
    }

    /** Interpolated `q` quantile (0 when empty). */
    double
    quantile(double q) const
    {
        if (count_ == 0)
            return 0.0;
        const double target = q * static_cast<double>(count_);
        double below = 0.0;
        for (unsigned i = 0; i < buckets_.size(); ++i) {
            const double n = static_cast<double>(buckets_[i]);
            if (n > 0 && below + n >= target) {
                return static_cast<double>(lower(i))
                    + (target - below) / n
                    * static_cast<double>(width(i));
            }
            below += n;
        }
        return static_cast<double>(lower(buckets_.size() - 1));
    }

  private:
    static constexpr unsigned kSub = 16;

    static unsigned
    index(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<unsigned>(v);
        const unsigned e = 63 - static_cast<unsigned>(__builtin_clzll(v));
        return kSub + (e - 4) * kSub
            + static_cast<unsigned>((v >> (e - 4)) & (kSub - 1));
    }

    static std::uint64_t
    width(unsigned i)
    {
        return i < kSub ? 1 : std::uint64_t{1} << ((i - kSub) / kSub);
    }

    static std::uint64_t
    lower(unsigned i)
    {
        if (i < kSub)
            return i;
        const unsigned e = (i - kSub) / kSub + 4;
        return (std::uint64_t{1} << e) + ((i - kSub) % kSub) * width(i);
    }

    std::array<std::uint64_t, kSub + 60 * kSub> buckets_{};
    std::uint64_t count_ = 0;
};

/**
 * In-memory span recorder.  Each span is aggregated by name (count,
 * total, self time, histogram of self time); the first kRawCap spans
 * are also kept raw for a Chrome trace.
 *
 * Top-level spans are laid end to end: each starts where the previous
 * top-level span ended, so one clock read marks each boundary and loop
 * bookkeeping between two calls counts toward the next span.  skip()
 * restarts the chain, leaving the time since the last span uncovered;
 * the traced run calls it around the work between its phases.  Nested
 * spans read the clock at both ends, and their duration is subtracted
 * from the enclosing span's self time.
 */
class SpanRecorder
{
  public:
    static constexpr std::size_t kRawCap = 50'000;

    SpanRecorder() { raw_.reserve(kRawCap); }

    /** Restart the top-level chain now; returns the timestamp. */
    std::int64_t
    skip()
    {
        cursor_ = nowNs();
        if (origin_ == 0)
            origin_ = cursor_;
        return cursor_;
    }

    void
    begin(SpanId id)
    {
        if (depth_ == stack_.size())
            panic("span stack overflow at %s", kSpanNames[id]);
        const std::int64_t start = depth_ == 0 ? cursor_ : nowNs();
        stack_[depth_++] = Frame{id, start, 0};
    }

    void
    end()
    {
        const std::int64_t now = nowNs();
        const Frame frame = stack_[--depth_];
        const std::int64_t duration = now - frame.start;
        const std::int64_t self = duration - frame.child;
        Aggregate &agg = aggregates_[frame.id];
        ++agg.count;
        agg.totalNs += duration;
        agg.selfNs += self;
        agg.self.add(self);
        if (raw_.size() < kRawCap)
            raw_.push_back(Raw{frame.id, frame.start, duration, depth_});
        if (depth_ > 0) {
            stack_[depth_ - 1].child += duration;
        } else {
            cursor_ = now;
            covered_ += duration;
        }
    }

    /** Nanoseconds inside top-level spans. */
    std::int64_t coveredNs() const { return covered_; }

    std::string
    aggregatesJson() const
    {
        Json json;
        for (unsigned id = 0; id < kSpanCount; ++id) {
            const Aggregate &agg = aggregates_[id];
            Json one;
            one.count("count", agg.count)
                .num("total_ns", static_cast<double>(agg.totalNs))
                .num("self_ns", static_cast<double>(agg.selfNs))
                .num("self_p50_ns", agg.self.quantile(0.50))
                .num("self_p99_ns", agg.self.quantile(0.99));
            json.raw(kSpanNames[id], one.text());
        }
        return json.text();
    }

    /** Write the raw spans as Chrome trace-event JSON. */
    void
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *file = std::fopen(path.c_str(), "w");
        if (file == nullptr)
            fatal("cannot write span trace '%s'", path.c_str());
        std::fprintf(file, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (std::size_t i = 0; i < raw_.size(); ++i) {
            const Raw &span = raw_[i];
            std::fprintf(file,
                         "%s\n{\"name\":\"%s\",\"cat\":\"accord_perf\","
                         "\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                         "\"ts\":%.3f,\"dur\":%.3f}",
                         i == 0 ? "" : ",", kSpanNames[span.id],
                         span.depth + 1,
                         static_cast<double>(span.start - origin_) / 1e3,
                         static_cast<double>(span.duration) / 1e3);
        }
        std::fprintf(file, "\n]}\n");
        if (std::fclose(file) != 0)
            fatal("cannot finish span trace '%s'", path.c_str());
    }

  private:
    struct Frame
    {
        SpanId id;
        std::int64_t start;
        std::int64_t child;
    };

    struct Aggregate
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
        LogHistogram self;
    };

    struct Raw
    {
        SpanId id;
        std::int64_t start;
        std::int64_t duration;
        unsigned depth;
    };

    std::array<Frame, 4> stack_{};
    unsigned depth_ = 0;
    std::int64_t cursor_ = 0;
    std::int64_t origin_ = 0;
    std::int64_t covered_ = 0;
    std::array<Aggregate, kSpanCount> aggregates_{};
    std::vector<Raw> raw_;
};

/** Records a source.next span around every pull from `inner`. */
class TimedSource final : public trace::TrafficSource
{
  public:
    TimedSource(std::unique_ptr<trace::TrafficSource> inner,
                SpanRecorder &spans)
        : inner_(std::move(inner)), spans_(spans)
    {
    }

    trace::Request
    next() override
    {
        spans_.begin(kSourceNext);
        const trace::Request req = inner_->next();
        spans_.end();
        return req;
    }

    bool exhausted() const override { return inner_->exhausted(); }
    bool bounded() const override { return inner_->bounded(); }
    std::uint64_t size() const override { return inner_->size(); }
    bool rewind() override { return inner_->rewind(); }

    std::uint64_t
    defaultWarmQuota() const override
    {
        return inner_->defaultWarmQuota();
    }

    std::string describe() const override { return inner_->describe(); }

  private:
    std::unique_ptr<trace::TrafficSource> inner_;
    SpanRecorder &spans_;
};

/**
 * sim::System's construction and run() sequence (post-L3 streams, no
 * telemetry, epochs or tracer), assembled from the public constructors
 * with spans at each call into a layer.  Locals are declared in
 * System's member order so teardown order matches too.
 */
sim::SystemMetrics
runTracedStack(const sim::SystemConfig &config, SpanRecorder &spans,
               double &run_s)
{
    spans.begin(kSetup);
    EventQueue eq;
    auto nvm = std::make_unique<nvm::NvmSystem>(
        config.nvmMainMemory ? dram::pcmMainMemoryTiming()
                             : dram::ddrMainMemoryTiming(),
        eq);

    dramcache::DramCacheParams params;
    params.capacityBytes = config.cacheBytes();
    params.ways = config.ways;
    params.org = config.org;
    params.lookup = config.lookup;
    params.dcpWayBits = config.dcpWayBits;
    params.replacement = config.replacement;
    params.layout = config.layout;
    params.stateBackend = config.stateBackend;
    params.seed = config.seed * 0x9e3779b9ULL + 0x7;
    auto cache = std::make_unique<dramcache::DramCacheController>(
        params, makeSystemPolicy(config), dram::hbmCacheTiming(), eq,
        *nvm);

    const auto assignment =
        trace::coreAssignment(config.workload, config.numCores);
    spans.begin(kTraceSetup);
    auto sources = makeSources(config, true);
    spans.end();
    for (auto &source : sources)
        source = std::make_unique<TimedSource>(std::move(source), spans);
    spans.end();

    const std::int64_t run_start = nowNs();
    std::uint64_t accesses = 0;

    // System::funcAccess.
    const auto access = [&](unsigned core) {
        const trace::Request req = sources[core]->next();
        spans.begin(kWarmAccess);
        if (req.warmup)
            cache->beginStatsExclusion();
        if (req.kind == core::RequestKind::Writeback)
            cache->warmWriteback(req.line);
        else
            cache->warmRead(req.line);
        if (req.warmup)
            cache->endStatsExclusion();
        spans.end();
        return !req.warmup;
    };

    // System::warm and System::measureFunctional: round-robin in
    // chunks of 8 until every core's quota is spent or its source ran
    // dry.
    const auto roundRobin = [&](std::vector<std::uint64_t> remaining,
                                bool count) {
        constexpr unsigned chunk = 8;
        bool any = true;
        while (any) {
            any = false;
            for (unsigned core = 0; core < config.numCores; ++core) {
                std::uint64_t n =
                    std::min<std::uint64_t>(chunk, remaining[core]);
                while (n > 0 && !sources[core]->exhausted()) {
                    --n;
                    --remaining[core];
                    if (count)
                        ++accesses;
                    access(core);
                }
                if (sources[core]->exhausted())
                    remaining[core] = 0;
                any = any || remaining[core] > 0;
            }
        }
    };

    std::vector<std::uint64_t> warm(config.numCores);
    for (unsigned core = 0; core < config.numCores; ++core) {
        warm[core] = config.warmPerCore > 0
            ? config.warmPerCore
            : sources[core]->defaultWarmQuota();
    }
    roundRobin(warm, false);
    cache->resetStats();

    std::vector<std::unique_ptr<sim::CoreModel>> cores;
    if (config.runTimed) {
        for (unsigned core = 0; core < config.numCores; ++core) {
            sim::CoreParams core_params;
            core_params.mpki = assignment[core]->mpki;
            core_params.mlp = config.mlp;
            core_params.quota = config.timedPerCore;
            cores.push_back(std::make_unique<sim::CoreModel>(
                core, core_params, *sources[core], *cache, eq));
        }
        spans.skip();
        for (auto &core : cores)
            core->start();
        const auto all_done = [&cores] {
            for (const auto &core : cores) {
                if (!core->finished())
                    return false;
            }
            return true;
        };
        while (!all_done()) {
            spans.begin(kEqStep);
            const bool ran = eq.step();
            spans.end();
            if (!ran)
                break;
        }
        if (!all_done())
            fatal("timed phase deadlocked: event queue drained with "
                  "unfinished cores");
    } else {
        std::vector<std::uint64_t> measure(config.numCores);
        for (unsigned core = 0; core < config.numCores; ++core) {
            if (config.measurePerCore > 0)
                measure[core] = config.measurePerCore;
            else if (sources[core]->bounded())
                measure[core] = ~std::uint64_t(0);
        }
        spans.skip();
        roundRobin(measure, true);
    }
    run_s = seconds(nowNs() - run_start);

    sim::SystemMetrics m;
    m.eventsExecuted = eq.executed();
    m.accessesExecuted = accesses;
    m.eqOccupancyPeak = eq.occupancyPeak();
    m.eqOverflowSpills = eq.overflowSpills();
    m.cacheStats = cache->stats();
    m.hbmStats = cache->hbm().aggregateStats();
    m.nvmStats = nvm->aggregateStats();
    m.residentStateBytes = cache->residentStateBytes();
    for (const auto &core : cores) {
        m.coreIpc.push_back(core->ipc());
        m.cycles = std::max(m.cycles, core->finishTime());
    }
    return m;
}

int
runTraced(const Config &cli, const sim::SystemConfig &config)
{
    const std::string spans_path = cli.getString("spans", "");
    cli.checkConsumed();

    SpanRecorder spans;
    const std::int64_t wall_start = spans.skip();
    double run_s = 0.0;
    const sim::SystemMetrics m = runTracedStack(config, spans, run_s);
    const std::int64_t wall_ns = nowNs() - wall_start;

    if (!spans_path.empty())
        spans.writeChromeTrace(spans_path);
    Json out;
    out.str("mode", "traced")
        .num("wall_s", seconds(wall_ns))
        .num("run_s", run_s)
        .num("covered_s", seconds(spans.coveredNs()))
        .raw("spans", spans.aggregatesJson())
        .raw("counters", countersJson(m));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// probe: one layer at a time.

/** Operations per probe body call. */
constexpr unsigned kChunk = 4096;

/** Observable sink so probed results cannot be optimised away. */
volatile std::uint64_t g_sink = 0;

/**
 * Host ns per operation of `body` (which runs kChunk operations per
 * call): one discarded warm-up round, then the median of five rounds
 * of at least 40 ms each.
 */
template <typename Body>
double
nsPerOp(Body &&body)
{
    constexpr int kRounds = 5;
    constexpr std::int64_t kRoundNs = 40'000'000;
    std::vector<double> rounds;
    for (int round = -1; round < kRounds; ++round) {
        std::uint64_t ops = 0;
        const std::int64_t start = nowNs();
        std::int64_t now = start;
        do {
            ops += body();
            now = nowNs();
        } while (now - start < kRoundNs);
        if (round >= 0) {
            rounds.push_back(static_cast<double>(now - start)
                             / static_cast<double>(ops));
        }
    }
    std::sort(rounds.begin(), rounds.end());
    return rounds[kRounds / 2];
}

/**
 * The first `limit` requests the workload's sources emit, interleaved
 * in chunks of 8 per core as the warm phase pulls them (the sampler
 * is left out: the probes need the stream, not the window choice).
 */
std::vector<trace::Request>
collectStream(const sim::SystemConfig &config, std::size_t limit)
{
    auto sources = makeSources(config, false);
    std::vector<trace::Request> stream;
    stream.reserve(limit);
    bool any = true;
    while (any && stream.size() < limit) {
        any = false;
        for (auto &source : sources) {
            for (unsigned i = 0; i < 8 && !source->exhausted()
                 && stream.size() < limit;
                 ++i)
                stream.push_back(source->next());
            any = any || !source->exhausted();
        }
    }
    if (stream.empty())
        fatal("probe: the workload's sources emitted no requests");
    return stream;
}

/** Cycles through a request stream. */
class Cursor
{
  public:
    explicit Cursor(const std::vector<trace::Request> &stream)
        : stream_(stream)
    {
    }

    const trace::Request &
    next()
    {
        const trace::Request &req = stream_[pos_];
        pos_ = pos_ + 1 == stream_.size() ? 0 : pos_ + 1;
        return req;
    }

  private:
    const std::vector<trace::Request> &stream_;
    std::size_t pos_ = 0;
};

/** core.policy_ns: predict + install + onInstall per access. */
double
probePolicy(const sim::SystemConfig &config,
            const std::vector<trace::Request> &stream)
{
    std::unique_ptr<core::WayPolicy> policy = makeSystemPolicy(config);
    if (!policy)
        return 0.0;
    const core::CacheGeometry geom = cacheGeometry(config);
    Cursor cursor(stream);
    std::uint64_t sink = 0;
    const double ns = nsPerOp([&] {
        for (unsigned i = 0; i < kChunk; ++i) {
            const core::LineRef ref =
                core::LineRef::make(cursor.next().line, geom);
            sink += policy->predict(ref);
            const unsigned way = policy->install(ref);
            policy->onInstall(ref, way);
            sink += way;
        }
        return kChunk;
    });
    g_sink = g_sink + sink;
    return ns;
}

/**
 * storage.find_way_ns: TagStore::findWay over the stream, on a tag
 * store (backend resolved as the controller resolves it) that the
 * stream itself filled, installing each missing line round-robin over
 * the ways.
 */
double
probeFindWay(const sim::SystemConfig &config,
             const std::vector<trace::Request> &stream, bool &paged)
{
    const core::CacheGeometry geom = cacheGeometry(config);
    dramcache::TagStore tags(geom, config.stateBackend);
    paged = tags.storageMode() == StorageMode::Paged;
    unsigned next_way = 0;
    for (const trace::Request &req : stream) {
        const core::LineRef ref = core::LineRef::make(req.line, geom);
        if (tags.findWay(ref.set, ref.tag) < 0) {
            tags.install(ref.set, next_way, ref.tag, false);
            next_way = (next_way + 1) % geom.ways;
        }
    }
    Cursor cursor(stream);
    std::uint64_t sink = 0;
    const double ns = nsPerOp([&] {
        for (unsigned i = 0; i < kChunk; ++i) {
            const core::LineRef ref =
                core::LineRef::make(cursor.next().line, geom);
            sink += static_cast<std::uint64_t>(
                tags.findWay(ref.set, ref.tag) + 1);
        }
        return kChunk;
    });
    g_sink = g_sink + sink;
    return ns;
}

/**
 * dram.hbm_op_ns and nvm.op_ns: one line operation issued through
 * `issue` plus the device events it schedules, in batches of 32
 * outstanding operations (the 4 cores x mlp=8 the workloads run).
 */
template <typename Issue>
double
probeDevice(EventQueue &eq, const std::vector<trace::Request> &stream,
            Issue &&issue)
{
    constexpr unsigned kBatch = 32;
    Cursor cursor(stream);
    return nsPerOp([&] {
        for (unsigned i = 0; i < kChunk; ++i) {
            issue(cursor.next());
            if ((i + 1) % kBatch == 0)
                eq.run();
        }
        eq.run();
        return kChunk;
    });
}

double
probeHbm(const sim::SystemConfig &config,
         const std::vector<trace::Request> &stream)
{
    EventQueue eq;
    dram::TimingParams timing = dram::hbmCacheTiming();
    timing.capacityBytes = config.cacheBytes();
    dram::DramSystem hbm(timing, eq);
    std::uint64_t done = 0;
    const double ns = probeDevice(eq, stream, [&](const trace::Request &req) {
        hbm.accessLine(req.line,
                       req.kind == core::RequestKind::Writeback,
                       [&done](Cycle) { ++done; });
    });
    g_sink = g_sink + done;
    return ns;
}

double
probeNvm(const sim::SystemConfig &config,
         const std::vector<trace::Request> &stream)
{
    EventQueue eq;
    nvm::NvmSystem nvm(config.nvmMainMemory ? dram::pcmMainMemoryTiming()
                                            : dram::ddrMainMemoryTiming(),
                       eq);
    std::uint64_t done = 0;
    const double ns = probeDevice(eq, stream, [&](const trace::Request &req) {
        if (req.kind == core::RequestKind::Writeback)
            nvm.writeLine(req.line, [&done](Cycle) { ++done; });
        else
            nvm.readLine(req.line, [&done](Cycle) { ++done; });
    });
    g_sink = g_sink + done;
    return ns;
}

/**
 * event_queue.event_ns: scheduleAfter + step of an empty callback with
 * `occupancy` events pending, delays drawn below the calendar horizon
 * as the DRAM and NVM timings are.
 */
double
probeEventQueue(std::uint64_t occupancy, std::uint64_t seed)
{
    EventQueue eq;
    Rng rng(mix64(seed ^ 0xe0e0));
    std::vector<Cycle> delays(4096);
    for (Cycle &delay : delays)
        delay = 1 + rng.below(1024);
    std::size_t next = 0;
    for (std::uint64_t i = 0; i < occupancy; ++i)
        eq.scheduleAfter(delays[next++ % delays.size()], [] {});
    return nsPerOp([&] {
        for (unsigned i = 0; i < kChunk; ++i) {
            eq.scheduleAfter(delays[next++ % delays.size()], [] {});
            eq.step();
        }
        return kChunk;
    });
}

int
runProbes(const Config &cli, const sim::SystemConfig &config)
{
    const std::uint64_t occupancy =
        std::max<std::uint64_t>(1, cli.getUint("eq_peak", 1));
    cli.checkConsumed();

    const std::vector<trace::Request> stream =
        collectStream(config, 1u << 20);
    bool paged = false;
    Json probes;
    probes.num("core.policy_ns", probePolicy(config, stream))
        .num("storage.find_way_ns", probeFindWay(config, stream, paged))
        .num("dram.hbm_op_ns", probeHbm(config, stream))
        .num("nvm.op_ns", probeNvm(config, stream))
        .num("event_queue.event_ns",
             probeEventQueue(occupancy, config.seed));
    Json out;
    out.str("mode", "probe")
        .count("stream", stream.size())
        .str("storage_mode", paged ? "paged" : "dense")
        .raw("probes", probes.text());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// record: the replay workload's input trace.

int
recordTrace(const Config &cli, const sim::SystemConfig &config)
{
    const std::uint64_t records = cli.getUint("records", 32ULL << 20);
    const std::string path = cli.getString("out", "");
    cli.checkConsumed();
    if (path.empty())
        fatal("record needs out=<path>");

    auto sources = makeSources(config, false);
    trace::BinTraceWriter writer(path);
    for (std::uint64_t i = 0; i < records; ++i)
        writer.append(sources[i % sources.size()]->next());
    writer.close();

    Json out;
    out.str("mode", "record").count("records", writer.recordsWritten());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: accord_perf run|traced|probe|record "
                             "key=value...\n");
        return 2;
    }
    const std::string mode = argv[1];
    Config cli;
    cli.parseArgs(argc - 1, argv + 1);
    const sim::SystemConfig config = makeConfig(cli);
    if (mode == "run")
        return runUntraced(cli, config);
    if (mode == "traced")
        return runTraced(cli, config);
    if (mode == "probe")
        return runProbes(cli, config);
    if (mode == "record")
        return recordTrace(cli, config);
    fatal("unknown mode '%s' (run, traced, probe or record)",
          mode.c_str());
}
