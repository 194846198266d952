/**
 * @file
 * google-benchmark microbenchmarks of the hot simulator components:
 * policy decisions (PWS/GWS/SWS/partial-tag), RegionTable lookups,
 * TagStore way search, the RNG, the event queue, the DRAM channel's
 * FR-FCFS scheduler, the controller's timed read engine,
 * accord.trace/1 decode and skip, and the sampler's first pass.
 * These guard the simulator's own
 * performance — a full Fig-10 sweep runs hundreds of millions of
 * these operations.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "common/trace_event/tracer.hpp"
#include "core/factory.hpp"
#include "core/ganged.hpp"
#include "dram/channel.hpp"
#include "dramcache/controller.hpp"
#include "dramcache/tag_store.hpp"
#include "nvm/nvm_system.hpp"
#include "trace/bintrace.hpp"
#include "trace/sample.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

using namespace accord;

namespace
{

core::CacheGeometry
benchGeometry(unsigned ways, std::uint64_t cacheMiB = 64)
{
    core::CacheGeometry geom;
    geom.ways = ways;
    geom.sets = (cacheMiB << 20) / lineSize / ways;
    return geom;
}

void
policyPredictInstall(benchmark::State &state, const char *spec)
{
    const auto geom = benchGeometry(2);
    core::PolicyOptions opts;
    opts.seed = 42;
    const auto policy = core::makePolicy(spec, geom, opts);
    Rng rng(7);
    for (auto _ : state) {
        const auto ref =
            core::LineRef::make(rng.next() & 0xffffffff, geom);
        benchmark::DoNotOptimize(policy->predict(ref));
        const unsigned way = policy->install(ref);
        policy->onInstall(ref, way);
        benchmark::DoNotOptimize(way);
    }
}

void
BM_PolicyPws(benchmark::State &state)
{
    policyPredictInstall(state, "pws");
}

void
BM_PolicyPwsGws(benchmark::State &state)
{
    policyPredictInstall(state, "pws+gws");
}

void
BM_PolicySws(benchmark::State &state)
{
    policyPredictInstall(state, "sws");
}

void
BM_PolicyPartialTag(benchmark::State &state)
{
    policyPredictInstall(state, "ptag");
}

void
BM_RegionTableLookup(benchmark::State &state)
{
    core::RegionTable table(
        static_cast<unsigned>(state.range(0)));
    Rng rng(3);
    for (unsigned i = 0; i < table.entries(); ++i)
        table.insert(rng.next() & 0xff, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(table.lookup(rng.next() & 0xff));
}

/**
 * Way search for random lines in a full store: nearly every probe
 * misses and reads all its ways.  Args: ways, cache MiB.  The 64 MiB
 * stores are dense and fit a host L3; 8 ways at 256 MiB is
 * functional_large's 4M-line geometry, paged, with 32 MiB of tag
 * words, far beyond a core's L2.
 */
void
BM_TagStoreFindWay(benchmark::State &state)
{
    const auto geom =
        benchGeometry(static_cast<unsigned>(state.range(0)),
                      static_cast<std::uint64_t>(state.range(1)));
    dramcache::TagStore tags(geom);
    Rng rng(5);
    for (std::uint64_t i = 0; i < geom.lines(); ++i) {
        const auto ref = core::LineRef::make(rng.next(), geom);
        tags.install(ref.set, static_cast<unsigned>(i % geom.ways),
                     ref.tag, false);
    }
    for (auto _ : state) {
        const auto ref = core::LineRef::make(rng.next(), geom);
        benchmark::DoNotOptimize(tags.findWay(ref.set, ref.tag));
    }
}

void
BM_Rng(benchmark::State &state)
{
    Rng rng(11);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.below(1000));
}

void
BM_TraceHookOff(benchmark::State &state)
{
    // The instrumentation contract: with trace= unset every hook site
    // reduces to one branch on a null pointer.  This is what rides in
    // the simulator's hot loops, so it must stay at noise level next
    // to BM_Rng / BM_EventQueue.
    trace_event::Tracer *tracer = nullptr;
    benchmark::DoNotOptimize(tracer);
    Rng rng(13);
    std::uint64_t issued = 0;
    for (auto _ : state) {
        const LineAddr line = rng.next();
        trace_event::TxnId txn = trace_event::kNoTxn;
        if (tracer != nullptr)
            txn = tracer->begin(trace_event::TxnKind::Read, 0, line,
                                Cycle(issued));
        ++issued;
        benchmark::DoNotOptimize(txn);
    }
}

void
BM_TraceHookOn(benchmark::State &state)
{
    // Cost of a fully traced transaction (begin, lookup phase, probe
    // point, complete) with a small ring so memory stays bounded.
    trace_event::TracerConfig config;
    config.cap = 1024;
    trace_event::Tracer tracer(config);
    Rng rng(13);
    Cycle now = 0;
    for (auto _ : state) {
        const trace_event::TxnId txn = tracer.begin(
            trace_event::TxnKind::Read, 0, rng.next(), now);
        tracer.phaseBegin(txn, trace_event::Phase::Lookup, now);
        tracer.point(txn, trace_event::Point::ProbeIssue, now);
        tracer.phaseEnd(txn, trace_event::Phase::Lookup, now + 64);
        tracer.complete(txn, trace_event::RequestClass::HitPredict,
                        now + 64);
        now += 8;
        benchmark::DoNotOptimize(txn);
    }
}

void
BM_TelemetryOff(benchmark::State &state)
{
    // The flight-recorder contract mirrors the trace hooks: with
    // telemetry= unset every heartbeat site in System reduces to one
    // branch on a null recorder pointer, so a disabled recorder must
    // cost nothing measurable in the simulator's hot loops.
    telemetry::FlightRecorder *recorder = nullptr;
    benchmark::DoNotOptimize(recorder);
    std::uint64_t position = 0;
    for (auto _ : state) {
        ++position;
        if (recorder != nullptr && recorder->due(position))
            recorder->heartbeat(telemetry::HeartbeatSample{});
        benchmark::DoNotOptimize(position);
    }
}

void
BM_TelemetryOn(benchmark::State &state)
{
    // Worst-case recorder cost: interval=1 fires a heartbeat (host
    // sampling, JSON encode, flush) on every unit, into a bit-bucket.
    // Real runs amortize this over thousands of units per heartbeat.
    telemetry::TelemetryConfig config;
    config.path = "/dev/null";
    config.interval = 1;
    telemetry::FlightRecorder::Header header;
    header.spec = "bench micro";
    telemetry::FlightRecorder recorder(config, header);
    telemetry::HeartbeatSample sample;
    sample.phase = "timed";
    for (auto _ : state) {
        ++sample.position;
        ++sample.reads;
        if (recorder.due(sample.position))
            recorder.heartbeat(sample);
        benchmark::DoNotOptimize(sample.position);
    }
}

void
BM_EventQueue(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.scheduleAfter(10, [&sink] { ++sink; });
        eq.step();
    }
    benchmark::DoNotOptimize(sink);
}

/** Same-cycle bursts: the calendar bucket's FIFO append/pop path. */
void
BM_EventQueueBurst(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 8; ++i)
            eq.scheduleAfter(4, [&sink] { ++sink; });
        for (int i = 0; i < 8; ++i)
            eq.step();
    }
    benchmark::DoNotOptimize(sink);
}

/**
 * FR-FCFS scheduling on one HBM channel: reads arrive so that `depth`
 * are queued or in flight, half of them to the row last requested at
 * their bank and one in eight a priority continuation.  One iteration
 * is one completed read (its events plus one new arrival).
 */
void
BM_ChannelFrFcfs(benchmark::State &state)
{
    const auto depth = static_cast<unsigned>(state.range(0));
    const dram::TimingParams timing = dram::hbmCacheTiming();
    EventQueue eq;
    dram::Channel channel(0, timing, eq);
    std::vector<std::uint64_t> last_row(timing.banksPerChannel, 0);
    Rng rng(17);
    std::uint64_t completed = 0;
    const auto arrive = [&] {
        dram::MemOp op;
        op.loc.bank =
            static_cast<unsigned>(rng.below(timing.banksPerChannel));
        if (rng.below(2) != 0)
            last_row[op.loc.bank] = rng.below(1024);
        op.loc.row = last_row[op.loc.bank];
        op.priority = rng.below(8) == 0;
        op.onComplete = [&completed](Cycle) { ++completed; };
        channel.enqueue(std::move(op));
    };
    for (unsigned i = 0; i < depth; ++i)
        arrive();
    for (auto _ : state) {
        const std::uint64_t target = completed + 1;
        while (completed < target)
            eq.step();
        arrive();
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * The timed read engine end to end: controller read() through to its
 * completion callback, with 8 reads in flight (one core's MLP) on a
 * 16 MB 2-way pws+gws cache over PCM.  Arg 0 draws lines from a set a
 * quarter of the cache's size, warmed first (hit-heavy); arg 1 draws
 * them from 16x the capacity (miss-heavy: NVM reads, fills and
 * evictions).  One iteration is one completed read.
 */
void
BM_TimedRead(benchmark::State &state)
{
    const bool miss_heavy = state.range(0) != 0;
    dramcache::DramCacheParams params;
    params.capacityBytes = 16ULL << 20;
    params.ways = 2;
    params.lookup = dramcache::LookupMode::Predicted;
    params.auditInterval = 0;
    const std::uint64_t lines = params.capacityBytes / lineSize;
    core::CacheGeometry geom;
    geom.ways = params.ways;
    geom.sets = lines / params.ways;
    core::PolicyOptions opts;
    opts.seed = 42;

    EventQueue eq;
    nvm::NvmSystem nvm(eq);
    dramcache::DramCacheController cache(
        params, core::makePolicy("pws+gws", geom, opts),
        dram::hbmCacheTiming(), eq, nvm);

    const std::uint64_t span = miss_heavy ? lines * 16 : lines / 4;
    if (!miss_heavy) {
        for (LineAddr line = 0; line < span; ++line)
            cache.warmRead(line);
        cache.resetStats();
    }

    Rng rng(23);
    std::uint64_t completed = 0;
    const auto issue = [&] {
        cache.read(rng.below(span), [&completed](bool, Cycle) {
            ++completed;
        });
    };
    for (int i = 0; i < 8; ++i)
        issue();
    for (auto _ : state) {
        const std::uint64_t target = completed + 1;
        while (completed < target)
            eq.step();
        issue();
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["hit_rate"] = cache.stats().readHits.rate();
}

/**
 * A 1M-record accord.trace/1 file of the libq stream, written on first
 * use and removed at exit.
 */
const std::string &
benchTrace()
{
    struct TempTrace
    {
        std::string path = (std::filesystem::temp_directory_path()
                            / "accord_bench_decode.trc")
                               .string();

        TempTrace()
        {
            trace::SourceContext ctx;
            ctx.spec = trace::coreAssignment("libq", 1)[0];
            auto src = trace::makeTrafficSource("synthetic(limit=1M)", ctx);
            trace::BinTraceWriter writer(path);
            while (!src->exhausted())
                writer.append(src->next());
        }

        ~TempTrace() { std::remove(path.c_str()); }
    };
    static const TempTrace file;
    return file.path;
}

/** accord.trace/1 decode: one iteration is one record (ns/record). */
void
BM_BinTraceDecode(benchmark::State &state)
{
    trace::BinTraceReader reader(benchTrace());
    trace::Request req;
    for (auto _ : state) {
        if (!reader.next(req)) {
            state.PauseTiming();
            reader.rewind();
            state.ResumeTiming();
            reader.next(req);
        }
        benchmark::DoNotOptimize(req.line);
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * One sampled-replay gap: skip 60000 kept records of a 4-way striped
 * trace, then read one.  Arg 0 decodes the gap (a fresh source per
 * pass has no index ahead of it); arg 1 seeks through the index a
 * first pass left and decodes from the mark (not a stride multiple,
 * so that part is not empty).
 */
void
BM_TraceSourceSkip(benchmark::State &state)
{
    constexpr std::uint64_t kGap = 60'000;
    const bool indexed = state.range(0) != 0;
    auto fresh = [] {
        return std::make_unique<trace::TraceSource>(benchTrace(), false,
                                                    4, 0);
    };
    auto src = fresh();
    if (indexed) {
        while (!src->exhausted())
            src->next();
        src->rewind();
    }
    std::uint64_t left = src->size();
    for (auto _ : state) {
        if (left <= kGap) {
            state.PauseTiming();
            if (indexed)
                src->rewind();
            else
                src = fresh();
            left = src->size();
            state.ResumeTiming();
        }
        src->skip(kGap);
        benchmark::DoNotOptimize(src->next().line);
        left -= kGap + 1;
    }
    state.SetItemsProcessed(state.iterations() * kGap);
}

/**
 * The sampler's first pass over a 4-way striped trace: build all four
 * cores' sampled sources, as sim::System does for a 4-core run.  Arg
 * 0 gives each source its own pass (four decodes of the file); arg 1
 * shares one decode (sampleSources()).  Items are trace records.
 */
void
BM_SampledFirstPass(benchmark::State &state)
{
    constexpr unsigned kCores = 4;
    const bool shared = state.range(0) != 0;
    const trace::SampleParams params;
    const std::vector<std::uint64_t> seeds{1, 2, 3, 4};
    std::uint64_t records = 0;
    for (auto _ : state) {
        std::vector<std::unique_ptr<trace::TrafficSource>> sources;
        for (unsigned core = 0; core < kCores; ++core) {
            sources.push_back(std::make_unique<trace::TraceSource>(
                benchTrace(), false, kCores, core));
        }
        if (shared) {
            sources =
                trace::sampleSources(std::move(sources), params, seeds);
        } else {
            for (unsigned core = 0; core < kCores; ++core) {
                trace::SampleParams own = params;
                own.seed = seeds[core];
                sources[core] = std::make_unique<trace::SampledSource>(
                    std::move(sources[core]), own);
            }
        }
        records = 0;
        for (const auto &source : sources)
            records += static_cast<const trace::SampledSource &>(*source)
                           .innerRecords();
        benchmark::DoNotOptimize(records);
    }
    state.SetItemsProcessed(state.iterations() * records);
}

/** Beyond-horizon delays: overflow-heap push plus migration. */
void
BM_EventQueueFarFuture(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.scheduleAfter(EventQueue::kBuckets + 3, [&sink] { ++sink; });
        eq.step();
    }
    benchmark::DoNotOptimize(sink);
}

BENCHMARK(BM_PolicyPws);
BENCHMARK(BM_PolicyPwsGws);
BENCHMARK(BM_PolicySws);
BENCHMARK(BM_PolicyPartialTag);
BENCHMARK(BM_RegionTableLookup)->Arg(64)->Arg(256);
BENCHMARK(BM_TagStoreFindWay)
    ->ArgNames({"ways", "mib"})
    ->Args({2, 64})
    ->Args({8, 64})
    ->Args({8, 256});
BENCHMARK(BM_Rng);
BENCHMARK(BM_TraceHookOff);
BENCHMARK(BM_TraceHookOn);
BENCHMARK(BM_TelemetryOff);
BENCHMARK(BM_TelemetryOn);
BENCHMARK(BM_EventQueue);
BENCHMARK(BM_EventQueueBurst);
BENCHMARK(BM_EventQueueFarFuture);
BENCHMARK(BM_ChannelFrFcfs)->Arg(16);
BENCHMARK(BM_TimedRead)->Arg(0)->Arg(1);
BENCHMARK(BM_BinTraceDecode);
BENCHMARK(BM_TraceSourceSkip)->Arg(0)->Arg(1);
BENCHMARK(BM_SampledFirstPass)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
