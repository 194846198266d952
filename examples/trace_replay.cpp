/**
 * @file
 * Trace record/replay workflow: capture an L4 access stream to a
 * trace file, then replay it against any cache configuration.
 *
 * This is the adoption path for users with real workloads: convert a
 * captured post-LLC miss stream to the compact accord.trace/1 binary
 * format with tools/convert_trace.py (docs/TRACES.md documents the
 * format) and point this tool at it.  Without a trace= argument the
 * example records a demo trace from the synthetic 'omnet' model
 * first, so it is runnable out of the box.
 *
 * Usage: trace_replay [trace=path.trc] [capacity=32M] [passes=4]
 */

#include <cstdio>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/factory.hpp"
#include "dramcache/controller.hpp"
#include "nvm/nvm_system.hpp"
#include "trace/bintrace.hpp"
#include "trace/generator.hpp"
#include "trace/workloads.hpp"

using namespace accord;

namespace
{

/** Record a demo trace from the synthetic omnet model. */
std::string
recordDemoTrace(std::uint64_t accesses)
{
    const std::string path = "/tmp/accord_demo_trace.trc";
    const auto &spec = trace::findBenchmark("omnet");
    const auto params = trace::generatorParams(spec, 0, 1, 256, 1);
    trace::WorkloadGen gen(params);
    trace::WritebackMixer mixer(gen, spec.wbFrac, 512, 7);

    trace::BinTraceWriter writer(path);
    for (std::uint64_t i = 0; i < accesses; ++i)
        writer.append(mixer.next());
    writer.close();
    std::printf("recorded %llu accesses to %s\n",
                static_cast<unsigned long long>(
                    writer.recordsWritten()),
                path.c_str());
    return path;
}

/** Replay the trace against one configuration (functional). */
void
replay(const std::string &path, unsigned ways,
       const std::string &policy_spec, std::uint64_t capacity,
       unsigned passes, TextTable &table)
{
    EventQueue eq;
    nvm::NvmSystem nvm(eq);

    dramcache::DramCacheParams params;
    params.capacityBytes = capacity;
    params.ways = ways;
    params.lookup = dramcache::LookupMode::Predicted;

    std::unique_ptr<core::WayPolicy> policy;
    if (!policy_spec.empty()) {
        core::CacheGeometry geom;
        geom.ways = ways;
        geom.sets = capacity / lineSize / ways;
        core::PolicyOptions opts;
        opts.seed = 11;
        policy = core::makePolicy(policy_spec, geom, opts);
    }
    dramcache::DramCacheController cache(params, std::move(policy),
                                         dram::hbmCacheTiming(), eq,
                                         nvm);

    // Warm passes, then one measured pass; exercised through the same
    // TrafficSource interface a full System run would use.
    trace::TraceSource source(path, /* loop */ false,
                              /* stripe_count */ 1,
                              /* stripe_index */ 0);
    const auto onePass = [&] {
        while (!source.exhausted()) {
            const trace::Request req = source.next();
            if (req.kind == core::RequestKind::Writeback)
                cache.warmWriteback(req.line);
            else
                cache.warmRead(req.line);
        }
        source.rewind();
    };
    for (unsigned pass = 0; pass + 1 < passes; ++pass)
        onePass();
    cache.resetStats();
    onePass();

    const auto &s = cache.stats();
    table.row()
        .cell(cache.describe())
        .percent(s.readHits.rate())
        .percent(s.wayPrediction.rate())
        .cell(s.transfersPerRead(), 3);
}

} // namespace

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);

    std::string path = cli.getString("trace", "");
    const std::uint64_t capacity =
        cli.getUint("capacity", 32ULL << 20);
    const unsigned passes = cli.getUint32("passes", 4);
    cli.checkConsumed();
    if (path.empty())
        path = recordDemoTrace(2'000'000);

    TextTable table({"config", "hit-rate", "wp-acc", "xfers/read"});
    replay(path, 1, "", capacity, passes, table);
    replay(path, 2, "rand", capacity, passes, table);
    replay(path, 2, "pws+gws", capacity, passes, table);
    replay(path, 8, "sws+gws", capacity, passes, table);
    table.print();
    return 0;
}
