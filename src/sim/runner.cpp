#include "sim/runner.hpp"

#include "common/log.hpp"
#include "trace/sample.hpp"
#include "trace/source.hpp"

namespace accord::sim
{

SystemMetrics
runSystem(const SystemConfig &config)
{
    System system(config);
    return system.run();
}

double
weightedSpeedup(const SystemMetrics &config,
                const SystemMetrics &baseline)
{
    ACCORD_ASSERT(config.coreIpc.size() == baseline.coreIpc.size()
                      && !config.coreIpc.empty(),
                  "weighted speedup needs matching timed runs");
    double sum = 0.0;
    for (std::size_t i = 0; i < config.coreIpc.size(); ++i) {
        ACCORD_ASSERT(baseline.coreIpc[i] > 0.0,
                      "baseline core IPC must be positive");
        sum += config.coreIpc[i] / baseline.coreIpc[i];
    }
    return sum / static_cast<double>(config.coreIpc.size());
}

void
applyCliOverrides(SystemConfig &config, const Config &cli)
{
    // Zero scale, cores or mlp would crash deep inside the run
    // instead: scale divides the cache size, and a run without cores
    // or outstanding misses cannot make progress.
    config.scale = cli.getUint("scale", config.scale, 1);
    config.numCores = cli.getUint32("cores", config.numCores, 1);
    config.timedPerCore = cli.getUint("timed", config.timedPerCore);
    config.warmPerCore = cli.getUint("warm", config.warmPerCore);
    config.measurePerCore =
        cli.getUint("measure", config.measurePerCore);
    config.seed = cli.getUint("seed", config.seed);
    config.mlp = cli.getUint32("mlp", config.mlp, 1);
    config.jobs = cli.getUint32("jobs", config.jobs);
    config.epochEvery = cli.getUint("epoch", config.epochEvery);
    config.tracePath = cli.getString("trace", config.tracePath);
    config.traceCap = cli.getUint("trace_cap", config.traceCap);
    config.trafficSpec = cli.getString("source", config.trafficSpec);
    config.sampleSpec = cli.getString("sample", config.sampleSpec);
    config.stateBackend = dramcache::stateBackendFromToken(
        cli.getString("state_backend",
                      dramcache::toToken(config.stateBackend)));
    // Telemetry is pure observability: like jobs= and trace= it never
    // changes simulation results, so canonicalConfigSpec excludes it
    // and reports stay byte-identical with it on or off.
    config.telemetryPath =
        cli.getString("telemetry", config.telemetryPath);
    config.telemetryInterval =
        cli.getUint("telemetry_interval", config.telemetryInterval);
}

std::string
canonicalConfigSpec(const SystemConfig &config)
{
    const auto u64 = [](std::uint64_t v) { return std::to_string(v); };

    std::string spec;
    spec += "workload=" + config.workload;
    spec += " cores=" + u64(config.numCores);
    spec += " scale=" + u64(config.scale);
    spec += " cache_bytes=" + u64(config.cacheBytes());
    spec += " ways=" + u64(config.ways);
    spec += std::string(" org=") + dramcache::toToken(config.org);
    spec += std::string(" lookup=") + dramcache::toToken(config.lookup);
    spec += std::string(" dcp=") + (config.dcpWayBits ? "1" : "0");
    spec += std::string(" repl=")
        + dramcache::toToken(config.replacement);
    spec += std::string(" layout=") + dramcache::toToken(config.layout);
    spec += std::string(" mem=")
        + (config.nvmMainMemory ? "nvm" : "ddr");
    spec += " policy="
        + (config.policySpec.empty()
               ? std::string("none")
               : core::canonicalSpec(config.policySpec,
                                     config.policyOpts));
    spec += std::string(" phase=")
        + (config.runTimed ? "timed" : "functional");
    spec += " warm=" + u64(config.warmPerCore);
    spec += " measure=" + u64(config.measurePerCore);
    spec += " timed=" + u64(config.timedPerCore);
    spec += " mlp=" + u64(config.mlp);
    spec += " wb_lag=" + u64(config.wbLag);
    // Every stream is the post-L3 miss stream; the token stays so
    // reports keep matching the committed baselines byte for byte.
    spec += " hierarchy=post_l3";
    spec += " epoch=" + u64(config.epochEvery);
    spec += " seed=" + u64(config.seed);

    // Appended only for non-default frontends so reports produced
    // before the TrafficSource API stay byte-identical.
    if (config.trafficSpec != trace::kDefaultTrafficSpec
        || !config.sampleSpec.empty()) {
        spec += " source="
            + trace::canonicalTrafficSpec(config.trafficSpec);
        spec += " sample="
            + (config.sampleSpec.empty()
                   ? std::string("off")
                   : trace::SampleParams::fromString(config.sampleSpec)
                         .toString());
    }

    // Appended only when forced off Auto so reports produced before
    // the storage layer stay byte-identical.  The backend never
    // changes results (tools/check_equivalence.py proves dense and
    // paged runs identical at rtol 0), but a forced backend is still
    // part of the run's identity for footprint comparisons.
    if (config.stateBackend != dramcache::StateBackend::Auto) {
        spec += std::string(" state_backend=")
            + dramcache::toToken(config.stateBackend);
    }
    return spec;
}

SystemConfig
namedConfig(const std::string &workload,
            const std::string &config_name)
{
    SystemConfig config;
    config.workload = workload;
    config.ways = 1;
    config.policySpec.clear();
    if (config_name == "dm")
        return config;
    if (config_name == "ca") {
        config.org = dramcache::Organization::ColumnAssoc;
        return config;
    }

    // "<N>way-<mode-or-policy>"
    const auto dash = config_name.find('-');
    const auto way_pos = config_name.find("way");
    if (dash == std::string::npos || way_pos == std::string::npos
        || way_pos == 0 || dash < way_pos)
        fatal("bad config name '%s'", config_name.c_str());

    const std::string ways = config_name.substr(0, way_pos);
    bool ok = false;
    const std::uint64_t way_count =
        ways.find_first_not_of("0123456789") == std::string::npos
        ? parseSize(ways, &ok)
        : 0;
    if (!ok || way_count == 0 || way_count > UINT32_MAX)
        fatal("bad config name '%s' (way count '%s' is not a positive "
              "32-bit number)",
              config_name.c_str(), ways.c_str());
    config.ways = static_cast<unsigned>(way_count);
    const std::string tail = config_name.substr(dash + 1);

    if (tail == "lru") {
        // The LRU-in-DRAM ablation (paper footnote 2): serial lookup,
        // no steering, recency updates cost array writes.
        config.lookup = dramcache::LookupMode::Serial;
        config.replacement = dramcache::L4Replacement::Lru;
    } else if (tail == "parallel") {
        config.lookup = dramcache::LookupMode::Parallel;
    } else if (tail == "serial") {
        config.lookup = dramcache::LookupMode::Serial;
    } else if (tail == "ideal") {
        config.lookup = dramcache::LookupMode::Ideal;
    } else {
        config.lookup = dramcache::LookupMode::Predicted;
        config.policySpec = tail;
    }
    return config;
}

SystemConfig
resolve(const std::string &workload, const std::string &name,
        bool timed, const Config &cli)
{
    SystemConfig config = namedConfig(workload, name);
    config.runTimed = timed;
    applyCliOverrides(config, cli);
    return config;
}

} // namespace accord::sim
