#include "sim/sweep.hpp"

#include <exception>
#include <future>
#include <memory>
#include <utility>

#include "common/log.hpp"
#include "common/telemetry/telemetry.hpp"
#include "sim/pool.hpp"
#include "sim/runner.hpp"

namespace accord::sim
{

unsigned
resolveJobs(unsigned jobs)
{
    return jobs == 0 ? ThreadPool::defaultJobs() : jobs;
}

SweepRunner::SweepRunner(unsigned jobs) : jobs_(resolveJobs(jobs)) {}

SweepRunner::SweepRunner(const Config &cli)
    : jobs_(resolveJobs(cli.getUint32("jobs", 0)))
{
}

std::string
perRunTracePath(const std::string &path, std::size_t index)
{
    const std::string suffix = ".run" + std::to_string(index);
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.find_last_of("/\\");
    if (dot == std::string::npos
        || (slash != std::string::npos && dot < slash))
        return path + suffix;
    return path.substr(0, dot) + suffix + path.substr(dot);
}

std::string
perRunTelemetryPath(const std::string &path, std::size_t index)
{
    static constexpr const char kExt[] = ".telemetry.jsonl";
    static constexpr std::size_t kExtLen = sizeof(kExt) - 1;
    if (path.size() > kExtLen
        && path.compare(path.size() - kExtLen, kExtLen, kExt) == 0) {
        return path.substr(0, path.size() - kExtLen) + ".run"
            + std::to_string(index) + kExt;
    }
    return perRunTracePath(path, index);
}

std::vector<SystemMetrics>
SweepRunner::runConfigs(const std::vector<SystemConfig> &configs) const
{
    // Workers write disjoint slots; the pool (declared last) joins
    // before the result vectors go away even on exception paths.
    std::vector<SystemMetrics> results(configs.size());
    std::vector<std::string> logs(configs.size());
    std::vector<std::future<void>> futures;
    futures.reserve(configs.size());

    // Telemetry-enabled batches get a live done/in-flight/ETA line on
    // stderr (display only — results and streams are unaffected).
    bool any_telemetry = false;
    for (const SystemConfig &config : configs)
        any_telemetry = any_telemetry || !config.telemetryPath.empty();
    std::unique_ptr<telemetry::SweepProgress> progress;
    if (any_telemetry && configs.size() > 1)
        progress =
            std::make_unique<telemetry::SweepProgress>(configs.size());

    ThreadPool pool(jobs_);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        futures.push_back(pool.submit([&, i] {
            ScopedLogCapture capture;
            SystemConfig config = configs[i];
            // One trace= applied to a whole batch would have every run
            // clobber the same file; write one trace per run instead.
            if (!config.tracePath.empty() && configs.size() > 1)
                config.tracePath =
                    perRunTracePath(config.tracePath, i);
            // Same for telemetry streams: one flight-recorder file
            // per run, named by batch position.
            if (!config.telemetryPath.empty() && configs.size() > 1)
                config.telemetryPath =
                    perRunTelemetryPath(config.telemetryPath, i);
            if (progress)
                progress->onRunStart();
            results[i] = runSystem(config);
            if (progress)
                progress->onRunFinish();
            logs[i] = capture.take();
        }));
    }

    // Wait for every run, remember the first failure by input index,
    // then replay captured log output in deterministic job order.
    std::exception_ptr first_error;
    for (std::future<void> &future : futures) {
        try {
            future.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    // Terminate the progress line before replaying captured logs so
    // buffered warn()/inform() output starts on a fresh line.
    progress.reset();
    for (const std::string &text : logs)
        emitCapturedLog(text);
    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

SweepResult
SweepRunner::runSpeedupSweep(std::vector<std::string> workloads,
                             std::vector<std::string> configs,
                             const Config &cli) const
{
    SweepResult result;
    result.workloads = std::move(workloads);
    result.configs = std::move(configs);
    const std::size_t num_workloads = result.workloads.size();
    const std::size_t num_configs = result.configs.size();

    // Resolve every run's SystemConfig up front on this thread;
    // baselines occupy [0, W), then configs workload-major.
    std::vector<SystemConfig> runs;
    runs.reserve(num_workloads * (1 + num_configs));
    for (const std::string &workload : result.workloads) {
        SystemConfig base = baselineConfig(workload);
        applyCliOverrides(base, cli);
        runs.push_back(std::move(base));
    }
    for (const std::string &workload : result.workloads) {
        for (const std::string &name : result.configs) {
            SystemConfig config = namedConfig(workload, name);
            config.runTimed = true;
            applyCliOverrides(config, cli);
            runs.push_back(std::move(config));
        }
    }

    std::vector<SystemMetrics> metrics = runConfigs(runs);

    for (std::size_t w = 0; w < num_workloads; ++w)
        result.baselines.push_back(std::move(metrics[w]));
    for (std::size_t w = 0; w < num_workloads; ++w) {
        for (std::size_t c = 0; c < num_configs; ++c) {
            const std::string &name = result.configs[c];
            SystemMetrics &m =
                metrics[num_workloads + w * num_configs + c];
            result.speedups[name].push_back(
                weightedSpeedup(m, result.baselines[w]));
            result.metrics[name].push_back(std::move(m));
        }
    }
    return result;
}

std::map<std::string, std::vector<SystemMetrics>>
SweepRunner::runFunctionalGrid(
    const std::vector<std::string> &workloads,
    const std::vector<std::string> &configs, const Config &cli) const
{
    std::vector<SystemConfig> runs;
    runs.reserve(workloads.size() * configs.size());
    for (const std::string &name : configs) {
        for (const std::string &workload : workloads) {
            SystemConfig config = namedConfig(workload, name);
            config.runTimed = false;
            applyCliOverrides(config, cli);
            runs.push_back(std::move(config));
        }
    }

    std::vector<SystemMetrics> metrics = runConfigs(runs);

    std::map<std::string, std::vector<SystemMetrics>> grid;
    std::size_t i = 0;
    for (const std::string &name : configs) {
        std::vector<SystemMetrics> &column = grid[name];
        for (std::size_t w = 0; w < workloads.size(); ++w)
            column.push_back(std::move(metrics[i++]));
    }
    return grid;
}

} // namespace accord::sim
