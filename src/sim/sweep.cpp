#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>

#include "common/log.hpp"
#include "common/telemetry/telemetry.hpp"
#include "sim/runner.hpp"

namespace accord::sim
{

unsigned
resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    return std::max(1u, std::thread::hardware_concurrency());
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    // Each index writes only its own error slot, so the lowest-index
    // rule needs no lock.
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    const std::size_t threads =
        std::min<std::size_t>(resolveJobs(jobs), n);
    if (threads <= 1) {
        work();
    } else {
        std::vector<std::thread> workers;
        workers.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            workers.emplace_back(work);
        for (std::thread &worker : workers)
            worker.join();
    }
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
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
runConfigs(const std::vector<SystemConfig> &configs, unsigned jobs,
           std::size_t first_run)
{
    // Workers write disjoint slots.
    std::vector<SystemMetrics> results(configs.size());
    std::vector<std::string> logs(configs.size());
    // One trace= or telemetry= path applied to several runs would
    // have every run clobber the same file; write one per run.
    const bool per_run_paths = configs.size() > 1 || first_run > 0;

    // Telemetry-enabled batches get a live done/in-flight/ETA line on
    // stderr (display only — results and streams are unaffected).
    bool any_telemetry = false;
    for (const SystemConfig &config : configs)
        any_telemetry = any_telemetry || !config.telemetryPath.empty();
    std::unique_ptr<telemetry::SweepProgress> progress;
    if (any_telemetry && configs.size() > 1)
        progress =
            std::make_unique<telemetry::SweepProgress>(configs.size());

    std::exception_ptr error;
    try {
        parallelFor(configs.size(), jobs, [&](std::size_t i) {
            ScopedLogCapture capture;
            SystemConfig config = configs[i];
            if (per_run_paths && !config.tracePath.empty())
                config.tracePath =
                    perRunTracePath(config.tracePath, first_run + i);
            if (per_run_paths && !config.telemetryPath.empty())
                config.telemetryPath = perRunTelemetryPath(
                    config.telemetryPath, first_run + i);
            if (progress)
                progress->onRunStart();
            results[i] = runSystem(config);
            if (progress)
                progress->onRunFinish();
            logs[i] = capture.take();
        });
    } catch (...) {
        error = std::current_exception();
    }
    // Terminate the progress line before replaying captured logs so
    // buffered warn()/inform() output starts on a fresh line.
    progress.reset();
    for (const std::string &text : logs)
        emitCapturedLog(text);
    if (error)
        std::rethrow_exception(error);
    return results;
}

std::vector<SystemMetrics>
runBatch(const std::vector<SystemConfig> &configs, const Config &cli)
{
    // Benches run their batches one after another on the main thread.
    static std::size_t runs_before = 0;
    const unsigned jobs = cli.getUint32("jobs", 0);
    cli.checkConsumed();
    const std::size_t first_run = runs_before;
    runs_before += configs.size();
    return runConfigs(configs, jobs, first_run);
}

} // namespace accord::sim
