/**
 * @file
 * Shared scaffolding for the table/figure-regeneration benches.
 *
 * Every bench binary regenerates one table or figure of the paper.
 * It resolves each run's SystemConfig once (sim::resolve), hands the
 * batch to sim::runBatch, which rejects a mistyped key before the
 * first simulation and fans the runs out over the sweep pool (jobs=),
 * and emits the rows/series the paper reports through a
 * report::Reporter.  The Reporter prints the human-readable tables
 * and, when --json=<path> / --csv=<path> are given, writes the
 * machine-readable run report built from the very same cells.
 * SpeedupSweep and FunctionalSweep are the two common batch shapes;
 * each keeps the configs it ran, so record() writes exactly those.
 */

#ifndef ACCORD_BENCH_COMMON_HPP
#define ACCORD_BENCH_COMMON_HPP

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "sim/report/reporter.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "trace/workloads.hpp"

namespace accord::bench
{

/**
 * Record one finished run into the report: its canonical config spec,
 * its final metric snapshot, the resident-state footprint (volatile
 * host partition), and (when epoch= sampling was on) its epoch
 * time-series.  residentStateBytes is deterministic — resident pages
 * are a pure function of the access stream — so recording it keeps
 * reports byte-identical across jobs= values; wall-clock or RSS host
 * values must stay out of this shared path for the same reason.
 */
inline void
recordRun(report::RunReport &report, const std::string &key,
          const sim::SystemConfig &config, const sim::SystemMetrics &m)
{
    report.setRunSpec(key, sim::canonicalConfigSpec(config));
    report.addRunMetrics(key, m.finalMetrics);
    report.addRunHostValue(
        key, "resident_state_bytes",
        static_cast<double>(m.residentStateBytes));
    if (!m.epochs.empty())
        report.addRunSeries(key, m.epochs);
}

/**
 * Position of `config` in a sweep's config list, once `workload` is
 * known to index its `workloads`.
 */
inline std::size_t
configIndex(const std::vector<std::string> &configs,
            const std::string &config, std::size_t workload,
            std::size_t workloads)
{
    const auto it = std::find(configs.begin(), configs.end(), config);
    ACCORD_ASSERT(it != configs.end() && workload < workloads,
                  "config '%s' on workload %zu is not in the sweep",
                  config.c_str(), workload);
    return static_cast<std::size_t>(it - configs.begin());
}

/**
 * Timed sweep: for each workload, the direct-mapped baseline once and
 * every named configuration, with speedups over the baseline.  One
 * batch, the baselines first, then the configurations workload-major;
 * that order names each run's trace=/telemetry= .runN file.
 */
class SpeedupSweep
{
  public:
    SpeedupSweep(std::vector<std::string> workloads,
                 std::vector<std::string> configs, const Config &cli)
        : workloads_(std::move(workloads)), configs_(std::move(configs))
    {
        for (const auto &workload : workloads_)
            runs_.push_back(sim::resolve(workload, "dm", true, cli));
        for (const auto &workload : workloads_) {
            for (const auto &name : configs_)
                runs_.push_back(sim::resolve(workload, name, true, cli));
        }
        metrics_ = sim::runBatch(runs_, cli);
    }

    const std::vector<std::string> &workloads() const
        { return workloads_; }
    const std::vector<std::string> &configs() const { return configs_; }

    double
    speedup(const std::string &config, std::size_t workload) const
    {
        return sim::weightedSpeedup(metrics(config, workload),
                                    baseline(workload));
    }

    double
    gmean(const std::string &config) const
    {
        std::vector<double> speedups;
        for (std::size_t w = 0; w < workloads_.size(); ++w)
            speedups.push_back(speedup(config, w));
        return geomean(speedups);
    }

    const sim::SystemMetrics &
    metrics(const std::string &config, std::size_t workload) const
    {
        return metrics_.at(index(config, workload));
    }

    const sim::SystemMetrics &
    baseline(std::size_t workload) const
    {
        return metrics_.at(workload);
    }

    /** Build the per-workload speedup table plus the gmean row. */
    report::ReportTable &
    addTable(report::Reporter &rep, const std::string &name) const
    {
        std::vector<std::string> header = {"workload"};
        for (const auto &config : configs())
            header.push_back(config);
        report::ReportTable &table = rep.table(name, header);
        for (std::size_t w = 0; w < workloads().size(); ++w) {
            table.row().cell(workloads()[w]);
            for (const auto &config : configs())
                table.cell(speedup(config, w), 3);
        }
        table.row().cell("gmean");
        for (const auto &config : configs())
            table.cell(gmean(config), 3);
        return table;
    }

    /**
     * Record every run of the sweep (baselines and configurations),
     * keyed "<workload>/dm" and "<workload>/<config>", with the
     * per-run "speedup" derived value attached.
     */
    void
    record(report::RunReport &report) const
    {
        for (std::size_t w = 0; w < workloads_.size(); ++w) {
            const std::string &workload = workloads_[w];
            recordRun(report, workload + "/dm", runs_[w], metrics_[w]);
            for (const auto &name : configs_) {
                const std::string key = workload + "/" + name;
                const std::size_t i = index(name, w);
                recordRun(report, key, runs_[i], metrics_[i]);
                report.addRunValue(key, "speedup", speedup(name, w));
            }
        }
    }

  private:
    /** Batch position: after the baselines, workload-major. */
    std::size_t
    index(const std::string &config, std::size_t workload) const
    {
        return workloads_.size() + workload * configs_.size()
            + configIndex(configs_, config, workload, workloads_.size());
    }

    std::vector<std::string> workloads_;
    std::vector<std::string> configs_;
    std::vector<sim::SystemConfig> runs_;
    std::vector<sim::SystemMetrics> metrics_;
};

/**
 * Functional sweep: every (workload, config) untimed measurement run
 * in one batch, config-major.  Benches that tabulate hit rates or
 * prediction accuracy iterate the grid.
 */
class FunctionalSweep
{
  public:
    FunctionalSweep(std::vector<std::string> workloads,
                    std::vector<std::string> configs, const Config &cli)
        : workloads_(std::move(workloads)), configs_(std::move(configs))
    {
        for (const auto &name : configs_) {
            for (const auto &workload : workloads_)
                runs_.push_back(sim::resolve(workload, name, false, cli));
        }
        metrics_ = sim::runBatch(runs_, cli);
    }

    const std::vector<std::string> &workloads() const
        { return workloads_; }
    const std::vector<std::string> &configs() const { return configs_; }

    const sim::SystemMetrics &
    metrics(const std::string &config, std::size_t workload) const
    {
        return metrics_.at(index(config, workload));
    }

    /** Arithmetic mean of one metric over all workloads of a config. */
    template <typename Fn>
    double
    mean(const std::string &config, Fn &&metric) const
    {
        std::vector<double> values;
        for (std::size_t w = 0; w < workloads_.size(); ++w)
            values.push_back(metric(metrics(config, w)));
        return amean(values);
    }

    /** Record every run of the grid, keyed "<workload>/<config>". */
    void
    record(report::RunReport &report) const
    {
        for (const auto &name : configs_) {
            for (std::size_t w = 0; w < workloads_.size(); ++w) {
                const std::size_t i = index(name, w);
                recordRun(report, workloads_[w] + "/" + name, runs_[i],
                          metrics_[i]);
            }
        }
    }

  private:
    /** Batch position: config-major. */
    std::size_t
    index(const std::string &config, std::size_t workload) const
    {
        return configIndex(configs_, config, workload, workloads_.size())
            * workloads_.size() + workload;
    }

    std::vector<std::string> workloads_;
    std::vector<std::string> configs_;
    std::vector<sim::SystemConfig> runs_;
    std::vector<sim::SystemMetrics> metrics_;
};

} // namespace accord::bench

#endif // ACCORD_BENCH_COMMON_HPP
