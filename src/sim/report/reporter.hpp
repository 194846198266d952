/**
 * @file
 * Bench-facing front end of the report layer.
 *
 * A Reporter owns one bench invocation's CLI, RunReport, and console
 * output.  Benches build tables and notes through it; the same cells
 * feed both the human-readable text on stdout and the machine-readable
 * JSON/CSV report, so the two can never diverge.  `--json=<path>` and
 * `--csv=<path>` (parsed here, before the key=value Config) select the
 * report files written by finish().
 *
 * This layer is the one place allowed to print metrics: the analyzer
 * (tools/accord_analyzer, rule printf-metrics) flags direct
 * std::printf of results inside bench/ sources.
 */

#ifndef ACCORD_SIM_REPORT_REPORTER_HPP
#define ACCORD_SIM_REPORT_REPORTER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/report/report.hpp"

namespace accord::report
{

/** One bench invocation: CLI + report + console output. */
class Reporter
{
  public:
    /**
     * Parse `--json=<path>` / `--csv=<path>` out of argv, feed the
     * remaining key=value tokens to the Config, print the bench
     * banner, and seed the report with the run parameters.
     * `default_scale` is the scale the bench's runs use when the CLI
     * has no scale= (SystemConfig's 128 unless the bench forces one);
     * the banner and params.scale name it.
     */
    Reporter(int argc, char **argv, const char *title,
             const char *paper_ref, std::uint64_t default_scale = 128);

    Reporter(const Reporter &) = delete;
    Reporter &operator=(const Reporter &) = delete;

    /** CLI overrides (without the --json/--csv flags). */
    const Config &cli() const { return cli_; }

    /** The underlying report, for run records and canonical specs. */
    RunReport &report() { return report_; }

    /**
     * Create a table that finish() will both print and serialize.
     * The reference stays valid for the Reporter's lifetime.
     */
    ReportTable &table(const std::string &name,
                       std::vector<std::string> columns);

    /** Print a free-form line now and record it in the report. */
    void note(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    /**
     * Print every table (in creation order), verify all CLI keys were
     * consumed, and write the JSON/CSV files if requested.  Returns 0
     * so benches can `return reporter.finish();`.
     */
    int finish();

  private:
    Config cli_;
    RunReport report_;
    std::string json_path_;
    std::string csv_path_;
    std::vector<ReportTable *> tables_;
    bool finished_ = false;
};

} // namespace accord::report

#endif // ACCORD_SIM_REPORT_REPORTER_HPP
