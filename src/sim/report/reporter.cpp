#include "sim/report/reporter.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "common/log.hpp"

namespace accord::report
{

namespace
{

/** Value of "--<flag>=<value>" if `arg` matches, else nullptr. */
const char *
flagValue(const char *arg, const char *flag)
{
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(arg, flag, len) != 0)
        return nullptr;
    if (arg[len] != '=')
        return nullptr;
    return arg + len + 1;
}

} // namespace

Reporter::Reporter(int argc, char **argv, const char *title,
                   const char *paper_ref, std::uint64_t default_scale)
    : report_(title, paper_ref)
{
    for (int i = 1; i < argc; ++i) {
        if (const char *path = flagValue(argv[i], "--json")) {
            json_path_ = path;
            continue;
        }
        if (const char *path = flagValue(argv[i], "--csv")) {
            csv_path_ = path;
            continue;
        }
        if (!cli_.parseArg(argv[i]))
            fatal("malformed argument '%s' (want key=value, "
                  "--json=<path>, or --csv=<path>)",
                  argv[i]);
        const std::string arg = argv[i];
        const std::string key = arg.substr(0, arg.find('='));
        // jobs= only picks the worker count; results are bit-identical
        // across values, and reports must stay byte-identical too.
        if (key != "jobs")
            report_.setParam(key, arg.substr(arg.find('=') + 1));
    }

    const std::uint64_t scale = cli_.getUint("scale", default_scale);
    const std::uint64_t seed = cli_.getUint("seed", 1);
    report_.setParam("scale", std::to_string(scale));
    report_.setParam("seed", std::to_string(seed));

    std::printf("=== %s ===\n", title);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("scale=1/%llu seed=%llu (override with key=value args)"
                "\n",
                static_cast<unsigned long long>(scale),
                static_cast<unsigned long long>(seed));
}

ReportTable &
Reporter::table(const std::string &name,
                std::vector<std::string> columns)
{
    ReportTable &table = report_.addTable(name, std::move(columns));
    tables_.push_back(&table);
    return table;
}

void
Reporter::note(const char *fmt, ...)
{
    char buf[512];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    std::printf("%s\n", buf);
    report_.addNote(buf);
}

int
Reporter::finish()
{
    ACCORD_ASSERT(!finished_, "Reporter::finish() called twice");
    finished_ = true;

    cli_.checkConsumed();

    for (const ReportTable *table : tables_) {
        std::printf("\n-- %s --\n", table->name().c_str());
        table->print();
    }

    if (!json_path_.empty())
        report_.writeJsonFile(json_path_);
    if (!csv_path_.empty())
        report_.writeCsvFile(csv_path_);
    return 0;
}

} // namespace accord::report
