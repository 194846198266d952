#include "common/telemetry/telemetry.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "common/log.hpp"

#if defined(__linux__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace accord::telemetry
{

namespace
{

/**
 * Compact single-line JSON object builder.  The run-report JsonWriter
 * pretty-prints multi-line documents; telemetry needs one record per
 * line so streams stay appendable, tail-able, and truncation-safe.
 * Field order is the emission order, which is fixed per record type —
 * that is what makes the canonical portion of two streams comparable
 * byte-for-byte.
 */
class Line
{
  public:
    Line() : out_("{") {}

    Line &
    field(const char *key, const std::string &value)
    {
        return raw(key, "\"" + jsonEscape(value) + "\"");
    }

    Line &
    field(const char *key, const char *value)
    {
        return field(key, std::string(value));
    }

    Line &
    field(const char *key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    Line &
    field(const char *key, double value)
    {
        return raw(key, canonicalNumber(value));
    }

    /** Splice a pre-rendered JSON value (array/object) under `key`. */
    Line &
    raw(const char *key, const std::string &json)
    {
        if (out_.size() > 1)
            out_ += ',';
        out_ += '"';
        out_ += key;
        out_ += "\":";
        out_ += json;
        return *this;
    }

    std::string
    str() const
    {
        return out_ + "}";
    }

  private:
    std::string out_;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    // accord-lint: allow(wallclock) host-resource profiling is this
    // module's purpose; everything derived from it stays in the
    // volatile partition
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The volatile ("host") object every record type shares. */
std::string
hostJson(double wall_s, std::uint64_t rss_kb, std::uint64_t peak_rss_kb,
         double events_per_sec, double eta_s)
{
    return Line()
        .field("wall_s", wall_s)
        .field("rss_kb", rss_kb)
        .field("peak_rss_kb", peak_rss_kb)
        .field("events_per_sec", events_per_sec)
        .field("eta_s", eta_s)
        .str();
}

/** Canonical gauge fields shared by heartbeat and end records. */
void
addSampleFields(Line &line, const HeartbeatSample &sample)
{
    const double hit_rate = sample.reads > 0
        ? static_cast<double>(sample.readHits)
            / static_cast<double>(sample.reads)
        : 0.0;
    line.field("phase", sample.phase)
        .field("position", sample.position)
        .field("cycles", static_cast<std::uint64_t>(sample.cycles))
        .field("reads", sample.reads)
        .field("read_hits", sample.readHits)
        .field("hit_rate", hit_rate)
        .field("eq_pending", sample.eqPending)
        .field("eq_executed", sample.eqExecuted)
        .field("eq_occupancy_peak", sample.eqOccupancyPeak)
        .field("eq_overflow_spills", sample.eqOverflowSpills)
        .field("pool_live", sample.poolLive)
        .field("pool_block_bytes", sample.poolBlockBytes)
        .field("state_bytes", sample.stateBytes);
}

} // namespace

std::uint64_t
currentRssKb()
{
#if defined(__linux__)
    // One descriptor for the process lifetime, re-read with pread():
    // heartbeats sample RSS at cadence, and fopen-per-sample is the
    // dominant cost of a heartbeat on loaded hosts.
    static const int fd = ::open("/proc/self/statm", O_RDONLY);
    if (fd < 0)
        return 0;
    char buf[64];
    const ssize_t n = ::pread(fd, buf, sizeof buf - 1, 0);
    if (n <= 0)
        return 0;
    buf[n] = '\0';
    unsigned long long vm_pages = 0;
    unsigned long long rss_pages = 0;
    if (std::sscanf(buf, "%llu %llu", &vm_pages, &rss_pages) != 2)
        return 0;
    static const long page = ::sysconf(_SC_PAGESIZE);
    return rss_pages * static_cast<std::uint64_t>(page > 0 ? page : 4096)
        / 1024;
#else
    return 0;
#endif
}

// ---------------------------------------------------------------------
// RunProfiler
// ---------------------------------------------------------------------

void
RunProfiler::enterPhase(const std::string &name, std::uint64_t position,
                        Cycle cycles)
{
    close(position, cycles);
    Phase phase;
    phase.name = name;
    phase.startUnits = position;
    phase.startCycles = cycles;
    phases_.push_back(std::move(phase));
    open_ = true;
    // accord-lint: allow(wallclock) per-phase host-time attribution;
    // wall durations stay in the volatile partition
    phase_start_ = std::chrono::steady_clock::now();
}

void
RunProfiler::close(std::uint64_t position, Cycle cycles)
{
    if (!open_)
        return;
    Phase &phase = phases_.back();
    phase.units = position - phase.startUnits;
    phase.cycles = cycles - phase.startCycles;
    phase.wallS = secondsSince(phase_start_);
    open_ = false;
}

// ---------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------

FlightRecorder::FlightRecorder(const TelemetryConfig &config,
                               const Header &header)
    : config_(config),
      interval_(config.resolvedInterval(header.totalUnits)),
      next_at_(config.resolvedInterval(header.totalUnits)),
      total_units_(header.totalUnits)
{
    ACCORD_ASSERT(config_.enabled(),
                  "FlightRecorder needs an output path");
    out_ = std::fopen(config_.path.c_str(), "w");
    if (out_ == nullptr)
        fatal("telemetry: cannot open '%s' for writing",
              config_.path.c_str());
    // accord-lint: allow(wallclock) stream epoch for host profiling
    start_ = std::chrono::steady_clock::now();

    Line line;
    line.field("t", "hdr")
        .field("schema", kSchema)
        .field("units", header.units)
        .field("interval", interval_)
        .field("total_units", total_units_)
        .field("spec", header.spec)
        .raw("volatile",
             "[\"wall_s\",\"rss_kb\",\"peak_rss_kb\","
             "\"events_per_sec\",\"eta_s\"]")
        .field("volatile_container", "host");
    writeLine(line.str());
}

FlightRecorder::~FlightRecorder()
{
    // A recorder destroyed mid-run (exception unwind) still closes its
    // stream cleanly at the last observed state.
    if (!finished_)
        finish(last_sample_);
    if (out_ != nullptr)
        std::fclose(out_);
}

FlightRecorder::HostSample
FlightRecorder::sampleHost(const HeartbeatSample &sample)
{
    HostSample host;
    host.wallS = secondsSince(start_);
    host.rssKb = currentRssKb();
    peak_rss_kb_ = std::max(peak_rss_kb_, host.rssKb);
    host.peakRssKb = peak_rss_kb_;
    // Host throughput: executed events per wall second for timed runs;
    // functional runs have no events, so fall back to progress units.
    const auto work = static_cast<double>(
        sample.eqExecuted > 0 ? sample.eqExecuted : sample.position);
    host.eventsPerSec = host.wallS > 0.0 ? work / host.wallS : 0.0;
    if (total_units_ > 0 && sample.position > 0
        && sample.position < total_units_) {
        host.etaS = host.wallS
            * static_cast<double>(total_units_ - sample.position)
            / static_cast<double>(sample.position);
    }
    return host;
}

void
FlightRecorder::heartbeat(const HeartbeatSample &sample)
{
    if (finished_)
        return;
    last_sample_ = sample;
    const HostSample host = sampleHost(sample);

    Line line;
    line.field("t", "hb").field("seq", ++seq_);
    addSampleFields(line, sample);
    line.raw("host",
             hostJson(host.wallS, host.rssKb, host.peakRssKb,
                      host.eventsPerSec, host.etaS));
    writeLine(line.str());
    // Cadence advances from the crossing, not the nominal grid, so a
    // chunked caller that overshoots a boundary cannot double-fire.
    next_at_ = sample.position + interval_;
}

void
FlightRecorder::finish(const HeartbeatSample &sample)
{
    if (finished_)
        return;
    finished_ = true;
    last_sample_ = sample;
    profiler_.close(sample.position, sample.cycles);
    const HostSample host = sampleHost(sample);

    Line line;
    line.field("t", "end").field("seq", ++seq_);
    addSampleFields(line, sample);

    std::string phases = "[";
    for (const RunProfiler::Phase &phase : profiler_.phases()) {
        if (phases.size() > 1)
            phases += ',';
        phases += Line()
                      .field("name", phase.name)
                      .field("units", phase.units)
                      .field("cycles",
                             static_cast<std::uint64_t>(phase.cycles))
                      .raw("host",
                           Line().field("wall_s", phase.wallS).str())
                      .str();
    }
    phases += ']';
    line.raw("phases", phases);

    line.raw("host",
             hostJson(host.wallS, host.rssKb, host.peakRssKb,
                      host.eventsPerSec, host.etaS));
    writeLine(line.str());
}

void
FlightRecorder::writeLine(const std::string &line)
{
    std::fwrite(line.data(), 1, line.size(), out_);
    std::fputc('\n', out_);
    // Flush-per-record is the survivability contract: a killed run
    // leaves every completed heartbeat readable on disk.
    std::fflush(out_);
}

// ---------------------------------------------------------------------
// SweepProgress
// ---------------------------------------------------------------------

SweepProgress::SweepProgress(std::size_t total) : total_(total)
{
    // accord-lint: allow(wallclock) sweep ETA display only
    start_ = std::chrono::steady_clock::now();
}

SweepProgress::~SweepProgress()
{
    if (rendered_)
        std::fputc('\n', stderr);
}

void
SweepProgress::onRunStart()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ++started_;
    render();
}

void
SweepProgress::onRunFinish()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    render();
}

void
SweepProgress::render()
{
    const double elapsed = secondsSince(start_);
    char eta[64] = "";
    if (done_ > 0 && done_ < total_) {
        std::snprintf(eta, sizeof eta, ", eta %.0fs",
                      elapsed * static_cast<double>(total_ - done_)
                          / static_cast<double>(done_));
    }
    std::fprintf(stderr,
                 "\rsweep: %zu/%zu done, %zu in flight, %.1fs%s",
                 done_, total_, started_ - done_, elapsed, eta);
    std::fflush(stderr);
    rendered_ = true;
}

} // namespace accord::telemetry
