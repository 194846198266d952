/**
 * @file
 * Flight-recorder telemetry: a live, append-only JSONL view of a run.
 *
 * The metric registry answers "what happened" after a run finishes and
 * the transaction tracer answers "why was this access slow"; neither
 * says anything while a multi-hour simulation is still in flight, and
 * a crashed or wedged run leaves no record at all.  The FlightRecorder
 * closes that gap: it appends one `accord.telemetry/1` JSON line per
 * heartbeat — and flushes after every line, so a killed run leaves a
 * readable partial stream ending at its last completed heartbeat.
 *
 * Heartbeats fire on DETERMINISTIC cadence (every `interval` progress
 * units — functional accesses or retired demand reads — never wall
 * time), so the canonical fields of two streams from the same config
 * are byte-identical across re-runs and `jobs=` values.  Host-side
 * observations (wall clock, RSS, events/sec, ETA) are genuinely
 * nondeterministic and therefore quarantined: every volatile field
 * lives inside a nested `"host"` object, the header declares the
 * partition, and tools/telemetry_report.py both enforces it and strips
 * it (--strip) to recover the comparable canonical stream.
 *
 * This is the ONLY place in the tree allowed to read the wall clock
 * outside bench harnesses: the analyzer's wallclock rule exempts
 * src/common/telemetry/ by path (tools/accord_analyzer/rules.py).
 */

#ifndef ACCORD_COMMON_TELEMETRY_TELEMETRY_HPP
#define ACCORD_COMMON_TELEMETRY_TELEMETRY_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace accord::telemetry
{

/** Stream schema identifier (header "schema" field). */
inline constexpr const char *kSchema = "accord.telemetry/1";

/** Flight-recorder knobs (SystemConfig carries a copy). */
struct TelemetryConfig
{
    /** Output JSONL path ("" = telemetry off). */
    std::string path;

    /** Heartbeat cadence in progress units (0 = auto). */
    std::uint64_t interval = 0;

    static constexpr std::uint64_t kDefaultInterval = 10000;
    static constexpr std::uint64_t kAutoHeartbeats = 64;

    bool enabled() const { return !path.empty(); }

    /**
     * Effective cadence for a run of `total_units` (0 = unknown).
     * An explicit interval= wins; the auto cadence is the larger of
     * kDefaultInterval and total/kAutoHeartbeats, so heartbeat cost is
     * bounded (at most ~kAutoHeartbeats per run) no matter how long
     * the run is.  Derived only from config values, so the cadence —
     * like the stream content — is deterministic.
     */
    std::uint64_t
    resolvedInterval(std::uint64_t total_units = 0) const
    {
        if (interval > 0)
            return interval;
        const std::uint64_t scaled = total_units / kAutoHeartbeats;
        return scaled > kDefaultInterval ? scaled : kDefaultInterval;
    }
};

/**
 * Canonical (deterministic) content of one heartbeat.  Everything in
 * here derives from simulator state at a cadence-defined position, so
 * it is identical across re-runs and `jobs=` values; the recorder adds
 * the volatile host observations itself, under the "host" key.
 */
struct HeartbeatSample
{
    /** Which run phase the heartbeat was taken in. */
    const char *phase = "";

    /** Progress units into the run (the cadence domain). */
    std::uint64_t position = 0;

    /** Simulated time (EventQueue::now). */
    Cycle cycles = 0;

    /** Demand reads observed / hit so far (hit-rate-so-far). */
    std::uint64_t reads = 0;
    std::uint64_t readHits = 0;

    /** EventQueue health: live depth, lifetime work, high-waters. */
    std::uint64_t eqPending = 0;
    std::uint64_t eqExecuted = 0;
    std::uint64_t eqOccupancyPeak = 0;
    std::uint64_t eqOverflowSpills = 0;

    /**
     * Controller transaction store: reads holding a transaction, and
     * bytes per transaction (0 before the first timed read).
     */
    std::uint64_t poolLive = 0;
    std::uint64_t poolBlockBytes = 0;

    /**
     * Host bytes backing per-set cache state (packed tag words,
     * predictor tables) at this heartbeat.  Deterministic —
     * resident pages are a pure function of the access stream — so it
     * lives with the canonical gauges, not under "host".
     */
    std::uint64_t stateBytes = 0;
};

/** Resident set size in kB from /proc/self/statm (0 if unreadable). */
std::uint64_t currentRssKb();

/**
 * Per-phase attribution of a run: which phase consumed how many
 * progress units, simulated cycles, and host seconds.
 */
class RunProfiler
{
  public:
    struct Phase
    {
        std::string name;
        std::uint64_t startUnits = 0;
        std::uint64_t units = 0;
        Cycle startCycles = 0;
        Cycle cycles = 0;
        /** Host seconds attributed to the phase (volatile). */
        double wallS = 0.0;
    };

    /** Close the open phase (if any) and start a new one. */
    void enterPhase(const std::string &name, std::uint64_t position,
                    Cycle cycles);

    /** Close the open phase at the run's final position. */
    void close(std::uint64_t position, Cycle cycles);

    const std::vector<Phase> &phases() const { return phases_; }

  private:
    double wallNow() const;

    std::vector<Phase> phases_;
    bool open_ = false;
    std::chrono::steady_clock::time_point phase_start_{};
};

/**
 * Writes one telemetry stream: header record at construction, one
 * heartbeat record per cadence crossing, one final record on finish()
 * — each its own flushed JSONL line.
 */
class FlightRecorder
{
  public:
    /** Run identity baked into the header record. */
    struct Header
    {
        /** Canonical config spec (sim::canonicalConfigSpec). */
        std::string spec;

        /** Cadence domain name ("accesses" or "reads"). */
        const char *units = "accesses";

        /** Expected total progress units (0 = unknown; no ETA). */
        std::uint64_t totalUnits = 0;
    };

    FlightRecorder(const TelemetryConfig &config, const Header &header);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Resolved heartbeat cadence in progress units. */
    std::uint64_t interval() const { return interval_; }

    /** True once `position` has crossed the next heartbeat cadence. */
    bool due(std::uint64_t position) const
        { return position >= next_at_; }

    /** Emit one heartbeat record and advance the cadence. */
    void heartbeat(const HeartbeatSample &sample);

    /**
     * Emit the final record (end-of-run totals and per-phase
     * attribution) and close the stream.  Idempotent; the destructor
     * calls it with whatever the last heartbeat saw if the caller
     * never did.
     */
    void finish(const HeartbeatSample &sample);

    RunProfiler &profiler() { return profiler_; }

  private:
    struct HostSample
    {
        double wallS = 0.0;
        std::uint64_t rssKb = 0;
        std::uint64_t peakRssKb = 0;
        double eventsPerSec = 0.0;
        double etaS = 0.0;
    };

    HostSample sampleHost(const HeartbeatSample &sample);
    void writeLine(const std::string &line);

    TelemetryConfig config_;
    std::uint64_t interval_;
    std::uint64_t next_at_;
    std::uint64_t total_units_;
    std::uint64_t seq_ = 0;
    std::uint64_t peak_rss_kb_ = 0;
    bool finished_ = false;
    HeartbeatSample last_sample_;
    std::FILE *out_ = nullptr;
    std::chrono::steady_clock::time_point start_;
    RunProfiler profiler_;
};

/**
 * Live done/in-flight/ETA progress line for a sweep batch, rendered to
 * stderr on run start/finish events (never on a timer — there is no
 * background thread).  Thread-safe; the worker threads of the sweep
 * pool drive it directly.  Display only: it never touches results.
 */
class SweepProgress
{
  public:
    explicit SweepProgress(std::size_t total);
    ~SweepProgress();

    SweepProgress(const SweepProgress &) = delete;
    SweepProgress &operator=(const SweepProgress &) = delete;

    void onRunStart();
    void onRunFinish();

  private:
    void render();

    std::mutex mutex_;
    std::size_t total_;
    std::size_t started_ = 0;
    std::size_t done_ = 0;
    bool rendered_ = false;
    std::chrono::steady_clock::time_point start_;
};

} // namespace accord::telemetry

#endif // ACCORD_COMMON_TELEMETRY_TELEMETRY_HPP
