/**
 * @file
 * BBV/SimPoint-style sampled simulation over any bounded
 * TrafficSource.
 *
 * The classic SimPoint recipe (Sherwood et al., ASPLOS 2002) profiles
 * a program as basic-block vectors over fixed-length instruction
 * windows, clusters the vectors with k-means, and simulates one
 * representative window per cluster.  This reproduction has no
 * instruction stream, so the analog signature is a *region-access
 * vector*: for each fixed-length window of the L4 request stream, a
 * histogram over hashed 4KB-region ids (L1-normalized, fixed
 * dimensionality) — phases that touch different page sets land far
 * apart, exactly like differing basic-block mixes.
 *
 * Cold-start bias is handled two ways: every selected window gets a
 * `warmup`-record replay prefix, and `prewarm` additionally replays
 * the first N records of the stream so the cache reaches a populated
 * state before (and exactly as in) the full run — the checkpoint-free
 * stand-in for SimPoint's architectural checkpoints.  Warmup-replay
 * records carry Request::warmup and are excluded from measured
 * statistics (the functional shell brackets them with the
 * controller's stats exclusion); records inside selected windows are
 * measured even when they fall inside the prewarm span.
 *
 * SampledSource wraps a bounded, rewindable inner source and makes
 * two passes: pass 1 streams the whole trace computing window
 * signatures (SignatureBuilder; bounded memory: dims floats per
 * window); then k-means (deterministically seeded via common/rng.hpp)
 * clusters the windows and a *stratified proportional* selection
 * picks round(rate * W) windows, spread evenly inside each cluster so
 * aggregate statistics honor phase weights without per-window
 * weighting machinery.  Pass 2 re-streams the trace, passing over the
 * gaps with TrafficSource::skip() and emitting only the selected
 * windows, each preceded by `warmup` accesses flagged Request::warmup
 * so the cache warms up but the statistics stay clean (the functional
 * shell excludes them; see DramCacheController stats exclusion).
 *
 * Pass 1 need not run inside the sampler: the plan is built from a
 * SampleProfile, whoever made it.  sampleSources() wraps a run's
 * per-core sources; when they stripe one accord.trace/1 file, it
 * decodes the file once for all cores (decodeStripes() in
 * bintrace.hpp) instead of once per core, and every plan and every
 * replayed stream is identical to what each core's own pass gives.
 * Either way SignatureBuilder takes the lines in batches: a run of a
 * self-profiled stream, or one stripe's strided slice of each group
 * that decodeStripes() hands over.
 *
 * docs/TRACES.md documents methodology and accuracy expectations.
 */

#ifndef ACCORD_TRACE_SAMPLE_HPP
#define ACCORD_TRACE_SAMPLE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "trace/source.hpp"

namespace accord::trace
{

/** Knobs of the sampling layer (the sample= CLI spec). */
struct SampleParams
{
    /** Requests per signature window. */
    std::uint64_t window = 4096;

    /** k-means cluster count (clamped to the window count). */
    unsigned clusters = 8;

    /** Target fraction of windows to replay (0 < rate <= 1). */
    double rate = 0.04;

    /** Cache-warmup requests replayed before each selected window
     *  (excluded from measured statistics). */
    std::uint64_t warmup = 1024;

    /**
     * Replay the first `prewarm` records of the stream as cache
     * warmup regardless of window selection (0 = off).  Size it near
     * the cache's line capacity so measured windows see a populated
     * cache; docs/TRACES.md discusses the policy.
     */
    std::uint64_t prewarm = 0;

    /** Signature dimensionality (hashed region-id buckets). */
    unsigned dims = 32;

    /** Maximum k-means iterations. */
    unsigned iters = 10;

    /** Seed of the sampler's private RNG stream. */
    std::uint64_t seed = 1;

    /**
     * Canonical fixed-order rendering
     * ("window=4096,clusters=8,rate=0.04,warmup=1024,prewarm=0,
     * dims=32,iters=10,seed=1"): every knob always appears, so run
     * reports fully identify the sampling configuration.
     */
    std::string toString() const;

    /**
     * Inverse of toString(); accepts any subset of knobs in any order,
     * unset knobs keep their defaults.  fatal() on unknown or repeated
     * keys, malformed values, and values out of range.
     */
    static SampleParams fromString(const std::string &text);
};

/** Pass 1's result over one stream: what a replay plan is built from. */
struct SampleProfile
{
    /** L1-normalized window signatures, dims floats per window. */
    std::vector<float> signatures;

    std::uint64_t windows = 0;  ///< signature windows
    std::uint64_t records = 0;  ///< records the stream held
};

/**
 * Pass 1's accumulator: add() each batch of a stream's lines in order,
 * then finish() gives its profile.  A window's signature counts its
 * records per hashed-region bucket, mix64(regionOf(line)) % dims.
 */
class SignatureBuilder
{
  public:
    SignatureBuilder(std::uint64_t window, unsigned dims);

    /**
     * Add the next `count` records of the stream, whose lines are
     * lines[0], lines[stride], ... lines[(count - 1) * stride].
     */
    void add(const LineAddr *lines, std::uint64_t count,
             std::size_t stride = 1);

    /** The profile of every record added, L1-normalized; the last
     *  call on a builder. */
    SampleProfile finish();

  private:
    std::uint64_t window_;
    std::uint64_t dims_;
    std::uint64_t window_left_ = 0;
    std::size_t current_ = 0;  ///< open window's first signature float
    SampleProfile profile_;
};

/** SimPoint-style sampling wrapper; see the file comment. */
class SampledSource final : public TrafficSource
{
  public:
    /**
     * Profile `inner` (must be bounded and rewindable; fatal()
     * otherwise) and build the replay plan.
     */
    SampledSource(std::unique_ptr<TrafficSource> inner,
                  const SampleParams &params);

    /**
     * Build the replay plan from `profile`, pass 1 over `inner` (from
     * its first record, with `params`' window and dims) made
     * elsewhere.  fatal() if the profile holds no records or `inner`
     * cannot rewind.  `inner` is taken by reference so the
     * constructor above can profile it in the same argument list that
     * hands it over.
     */
    SampledSource(std::unique_ptr<TrafficSource> &&inner,
                  const SampleParams &params, SampleProfile profile);

    Request next() override;
    bool exhausted() const override;
    bool bounded() const override { return true; }

    /** Requests the plan will emit (warmup prefixes included). */
    std::uint64_t size() const override { return planned_events_; }

    bool rewind() override;
    std::string describe() const override;

    // --- plan introspection (tests, bench_trace_replay) ---

    /** Records the inner source held (pass-1 count). */
    std::uint64_t innerRecords() const { return inner_records_; }

    /** Signature windows the inner stream divided into. */
    std::uint64_t windowCount() const { return window_count_; }

    /** Selected window indices, ascending. */
    const std::vector<std::uint64_t> &
    selectedWindows() const
    {
        return selected_;
    }

  private:
    /**
     * One contiguous replay range of inner-stream positions.  Whether
     * a replayed record is measured or warmup is not a segment
     * property: a record is measured iff its window is selected (the
     * prewarm span interleaves warmup gaps with measured windows).
     */
    struct Segment
    {
        std::uint64_t from;  ///< first replayed position
        std::uint64_t to;    ///< one past the last replayed position
    };

    void buildPlan(const std::vector<float> &signatures);

    std::unique_ptr<TrafficSource> inner_;
    SampleParams params_;

    std::uint64_t inner_records_ = 0;
    std::uint64_t window_count_ = 0;
    std::vector<std::uint64_t> selected_;
    std::vector<Segment> segments_;
    std::uint64_t planned_events_ = 0;

    // Pass-2 replay cursor.
    std::size_t seg_idx_ = 0;
    std::size_t sel_idx_ = 0;
    std::uint64_t inner_pos_ = 0;
    std::uint64_t window_end_ = 0;  ///< one past inner_pos_'s window
    bool window_selected_ = false;  ///< inner_pos_'s window is measured
    std::uint64_t emitted_ = 0;
};

/**
 * Wrap each of `inners` (fresh sources) in a SampledSource with
 * `params` and the matching entry of `seeds` as its seed: a run's
 * per-core sources.  When every inner is a bounded TraceSource over
 * one file with one stripe count, pass 1 is one decodeStripes() pass
 * over the file for all of them: each sampler plans from its stripe's
 * profile and each TraceSource adopts its stripe's seek index.
 * Otherwise each sampler profiles its own inner.  The plans and
 * replayed streams are the same either way.
 */
std::vector<std::unique_ptr<TrafficSource>>
sampleSources(std::vector<std::unique_ptr<TrafficSource>> inners,
              const SampleParams &params,
              const std::vector<std::uint64_t> &seeds);

} // namespace accord::trace

#endif // ACCORD_TRACE_SAMPLE_HPP
