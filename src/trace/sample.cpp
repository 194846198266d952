#include "trace/sample.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "trace/bintrace.hpp"

namespace accord::trace
{

namespace
{

/** Squared L2 distance between a window signature and a centroid. */
double
dist2(const float *sig, const double *centroid, unsigned dims)
{
    double sum = 0.0;
    for (unsigned d = 0; d < dims; ++d) {
        const double diff = static_cast<double>(sig[d]) - centroid[d];
        sum += diff * diff;
    }
    return sum;
}

/**
 * Count `take` records, lines[0], lines[stride], ..., into `signature`,
 * each in bucket(mix64(regionOf(line))); returns the line after them.
 */
template <class Bucket>
const LineAddr *
countBuckets(float *signature, const LineAddr *lines, std::uint64_t take,
             std::size_t stride, Bucket bucket)
{
    for (std::uint64_t i = 0; i < take; ++i, lines += stride)
        signature[bucket(mix64(regionOf(*lines)))] += 1.0F;
    return lines;
}

/** Records profileOf() hands SignatureBuilder per call. */
constexpr std::size_t kProfileBatch = 4096;

/** Pass 1 over `inner` itself; fatal() on an unbounded stream. */
SampleProfile
profileOf(TrafficSource &inner, const SampleParams &params)
{
    if (!inner.bounded())
        fatal("sampling needs a bounded source (trace without loop=1 "
              "or synthetic(limit=)); got %s",
              inner.describe().c_str());
    SignatureBuilder builder(params.window, params.dims);
    std::vector<LineAddr> batch(kProfileBatch);
    while (!inner.exhausted()) {
        std::size_t got = 0;
        while (got < batch.size() && !inner.exhausted())
            batch[got++] = inner.next().line;
        builder.add(batch.data(), got);
    }
    return builder.finish();
}

/**
 * The TraceSources behind `inners` when one decodeStripes() pass can
 * profile them all (see sampleSources()); empty otherwise.
 */
std::vector<TraceSource *>
stripedTraces(const std::vector<std::unique_ptr<TrafficSource>> &inners)
{
    std::vector<TraceSource *> traces;
    for (const auto &inner : inners) {
        auto *trace = dynamic_cast<TraceSource *>(inner.get());
        if (trace == nullptr || !trace->bounded())
            return {};
        if (!traces.empty()
            && (trace->path() != traces[0]->path()
                || trace->stripeCount() != traces[0]->stripeCount()))
            return {};
        traces.push_back(trace);
    }
    return traces;
}

} // namespace

SignatureBuilder::SignatureBuilder(std::uint64_t window, unsigned dims)
    : window_(window), dims_(dims)
{
}

void
SignatureBuilder::add(const LineAddr *lines, std::uint64_t count,
                      std::size_t stride)
{
    // Windows are counted down, not divided out: pass 1 sees every
    // record of the trace.
    profile_.records += count;
    while (count > 0) {
        if (window_left_ == 0) {
            current_ = profile_.signatures.size();
            profile_.signatures.resize(current_ + dims_, 0.0F);
            ++profile_.windows;
            window_left_ = window_;
        }
        const std::uint64_t take = std::min(count, window_left_);
        float *const signature = profile_.signatures.data() + current_;
        const std::uint64_t dims = dims_;
        // With dims a power of two, hash % dims is a mask.
        lines = (dims & (dims - 1)) == 0
            ? countBuckets(signature, lines, take, stride,
                           [dims](std::uint64_t hash) {
                               return hash & (dims - 1);
                           })
            : countBuckets(signature, lines, take, stride,
                           [dims](std::uint64_t hash) {
                               return hash % dims;
                           });
        window_left_ -= take;
        count -= take;
    }
}

SampleProfile
SignatureBuilder::finish()
{
    // L1-normalize so the short tail window compares fairly.
    for (std::uint64_t w = 0; w < profile_.windows; ++w) {
        const std::uint64_t held = w + 1 < profile_.windows
            ? window_
            : profile_.records - w * window_;
        const float norm = 1.0F / static_cast<float>(held);
        for (std::uint64_t d = 0; d < dims_; ++d)
            profile_.signatures[w * dims_ + d] *= norm;
    }
    return std::move(profile_);
}

std::string
SampleParams::toString() const
{
    char rate_text[32];
    std::snprintf(rate_text, sizeof(rate_text), "%g", rate);
    std::string out;
    out += "window=" + std::to_string(window);
    out += ",clusters=" + std::to_string(clusters);
    out += ",rate=" + std::string(rate_text);
    out += ",warmup=" + std::to_string(warmup);
    out += ",prewarm=" + std::to_string(prewarm);
    out += ",dims=" + std::to_string(dims);
    out += ",iters=" + std::to_string(iters);
    out += ",seed=" + std::to_string(seed);
    return out;
}

SampleParams
SampleParams::fromString(const std::string &text)
{
    const Config list = Config::fromOptionList("sample", text);
    SampleParams params;
    params.window = list.getUint("window", params.window, 1);
    params.clusters = list.getUint32("clusters", params.clusters, 1);
    params.rate = list.getDouble("rate", params.rate, 0.0, 1.0,
                                 /* lo_open */ true);
    params.warmup = list.getUint("warmup", params.warmup);
    params.prewarm = list.getUint("prewarm", params.prewarm);
    params.dims = list.getUint32("dims", params.dims, 1);
    params.iters = list.getUint32("iters", params.iters, 1);
    params.seed = list.getUint("seed", params.seed);
    list.checkConsumed();
    return params;
}

SampledSource::SampledSource(std::unique_ptr<TrafficSource> inner,
                             const SampleParams &params)
    : SampledSource(std::move(inner), params, profileOf(*inner, params))
{
}

SampledSource::SampledSource(std::unique_ptr<TrafficSource> &&inner,
                             const SampleParams &params,
                             SampleProfile profile)
    : inner_(std::move(inner)), params_(params),
      inner_records_(profile.records), window_count_(profile.windows)
{
    if (inner_records_ == 0)
        fatal("sampling: inner source produced no records (%s)",
              inner_->describe().c_str());
    buildPlan(profile.signatures);
    if (!inner_->rewind())
        fatal("sampling needs a rewindable source; got %s",
              inner_->describe().c_str());
}

void
SampledSource::buildPlan(const std::vector<float> &signatures)
{
    const unsigned dims = params_.dims;
    const std::uint64_t windows = window_count_;
    const std::uint64_t k = std::min<std::uint64_t>(
        params_.clusters, windows);
    Rng rng(params_.seed);

    // k-means++ seeding: D^2-weighted draws through the private RNG.
    std::vector<double> centroids(k * dims, 0.0);
    std::vector<double> best_d2(
        windows, std::numeric_limits<double>::infinity());
    std::uint64_t picked = rng.below(windows);
    for (std::uint64_t c = 0; c < k; ++c) {
        if (c > 0) {
            double total = 0.0;
            for (std::uint64_t w = 0; w < windows; ++w)
                total += best_d2[w];
            if (total > 0.0) {
                const double r = rng.uniform() * total;
                double cum = 0.0;
                picked = windows - 1;
                for (std::uint64_t w = 0; w < windows; ++w) {
                    cum += best_d2[w];
                    if (cum >= r) {
                        picked = w;
                        break;
                    }
                }
            } else {
                picked = rng.below(windows);
            }
        }
        for (unsigned d = 0; d < dims; ++d) {
            centroids[c * dims + d] = static_cast<double>(
                signatures[picked * dims + d]);
        }
        for (std::uint64_t w = 0; w < windows; ++w) {
            best_d2[w] = std::min(
                best_d2[w], dist2(&signatures[w * dims],
                                  &centroids[c * dims], dims));
        }
    }

    // Lloyd iterations; ties break toward the lower cluster index and
    // empty clusters keep their previous centroid, so the result is a
    // pure function of (signatures, seed).
    std::vector<std::uint32_t> assign(windows, 0);
    std::vector<double> sums(k * dims);
    std::vector<std::uint64_t> sizes(k);
    for (unsigned iter = 0; iter < params_.iters; ++iter) {
        bool changed = false;
        for (std::uint64_t w = 0; w < windows; ++w) {
            std::uint32_t best = 0;
            double best_dist =
                std::numeric_limits<double>::infinity();
            for (std::uint64_t c = 0; c < k; ++c) {
                const double dist = dist2(&signatures[w * dims],
                                          &centroids[c * dims], dims);
                if (dist < best_dist) {
                    best_dist = dist;
                    best = static_cast<std::uint32_t>(c);
                }
            }
            changed = changed || assign[w] != best;
            assign[w] = best;
        }
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(sizes.begin(), sizes.end(), 0);
        for (std::uint64_t w = 0; w < windows; ++w) {
            ++sizes[assign[w]];
            for (unsigned d = 0; d < dims; ++d) {
                sums[assign[w] * dims + d] +=
                    static_cast<double>(signatures[w * dims + d]);
            }
        }
        for (std::uint64_t c = 0; c < k; ++c) {
            if (sizes[c] == 0)
                continue;
            for (unsigned d = 0; d < dims; ++d) {
                centroids[c * dims + d] = sums[c * dims + d]
                    / static_cast<double>(sizes[c]);
            }
        }
        if (!changed)
            break;
    }

    // Stratified proportional selection: round(rate * W) windows
    // total, split across clusters by size (largest-remainder), then
    // spread evenly inside each cluster.  Proportionality is what lets
    // plain aggregate stats stand in for SimPoint's per-window
    // weights.
    const std::uint64_t target = std::min<std::uint64_t>(
        windows,
        std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::llround(
                   params_.rate * static_cast<double>(windows)))));
    std::vector<std::vector<std::uint64_t>> members(k);
    for (std::uint64_t w = 0; w < windows; ++w)
        members[assign[w]].push_back(w);
    std::vector<std::uint64_t> quota(k, 0);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> remainders;
    std::uint64_t given = 0;
    for (std::uint64_t c = 0; c < k; ++c) {
        const std::uint64_t exact = target * members[c].size();
        quota[c] = exact / windows;
        given += quota[c];
        if (!members[c].empty() && quota[c] < members[c].size())
            remainders.emplace_back(exact % windows, c);
    }
    // Largest remainder first; equal remainders go to the lower
    // cluster index (sort is stable only with the explicit tiebreak).
    std::sort(remainders.begin(), remainders.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    for (const auto &[rem, c] : remainders) {
        (void)rem;
        if (given >= target)
            break;
        ++quota[c];
        ++given;
    }
    // Midpoint spacing ((2i+1)n/2q), not i*n/q: the latter always
    // starts at a cluster's first member, and with near-stationary
    // signatures every cluster's first occurrence is early in the
    // stream, so the whole selection collapses onto the cold-start
    // ramp.  Midpoints keep each cluster's picks temporally centered.
    for (std::uint64_t c = 0; c < k; ++c) {
        const std::uint64_t n = members[c].size();
        for (std::uint64_t i = 0; i < quota[c]; ++i)
            selected_.push_back(
                members[c][(2 * i + 1) * n / (2 * quota[c])]);
    }
    std::sort(selected_.begin(), selected_.end());

    // Replay coverage: each run of consecutive selected windows with
    // its warmup prefix, unioned with the [0, prewarm) span.  Which
    // replayed records are *measured* is decided per record at replay
    // time (window membership), so measured windows inside the
    // prewarm span stay measured.
    std::vector<Segment> raw;
    if (params_.prewarm > 0)
        raw.push_back(
            {0, std::min(inner_records_, params_.prewarm)});
    std::size_t i = 0;
    while (i < selected_.size()) {
        std::size_t j = i;
        while (j + 1 < selected_.size()
               && selected_[j + 1] == selected_[j] + 1)
            ++j;
        const std::uint64_t start = selected_[i] * params_.window;
        Segment seg;
        seg.from = start - std::min(start, params_.warmup);
        seg.to = std::min(inner_records_,
                          (selected_[j] + 1) * params_.window);
        raw.push_back(seg);
        i = j + 1;
    }
    // raw is sorted by `from` (prewarm starts at 0, runs ascend);
    // merge overlapping or adjacent intervals.
    std::sort(raw.begin(), raw.end(),
              [](const Segment &a, const Segment &b) {
                  return a.from < b.from;
              });
    for (const Segment &seg : raw) {
        if (!segments_.empty() && seg.from <= segments_.back().to) {
            segments_.back().to =
                std::max(segments_.back().to, seg.to);
        } else {
            segments_.push_back(seg);
        }
    }
    for (const Segment &seg : segments_)
        planned_events_ += seg.to - seg.from;
}

Request
SampledSource::next()
{
    ACCORD_ASSERT(!exhausted(),
                  "next() on an exhausted sampled source");
    const Segment &seg = segments_[seg_idx_];
    if (inner_pos_ < seg.from) {
        inner_->skip(seg.from - inner_pos_);
        inner_pos_ = seg.from;
    }
    Request req = inner_->next();
    if (inner_pos_ >= window_end_) {
        // First record replayed from a new window: look it up once.
        const std::uint64_t w = inner_pos_ / params_.window;
        window_end_ = (w + 1) * params_.window;
        while (sel_idx_ < selected_.size() && selected_[sel_idx_] < w)
            ++sel_idx_;
        window_selected_ =
            sel_idx_ < selected_.size() && selected_[sel_idx_] == w;
    }
    req.warmup = !window_selected_;
    req.position = emitted_++;
    ++inner_pos_;
    if (inner_pos_ >= seg.to)
        ++seg_idx_;
    return req;
}

bool
SampledSource::exhausted() const
{
    return seg_idx_ >= segments_.size();
}

bool
SampledSource::rewind()
{
    if (!inner_->rewind())
        return false;
    seg_idx_ = 0;
    sel_idx_ = 0;
    inner_pos_ = 0;
    window_end_ = 0;
    emitted_ = 0;
    return true;
}

std::string
SampledSource::describe() const
{
    return "sampled " + std::to_string(selected_.size()) + "/"
        + std::to_string(window_count_) + " windows over "
        + inner_->describe();
}

std::vector<std::unique_ptr<TrafficSource>>
sampleSources(std::vector<std::unique_ptr<TrafficSource>> inners,
              const SampleParams &params,
              const std::vector<std::uint64_t> &seeds)
{
    ACCORD_ASSERT(inners.size() == seeds.size(),
                  "one sampler seed per source");
    const auto seeded = [&params, &seeds](std::size_t i) {
        SampleParams own = params;
        own.seed = seeds[i];
        return own;
    };
    std::vector<std::unique_ptr<TrafficSource>> sampled;
    const std::vector<TraceSource *> traces = stripedTraces(inners);
    if (traces.empty()) {
        for (std::size_t i = 0; i < inners.size(); ++i) {
            sampled.push_back(std::make_unique<SampledSource>(
                std::move(inners[i]), seeded(i)));
        }
        return sampled;
    }

    const unsigned stripes = traces[0]->stripeCount();
    std::vector<SignatureBuilder> builders(
        stripes, SignatureBuilder(params.window, params.dims));
    // Each group starts a stride of every stripe: stripe s keeps
    // lines[s], lines[s + stripes], ...
    const auto keep = [&builders, stripes](const LineAddr *lines,
                                           std::size_t count) {
        for (unsigned s = 0; s < stripes && s < count; ++s)
            builders[s].add(lines + s, (count - s + stripes - 1) / stripes,
                            stripes);
    };
    const std::vector<std::vector<BinTraceReader::Mark>> marks =
        decodeStripes(traces[0]->path(), stripes, keep);
    std::vector<SampleProfile> profiles;
    for (SignatureBuilder &builder : builders)
        profiles.push_back(builder.finish());
    for (std::size_t i = 0; i < inners.size(); ++i) {
        const unsigned stripe = traces[i]->stripeIndex();
        traces[i]->adoptSeekIndex(marks[stripe]);
        sampled.push_back(std::make_unique<SampledSource>(
            std::move(inners[i]), seeded(i), profiles[stripe]));
    }
    return sampled;
}

} // namespace accord::trace
