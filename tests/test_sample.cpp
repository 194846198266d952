/**
 * @file
 * Unit tests for SimPoint-style sampled replay (trace/sample.hpp) and
 * its integration with the functional system shell.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "trace/bintrace.hpp"
#include "trace/sample.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

using namespace accord;
using namespace accord::trace;

namespace
{

/** Bounded single-core libq stream at a small scale. */
std::unique_ptr<TrafficSource>
boundedLibq(std::uint64_t limit, std::uint64_t seed = 1)
{
    SourceContext ctx;
    ctx.spec = coreAssignment("libq", 1)[0];
    ctx.core = 0;
    ctx.numCores = 1;
    ctx.scale = 4096;
    ctx.seed = seed;
    ctx.wbLag = 2048;
    return makeTrafficSource("synthetic(limit=" + std::to_string(limit)
                                 + ")",
                             ctx);
}

SampleParams
params(const std::string &spec)
{
    return SampleParams::fromString(spec);
}

/** Write `records` of the bounded libq stream as accord.trace/1. */
std::string
writeLibqTrace(const char *name, std::uint64_t records, bool gzip = false)
{
    const std::string path = std::string(::testing::TempDir())
        + "accord_sample_" + name + ".trc";
    auto src = boundedLibq(records);
    BinTraceWriter writer(path, gzip);
    while (!src->exhausted())
        writer.append(src->next());
    writer.close();
    return path;
}

/** Set a reserved control bit on record `index` of a plain trace. */
void
corruptRecord(const std::string &path, std::uint64_t index)
{
    std::uint64_t offset = 0;
    {
        BinTraceReader reader(path);
        ASSERT_EQ(reader.skip(index), index);
        offset = reader.mark().offset;
    }
    std::FILE *file = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fseek(file, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(0x80, file);  // reserved control bit
    std::fclose(file);
}

/**
 * Each of `cores` cores' fresh TraceSource over `path`, striped or
 * (stripe=0) whole, as sim::System builds them; `traces` gets a view
 * of each.
 */
std::vector<std::unique_ptr<TrafficSource>>
coreTraces(const std::string &path, unsigned cores, bool stripe,
           std::vector<TraceSource *> &traces)
{
    std::vector<std::unique_ptr<TrafficSource>> inners;
    for (unsigned core = 0; core < cores; ++core) {
        auto trace = std::make_unique<TraceSource>(
            path, false, stripe ? cores : 1, stripe ? core : 0);
        traces.push_back(trace.get());
        inners.push_back(std::move(trace));
    }
    return inners;
}

/** One sampler seed per core: core c seeds with c + 1. */
std::vector<std::uint64_t>
coreSeeds(unsigned cores)
{
    std::vector<std::uint64_t> out;
    for (unsigned core = 0; core < cores; ++core)
        out.push_back(core + 1);
    return out;
}

/**
 * `shared`, built by sampleSources() over `shared_trace`, against a
 * sampler with `p` and `seed` that profiled its own
 * TraceSource(path, stripes, index): the same plan, seek index and
 * replayed stream.
 */
void
expectSameAsOwnPass(SampledSource &shared, const TraceSource &shared_trace,
                    const std::string &path, unsigned stripes,
                    unsigned index, SampleParams p, std::uint64_t seed)
{
    auto own_trace =
        std::make_unique<TraceSource>(path, false, stripes, index);
    const TraceSource &own_index = *own_trace;
    p.seed = seed;
    SampledSource own(std::move(own_trace), p);
    EXPECT_EQ(shared.innerRecords(), own.innerRecords());
    EXPECT_EQ(shared.windowCount(), own.windowCount());
    EXPECT_EQ(shared.selectedWindows(), own.selectedWindows());
    EXPECT_EQ(shared.size(), own.size());
    EXPECT_EQ(shared_trace.seekMarks().size(), own_index.seekMarks().size());
    EXPECT_EQ(shared_trace.seekMarks(), own_index.seekMarks());
    while (!own.exhausted()) {
        ASSERT_FALSE(shared.exhausted());
        const Request a = shared.next();
        const Request b = own.next();
        ASSERT_EQ(a.line, b.line) << "position " << b.position;
        ASSERT_EQ(a.kind, b.kind) << "position " << b.position;
        ASSERT_EQ(a.cls, b.cls) << "position " << b.position;
        ASSERT_EQ(a.warmup, b.warmup) << "position " << b.position;
        ASSERT_EQ(a.position, b.position);
    }
    EXPECT_TRUE(shared.exhausted());
}

/** A functional run sampling `cores` stripes of the trace at `path`. */
sim::SystemConfig
stripedTraceConfig(const std::string &path, unsigned cores)
{
    sim::SystemConfig config = sim::namedConfig("libq", "2way-pws+gws");
    config.runTimed = false;
    config.scale = 4096;
    config.numCores = cores;
    config.warmPerCore = 0;
    config.measurePerCore = 0;
    config.trafficSpec = "trace(file=" + path + ",loop=0,stripe=1)";
    config.sampleSpec = "window=512,clusters=4,rate=0.05,warmup=64";
    return config;
}

/** Forwards everything but skip(), so skips take the next() loop. */
class NextOnlySource final : public TrafficSource
{
  public:
    explicit NextOnlySource(std::unique_ptr<TrafficSource> inner)
        : inner_(std::move(inner))
    {
    }

    Request next() override { return inner_->next(); }
    bool exhausted() const override { return inner_->exhausted(); }
    bool bounded() const override { return inner_->bounded(); }
    std::uint64_t size() const override { return inner_->size(); }
    bool rewind() override { return inner_->rewind(); }
    std::string describe() const override { return inner_->describe(); }

  private:
    std::unique_ptr<TrafficSource> inner_;
};

} // namespace

TEST(SampleParams, CanonicalRoundTrip)
{
    const SampleParams defaults;
    EXPECT_EQ(defaults.toString(),
              "window=4096,clusters=8,rate=0.04,warmup=1024,prewarm=0,"
              "dims=32,iters=10,seed=1");
    // Any subset parses; unset knobs keep defaults; order is free.
    const SampleParams p =
        params("prewarm=50k,rate=0.1,window=512");
    EXPECT_EQ(p.window, 512u);
    EXPECT_EQ(p.prewarm, 51200u);
    EXPECT_DOUBLE_EQ(p.rate, 0.1);
    EXPECT_EQ(p.clusters, 8u);
    EXPECT_EQ(SampleParams::fromString(p.toString()).toString(),
              p.toString());
}

TEST(SampleParamsDeath, RejectsMalformedSpecs)
{
    EXPECT_EXIT(params("window"), ::testing::ExitedWithCode(1),
                "malformed");
    EXPECT_EXIT(params("bogus=1"), ::testing::ExitedWithCode(1),
                "unknown");
    EXPECT_EXIT(params("rate=1.5"), ::testing::ExitedWithCode(1),
                "bad sample parameters");
    EXPECT_EXIT(params("window=0"), ::testing::ExitedWithCode(1),
                "bad sample parameters");
    EXPECT_EXIT(params("window=nan"), ::testing::ExitedWithCode(1),
                "bad sample value");
    EXPECT_EXIT(params("rate=nan"), ::testing::ExitedWithCode(1),
                "bad sample parameters");
    EXPECT_EXIT(params("clusters=4294967298"),
                ::testing::ExitedWithCode(1), "'clusters'");
    EXPECT_EXIT(params("window=64,,rate=0.1"),
                ::testing::ExitedWithCode(1), "malformed");
}

TEST(SampledSource, PlanIsDeterministic)
{
    const auto spec = "window=512,clusters=6,rate=0.05,warmup=128";
    SampledSource a(boundedLibq(100'000), params(spec));
    SampledSource b(boundedLibq(100'000), params(spec));
    EXPECT_EQ(a.selectedWindows(), b.selectedWindows());
    EXPECT_EQ(a.size(), b.size());

    // And the emitted streams are identical record for record.
    while (!a.exhausted()) {
        ASSERT_FALSE(b.exhausted());
        const Request ra = a.next();
        const Request rb = b.next();
        ASSERT_EQ(ra.line, rb.line);
        ASSERT_EQ(ra.kind, rb.kind);
        ASSERT_EQ(ra.warmup, rb.warmup);
    }
    EXPECT_TRUE(b.exhausted());
}

TEST(SampledSource, PlanBoundsAndStratification)
{
    SampledSource src(
        boundedLibq(200'000),
        params("window=1024,clusters=8,rate=0.04,warmup=256"));
    EXPECT_EQ(src.innerRecords(), 200'000u);
    EXPECT_EQ(src.windowCount(), 200'000u / 1024 + 1);

    // round(rate * windows) selected, sorted, in range, distinct.
    const auto &sel = src.selectedWindows();
    const auto expect = static_cast<std::uint64_t>(
        std::llround(0.04 * static_cast<double>(src.windowCount())));
    EXPECT_EQ(sel.size(), expect);
    for (std::size_t i = 1; i < sel.size(); ++i)
        EXPECT_LT(sel[i - 1], sel[i]);
    EXPECT_LT(sel.back(), src.windowCount());

    // The emitted stream matches the advertised plan size, and the
    // measured records are exactly the selected windows' records.
    std::uint64_t emitted = 0;
    std::uint64_t measured = 0;
    while (!src.exhausted()) {
        const Request req = src.next();
        EXPECT_EQ(req.position, emitted);
        ++emitted;
        if (!req.warmup)
            ++measured;
    }
    EXPECT_EQ(emitted, src.size());
    std::uint64_t expected_measured = 0;
    for (const std::uint64_t w : sel) {
        const std::uint64_t start = w * 1024;
        expected_measured +=
            std::min<std::uint64_t>(200'000, start + 1024) - start;
    }
    EXPECT_EQ(measured, expected_measured);
}

TEST(SampledSource, PrewarmSpanIsReplayedUpFront)
{
    SampledSource src(
        boundedLibq(100'000),
        params("window=512,clusters=4,rate=0.02,warmup=0,"
               "prewarm=30000"));
    // The plan covers at least the prewarm span plus the selected
    // windows outside it.
    EXPECT_GE(src.size(), 30'000u);

    // Replay against the raw stream: the first 30000 emissions are
    // exactly records 0..29999, warmup-flagged except inside selected
    // windows.
    auto raw = boundedLibq(100'000);
    const auto &sel = src.selectedWindows();
    for (std::uint64_t pos = 0; pos < 30'000; ++pos) {
        ASSERT_FALSE(src.exhausted());
        const Request got = src.next();
        const Request want = raw->next();
        ASSERT_EQ(got.line, want.line) << "position " << pos;
        bool selected = false;
        for (const std::uint64_t w : sel)
            selected = selected || pos / 512 == w;
        ASSERT_EQ(got.warmup, !selected) << "position " << pos;
    }
}

TEST(SampledSource, RewindReplaysTheSamePlan)
{
    SampledSource src(
        boundedLibq(50'000),
        params("window=512,clusters=4,rate=0.05,warmup=64"));
    std::vector<LineAddr> first;
    std::vector<bool> first_warm;
    while (!src.exhausted()) {
        const Request req = src.next();
        first.push_back(req.line);
        first_warm.push_back(req.warmup);
    }
    ASSERT_TRUE(src.rewind());
    std::vector<LineAddr> second;
    std::vector<bool> second_warm;
    while (!src.exhausted()) {
        const Request req = src.next();
        second.push_back(req.line);
        second_warm.push_back(req.warmup);
    }
    EXPECT_EQ(first, second);
    EXPECT_EQ(first_warm, second_warm);
}

TEST(SampledSource, SkippingTraceMatchesNextOnlyInner)
{
    // The sampler passes over the gaps between segments with skip();
    // a trace source's seeking skip must replay exactly what the
    // next()-loop default replays.
    const auto spec = "window=512,clusters=6,rate=0.03,warmup=100,"
                      "prewarm=3000";
    for (const bool gzip : {false, true}) {
        if (gzip && !binTraceGzipAvailable())
            continue;
        const std::string path =
            writeLibqTrace(gzip ? "skip_gz" : "skip", 120'000, gzip);
        for (const unsigned stripes : {1u, 3u}) {
            SCOPED_TRACE(::testing::Message()
                         << (gzip ? "gzip" : "plain") << " stripes "
                         << stripes);
            const unsigned index = 1 % stripes;
            SampledSource fast(
                std::make_unique<TraceSource>(path, false, stripes, index),
                params(spec));
            SampledSource slow(
                std::make_unique<NextOnlySource>(
                    std::make_unique<TraceSource>(path, false, stripes,
                                                  index)),
                params(spec));
            ASSERT_EQ(fast.selectedWindows(), slow.selectedWindows());
            ASSERT_EQ(fast.size(), slow.size());
            for (int pass = 0; pass < 2; ++pass) {
                while (!fast.exhausted()) {
                    ASSERT_FALSE(slow.exhausted());
                    const Request a = fast.next();
                    const Request b = slow.next();
                    ASSERT_EQ(a.line, b.line) << "position " << a.position;
                    ASSERT_EQ(a.kind, b.kind);
                    ASSERT_EQ(a.cls, b.cls);
                    ASSERT_EQ(a.warmup, b.warmup);
                    ASSERT_EQ(a.position, b.position);
                }
                EXPECT_TRUE(slow.exhausted());
                ASSERT_TRUE(fast.rewind());
                ASSERT_TRUE(slow.rewind());
            }
        }
        std::remove(path.c_str());
    }
}

TEST(SampledSourceDeath, CorruptRecordInASkippedGapFatalsWhileProfiling)
{
    // Replay seeks over the gaps between segments, so a corrupt record
    // there must be caught by the profiling pass, which decodes all.
    const auto spec = "window=512,clusters=4,rate=0.02,warmup=64";
    const std::string path = writeLibqTrace("corrupt", 60'000);
    std::uint64_t victim = 0;
    {
        SampledSource clean(
            std::make_unique<TraceSource>(path, false, 1, 0),
            params(spec));
        // The first record no segment replays: outside every selected
        // window and its warmup prefix.
        const auto &sel = clean.selectedWindows();
        for (victim = 1000;; ++victim) {
            bool replayed = false;
            for (const std::uint64_t w : sel)
                replayed = replayed
                    || (victim + 64 >= w * 512 && victim < (w + 1) * 512);
            if (!replayed)
                break;
        }
    }
    corruptRecord(path, victim);
    EXPECT_EXIT(SampledSource(std::make_unique<TraceSource>(path, false,
                                                            1, 0),
                              params(spec)),
                ::testing::ExitedWithCode(1), "reserved control bits");
    std::remove(path.c_str());
}

TEST(SignatureBuilder, MatchesTheBucketFormula)
{
    // Each record lands in bucket mix64(regionOf(line)) % dims of its
    // window, and every window (the short tail too) sums to 1.
    auto src = boundedLibq(10'000);
    std::vector<LineAddr> lines;
    while (!src->exhausted())
        lines.push_back(src->next().line);
    for (const unsigned dims : {1u, 31u, 32u}) {
        SCOPED_TRACE(::testing::Message() << "dims " << dims);
        constexpr std::uint64_t kWindow = 700;
        SignatureBuilder builder(kWindow, dims);
        for (const LineAddr line : lines)
            builder.add(line);
        const SampleProfile got = builder.finish();
        const std::uint64_t windows = (lines.size() + kWindow - 1) / kWindow;
        ASSERT_EQ(got.records, lines.size());
        ASSERT_EQ(got.windows, windows);
        ASSERT_EQ(got.signatures.size(), windows * dims);
        std::vector<double> want(windows * dims, 0.0);
        for (std::size_t i = 0; i < lines.size(); ++i)
            want[i / kWindow * dims + mix64(regionOf(lines[i])) % dims] += 1;
        for (std::uint64_t w = 0; w < windows; ++w) {
            const double held = static_cast<double>(
                std::min<std::uint64_t>(kWindow, lines.size() - w * kWindow));
            for (unsigned d = 0; d < dims; ++d) {
                EXPECT_FLOAT_EQ(got.signatures[w * dims + d],
                                want[w * dims + d] / held)
                    << "window " << w << " bucket " << d;
            }
        }
    }
}

TEST(SampledSources, SharedPassMatchesEachStripesOwnPass)
{
    // Every stripe of 65,536 records holds several 4096-record marks,
    // and stripe 0 of 1, 2 or 4 also holds the end-of-trace mark.
    const std::string spec = "window=512,clusters=6,rate=0.03,"
                             "warmup=100,prewarm=3000";
    for (const bool gzip : {false, true}) {
        if (gzip && !binTraceGzipAvailable())
            continue;
        const std::string path =
            writeLibqTrace(gzip ? "shared_gz" : "shared", 65'536, gzip);
        for (unsigned cores = 1; cores <= 4; ++cores) {
            std::vector<TraceSource *> traces;
            const auto seeds = coreSeeds(cores);
            auto sampled = sampleSources(
                coreTraces(path, cores, true, traces), params(spec), seeds);
            ASSERT_EQ(sampled.size(), cores);
            for (unsigned core = 0; core < cores; ++core) {
                SCOPED_TRACE(::testing::Message()
                             << (gzip ? "gzip" : "plain") << " stripe "
                             << core << "/" << cores);
                expectSameAsOwnPass(
                    dynamic_cast<SampledSource &>(*sampled[core]),
                    *traces[core], path, cores, core, params(spec),
                    seeds[core]);
            }
        }
        std::remove(path.c_str());
    }
}

TEST(SampledSources, OneUnstripedPassServesEveryCore)
{
    // stripe=0: each core replays the whole file.  The one pass with a
    // single stripe profiles it for all four; each core still seeds
    // its own plan.
    const std::string path = writeLibqTrace("unstriped", 61'000);
    std::vector<TraceSource *> traces;
    const SampleParams p =
        params("window=512,clusters=6,rate=0.05,warmup=64");
    const auto seeds = coreSeeds(4);
    auto sampled =
        sampleSources(coreTraces(path, 4, false, traces), p, seeds);
    for (unsigned core = 0; core < 4; ++core) {
        SCOPED_TRACE(::testing::Message() << "core " << core);
        expectSameAsOwnPass(dynamic_cast<SampledSource &>(*sampled[core]),
                            *traces[core], path, 1, 0, p, seeds[core]);
    }
    EXPECT_NE(dynamic_cast<SampledSource &>(*sampled[0]).selectedWindows(),
              dynamic_cast<SampledSource &>(*sampled[1]).selectedWindows());
    std::remove(path.c_str());
}

TEST(SampledSystemDeath, CorruptRecordOnlyStripe3KeepsFatalsWhileBuilding)
{
    // Record 40003 belongs to stripe 3 of 4 alone; the shared pass
    // must still decode it with every check.
    const std::string path = writeLibqTrace("corrupt_stripe3", 60'000);
    corruptRecord(path, 40'003);
    EXPECT_EXIT(sim::System system(stripedTraceConfig(path, 4)),
                ::testing::ExitedWithCode(1), "reserved control bits");
    std::remove(path.c_str());
}

TEST(SampledSystemDeath, EmptyStripeFatalNamesItsSource)
{
    // Two records over four stripes leave stripes 2 and 3 empty; the
    // fatal names the first of them.
    const std::string path = writeLibqTrace("two_records", 2);
    EXPECT_EXIT(sim::System system(stripedTraceConfig(path, 4)),
                ::testing::ExitedWithCode(1),
                "produced no records \\(accord.trace replay stripe 2/4\\)");
    std::remove(path.c_str());
}

TEST(SampledSourceDeath, NeedsABoundedSource)
{
    EXPECT_EXIT(
        {
            SourceContext ctx;
            ctx.spec = coreAssignment("libq", 1)[0];
            SampledSource src(makeTrafficSource("synthetic", ctx),
                              SampleParams());
        },
        ::testing::ExitedWithCode(1), "bounded");
}

TEST(SampledSystem, RunsAreReproducible)
{
    sim::SystemConfig config = sim::namedConfig("libq", "2way-pws+gws");
    config.runTimed = false;
    config.scale = 4096;
    config.numCores = 1;
    config.warmPerCore = 40'000;
    config.measurePerCore = 0;
    config.trafficSpec = "synthetic(limit=200000)";
    config.sampleSpec =
        "window=1024,clusters=8,rate=0.05,warmup=256,prewarm=40000";

    const sim::SystemMetrics a = sim::runSystem(config);
    const sim::SystemMetrics b = sim::runSystem(config);
    EXPECT_EQ(a.accessesExecuted, b.accessesExecuted);
    EXPECT_DOUBLE_EQ(a.hitRate, b.hitRate);
    EXPECT_DOUBLE_EQ(a.wpAccuracy, b.wpAccuracy);
    EXPECT_GT(a.accessesExecuted, 0u);
}

TEST(SampledSystem, TracksFullReplayHitRate)
{
    // Sampled replay must land near the full-stream hit rate measured
    // from the same warmed state.  The bound is loose (the tight 2pp
    // claim is demonstrated at 10M records by bench_trace_replay);
    // this guards against gross regressions like measuring the
    // cold-start ramp or double-counting warmup records.
    sim::SystemConfig config = sim::namedConfig("libq", "2way-pws+gws");
    config.runTimed = false;
    config.scale = 4096;
    config.numCores = 1;
    config.warmPerCore = 80'000;
    config.measurePerCore = 0;
    config.trafficSpec = "synthetic(limit=400000)";

    sim::SystemConfig full = config;
    const sim::SystemMetrics full_m = sim::runSystem(full);

    sim::SystemConfig sampled = config;
    sampled.sampleSpec =
        "window=1024,clusters=8,rate=0.04,warmup=512,prewarm=80000";
    const sim::SystemMetrics sampled_m = sim::runSystem(sampled);

    EXPECT_LT(sampled_m.accessesExecuted,
              full_m.accessesExecuted / 10);
    EXPECT_NEAR(sampled_m.hitRate, full_m.hitRate, 0.10);
}
