#include "trace/source.hpp"

#include "common/bits.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "trace/bintrace.hpp"
#include "trace/generator.hpp"
#include "trace/workloads.hpp"

namespace accord::trace
{

namespace
{

/** Path tail after the last '/' (report-embedded file names). */
std::string
basenameOf(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/**
 * The synthetic workload model behind the "synthetic" source:
 * a WorkloadGen stream mixed with writeback traffic, optionally
 * bounded to `limit` requests so the sampler can take two passes over
 * it.
 */
class SyntheticSource final : public TrafficSource
{
  public:
    SyntheticSource(const WorkloadGenParams &gen_params, double wb_frac,
                    unsigned lag, std::uint64_t mixer_seed,
                    std::uint64_t limit)
        : gen_(gen_params), mixer_(gen_, wb_frac, lag, mixer_seed),
          limit_(limit), left_(limit)
    {
    }

    Request
    next() override
    {
        ACCORD_ASSERT(!exhausted(),
                      "next() on an exhausted synthetic source");
        const Request req = mixer_.next();
        if (limit_ > 0)
            --left_;
        return req;
    }

    bool
    exhausted() const override
    {
        return limit_ > 0 && left_ == 0;
    }

    bool bounded() const override { return limit_ > 0; }
    std::uint64_t size() const override { return limit_; }

    bool
    rewind() override
    {
        mixer_.rewind();
        left_ = limit_;
        return true;
    }

    std::uint64_t
    defaultWarmQuota() const override
    {
        // Bounded streams get no automatic warmup: it would consume
        // the records the measurement phase is there to replay.
        return limit_ > 0 ? 0 : gen_.defaultWarmQuota();
    }

    std::string
    describe() const override
    {
        return mixer_.describe()
            + (limit_ > 0 ? " limit " + std::to_string(limit_) : "");
    }

  private:
    WorkloadGen gen_;
    WritebackMixer mixer_;
    std::uint64_t limit_;
    std::uint64_t left_;
};

/** A source spec's name and options, each read and range-checked once. */
struct SourceSpec
{
    std::string name;
    std::uint64_t limit = 0;    ///< synthetic: stream bound (0 = none)
    std::uint64_t sets = 1024;  ///< cyclic
    unsigned iters = 100;       ///< cyclic
    std::string file;           ///< trace
    std::uint64_t loop = 0;     ///< trace
    std::uint64_t stripe = 1;   ///< trace
};

/** Parse a "name(key=value,...)" source spec; fatal() on errors. */
SourceSpec
parseSourceSpec(const std::string &text)
{
    const auto [name, list] = parseNamedSpec("source", text);
    SourceSpec spec;
    spec.name = name;
    if (name == "synthetic") {
        spec.limit = list.getUint("limit", spec.limit);
    } else if (name == "cyclic") {
        spec.sets = list.getUint("sets", spec.sets);
        spec.iters = list.getUint32("iters", spec.iters);
    } else if (name == "trace") {
        spec.file = list.getString("file", spec.file);
        spec.loop = list.getUint("loop", spec.loop);
        spec.stripe = list.getUint("stripe", spec.stripe);
    } else {
        fatal("unknown traffic source '%s' (spec '%s')", name.c_str(),
              text.c_str());
    }
    list.checkConsumed();
    return spec;
}

} // namespace

std::unique_ptr<TrafficSource>
makeTrafficSource(const std::string &text, const SourceContext &ctx)
{
    const SourceSpec spec = parseSourceSpec(text);
    if (spec.name == "synthetic") {
        if (ctx.spec == nullptr)
            fatal("source=synthetic needs a workload spec");
        const WorkloadGenParams gen_params = generatorParams(
            *ctx.spec, ctx.core, ctx.numCores, ctx.scale, ctx.seed);
        return std::make_unique<SyntheticSource>(
            gen_params, ctx.spec->wbFrac, ctx.wbLag,
            mix64(ctx.seed * 977 + ctx.core), spec.limit);
    }
    if (spec.name == "cyclic")
        return std::make_unique<CyclicPairGen>(
            spec.sets, spec.iters, mix64(ctx.seed * 613 + ctx.core));
    if (spec.file.empty())
        fatal("source=trace needs file=<path.trc>");
    const bool stripe = spec.stripe != 0;
    return std::make_unique<TraceSource>(spec.file, spec.loop != 0,
                                         stripe ? ctx.numCores : 1,
                                         stripe ? ctx.core : 0);
}

std::string
canonicalTrafficSpec(const std::string &text)
{
    const SourceSpec spec = parseSourceSpec(text);
    if (spec.name == "synthetic")
        return spec.limit == 0
            ? std::string("synthetic")
            : "synthetic(limit=" + std::to_string(spec.limit) + ")";
    if (spec.name == "cyclic")
        return "cyclic(sets=" + std::to_string(spec.sets)
            + ",iters=" + std::to_string(spec.iters) + ")";
    // Basename only: reports must not embed host-specific paths.
    return "trace(file=" + basenameOf(spec.file)
        + ",loop=" + std::to_string(spec.loop)
        + ",stripe=" + std::to_string(spec.stripe) + ")";
}

} // namespace accord::trace
