/**
 * @file
 * The TrafficSource API: pluggable request streams for the L4.
 *
 * Every traffic frontend — the synthetic workload models, recorded
 * binary traces, the SimPoint-style sampler — implements one narrow
 * pull interface that yields full Request records (line address, kind,
 * request class, stream position) instead of bare line addresses.
 * A spec string "name(key=value,...)" selects and parameterizes the
 * source; makeTrafficSource() builds it by name, so a new stream kind
 * lands in source.cpp without touching core_model / system / runner.
 * Options follow the shared spec grammar of common/config.hpp.
 *
 * Spec strings accepted by makeTrafficSource():
 *
 *   synthetic                the workload model (default; limit=N
 *                            bounds the stream for sampling)
 *   cyclic(sets=,iters=)     the Section IV-B1 conflict kernel
 *   trace(file=,loop=,stripe=)  accord.trace/1 binary replay
 *
 * docs/TRACES.md documents the binary format, the converter, and the
 * sampling layer (sample.hpp) that wraps any bounded source.
 */

#ifndef ACCORD_TRACE_SOURCE_HPP
#define ACCORD_TRACE_SOURCE_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "core/enums.hpp"

namespace accord::trace
{

struct WorkloadSpec;

/** One record of an L4-bound request stream. */
struct Request
{
    LineAddr line = 0;

    /** Demand read or writeback (core/enums.hpp tokens). */
    core::RequestKind kind = core::RequestKind::Demand;

    /** Request class / tenant id carried by the trace (0 = default). */
    std::uint16_t cls = 0;

    /**
     * Cache-warmup replay: the access must update cache state but be
     * excluded from measured statistics (set by SampledSource for the
     * pre-window warmup prefix; always false for raw sources).
     */
    bool warmup = false;

    /** 0-based position in this source's emission order. */
    std::uint64_t position = 0;
};

/**
 * A pull-based stream of L4 requests.
 *
 * Unbounded sources (the synthetic models) never exhaust; bounded
 * sources (trace replay without loop=, synthetic with limit=) report
 * exhaustion and support rewind() so the sampler can make two passes.
 * Callers must not call next() on an exhausted source.
 */
class TrafficSource
{
  public:
    virtual ~TrafficSource() = default;

    /** Next request; precondition: !exhausted(). */
    virtual Request next() = 0;

    /**
     * Discard the next `n` requests, exactly as `n` calls to next()
     * would; precondition: at least `n` remain.  Sources that can pass
     * over records more cheaply than by building them override this.
     */
    virtual void
    skip(std::uint64_t n)
    {
        for (; n > 0; --n)
            next();
    }

    /** True once a bounded source has emitted its final record. */
    virtual bool exhausted() const { return false; }

    /** True if the stream is finite (exhausted() eventually holds). */
    virtual bool bounded() const { return false; }

    /** Records the stream will emit (0 = unbounded or unknown). */
    virtual std::uint64_t size() const { return 0; }

    /** Restart from the first record; false if unsupported. */
    virtual bool rewind() { return false; }

    /**
     * Functional warmup accesses a run should spend on this stream
     * when warm= is 0 (auto).  0 means "no warmup by default" — right
     * for bounded traces, where warmup would consume the stream.
     */
    virtual std::uint64_t defaultWarmQuota() const { return 0; }

    /** One-line human description ("synthetic libq core 3", ...). */
    virtual std::string describe() const = 0;
};

/**
 * Everything a source may need about the run asking for the
 * stream.  Synthetic sources use the workload spec and seeds; trace
 * sources use core/numCores for striping.
 */
struct SourceContext
{
    /** Benchmark model for this core (null for pure-trace runs). */
    const WorkloadSpec *spec = nullptr;

    unsigned core = 0;
    unsigned numCores = 1;

    /** Footprint divisor of the run (SystemConfig::scale). */
    std::uint64_t scale = 128;

    /** Base RNG seed of the run. */
    std::uint64_t seed = 1;

    /** Demand-to-writeback lag of the writeback mixer. */
    unsigned wbLag = 2048;
};

/** Default spec used when no source= override is given. */
inline constexpr const char *kDefaultTrafficSpec = "synthetic";

/**
 * Build a traffic source from a spec string; fatal() on an unknown
 * name or a malformed spec.
 */
std::unique_ptr<TrafficSource>
makeTrafficSource(const std::string &spec, const SourceContext &ctx);

/**
 * Canonical rendering of `spec` (what RunReport embeds): fixed option
 * order, defaults filled in, and file paths reduced to basenames so
 * reports are host-independent.
 */
std::string canonicalTrafficSpec(const std::string &spec);

} // namespace accord::trace

#endif // ACCORD_TRACE_SOURCE_HPP
