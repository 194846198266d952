#include "core/factory.hpp"

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "core/ganged.hpp"
#include "core/predictors.hpp"
#include "core/steer.hpp"

namespace accord::core
{

std::string
PolicyOptions::toString() const
{
    std::string out;
    out += "pip=" + canonicalNumber(pip);
    out += ",k=" + std::to_string(swsK);
    out += ",gws=" + std::to_string(gwsEntries);
    out += ",ptag=" + std::to_string(partialTagBits);
    out += ",seed=" + std::to_string(seed);
    return out;
}

namespace
{

/**
 * Read a "key=value,..." policy option list on top of `options`;
 * each knob declares its range here.  fatal() on errors.
 */
PolicyOptions
applyOptions(PolicyOptions options, const Config &list)
{
    options.pip = list.getDouble("pip", options.pip, 0.0, 1.0);
    options.swsK = list.getUint32("k", options.swsK, 2);
    options.gwsEntries = list.getUint32("gws", options.gwsEntries, 1,
                                        RegionTable::kMaxEntries);
    options.partialTagBits =
        list.getUint32("ptag", options.partialTagBits, 1, 8);
    options.seed = list.getUint("seed", options.seed);
    list.checkConsumed();
    return options;
}

} // namespace

PolicyOptions
PolicyOptions::fromString(const std::string &text)
{
    return applyOptions({}, Config::fromOptionList("policy", text));
}

std::pair<std::string, PolicyOptions>
parseSpec(const std::string &spec, const PolicyOptions &base)
{
    const auto [name, list] = parseNamedSpec("policy", spec);
    return {name, applyOptions(base, list)};
}

std::string
canonicalSpec(const std::string &spec, const PolicyOptions &options)
{
    const auto [name, merged] = parseSpec(spec, options);
    return name + "(" + merged.toString() + ")";
}

std::unique_ptr<WayPolicy>
makePolicy(const std::string &full_spec, const CacheGeometry &geom,
           const PolicyOptions &base_options)
{
    const auto [spec, options] = parseSpec(full_spec, base_options);

    GangedParams ganged;
    ganged.ritEntries = options.gwsEntries;
    ganged.rltEntries = options.gwsEntries;
    if ((spec == "sws" || spec == "sws+gws") && options.swsK > geom.ways) {
        fatal("bad policy parameters: 'k' = %u exceeds the %u ways of "
              "'%s'",
              options.swsK, geom.ways, full_spec.c_str());
    }

    if (spec == "rand")
        return std::make_unique<UnbiasedPolicy>(geom, options.seed);
    if (spec == "pws")
        return std::make_unique<PwsPolicy>(geom, options.pip,
                                           options.seed);
    if (spec == "gws") {
        auto base = std::make_unique<UnbiasedPolicy>(geom, options.seed);
        return std::make_unique<GangedPolicy>(std::move(base), ganged);
    }
    if (spec == "pws+gws") {
        auto base = std::make_unique<PwsPolicy>(geom, options.pip,
                                                options.seed);
        return std::make_unique<GangedPolicy>(std::move(base), ganged);
    }
    if (spec == "sws")
        return std::make_unique<SwsPolicy>(geom, options.swsK,
                                           options.pip, options.seed);
    if (spec == "sws+gws") {
        auto base = std::make_unique<SwsPolicy>(geom, options.swsK,
                                                options.pip, options.seed);
        return std::make_unique<GangedPolicy>(std::move(base), ganged);
    }
    if (spec == "mru")
        return std::make_unique<MruPolicy>(geom, options.seed,
                                           options.storage);
    if (spec == "ptag")
        return std::make_unique<PartialTagPolicy>(
            geom, options.partialTagBits, options.seed,
            options.storage);
    if (spec == "perfect")
        return std::make_unique<PerfectPolicy>(geom, options.seed);

    fatal("unknown way policy spec '%s'", spec.c_str());
}

} // namespace accord::core
