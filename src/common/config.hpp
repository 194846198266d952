/**
 * @file
 * A small typed key/value configuration table.
 *
 * Benches and examples parse "key=value" command-line overrides into a
 * Config; components read their parameters through typed getters with
 * defaults.  Unknown keys are rejected via checkConsumed() once every
 * run is resolved and before the first simulation (sim::runBatch), so
 * a typo fails fast instead of silently doing nothing.
 *
 * The same table is the one grammar of every "key=value,..." spec
 * option list (policy, source and sample specs): fromOptionList()
 * splits the list, and the typed getters are the only number readers,
 * each checking the value against the range its caller declares.
 */

#ifndef ACCORD_COMMON_CONFIG_HPP
#define ACCORD_COMMON_CONFIG_HPP

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace accord
{

/** Typed key/value configuration with "key=value" parsing. */
class Config
{
  public:
    /** `kind` names the table in error messages ("config", "policy"). */
    explicit Config(std::string kind = "config") : kind_(std::move(kind)) {}

    /**
     * Parse a "key=value,..." option list of a `kind` spec.  fatal()
     * on an empty item, an item without a key or '=', and a repeated
     * key.
     */
    static Config fromOptionList(const std::string &kind,
                                 const std::string &text);

    /** Set a key, overwriting any previous value. */
    void set(const std::string &key, const std::string &value);

    /** Parse one "key=value" token; returns false if malformed. */
    bool parseArg(const std::string &arg);

    /** Parse argv[1..argc) of "key=value" tokens; fatal() on error. */
    void parseArgs(int argc, char **argv);

    /** True if the key was explicitly set. */
    bool has(const std::string &key) const;

    /** String getter with default. */
    std::string getString(const std::string &key,
                          const std::string &def) const;

    /**
     * Unsigned getter with default (parseSize(): accepts k/M/G/T
     * suffixes); fatal() unless lo <= value <= hi.
     */
    std::uint64_t getUint(const std::string &key, std::uint64_t def,
                          std::uint64_t lo = 0,
                          std::uint64_t hi = UINT64_MAX) const;

    /** getUint() for a 32-bit field: fatal() above 2^32-1. */
    unsigned
    getUint32(const std::string &key, unsigned def, unsigned lo = 0,
              unsigned hi = UINT32_MAX) const
    {
        return static_cast<unsigned>(getUint(key, def, lo, hi));
    }

    /**
     * Double getter with default; fatal() unless lo <= value <= hi
     * (lo < value when `lo_open`), which also rejects NaN and
     * infinities.
     */
    double getDouble(const std::string &key, double def, double lo,
                     double hi, bool lo_open = false) const;

    /** Boolean getter with default (true/false/1/0/yes/no). */
    bool getBool(const std::string &key, bool def) const;

    /** fatal() if any explicitly set key was never read. */
    void checkConsumed() const;

  private:
    /** Value of `key` (marked consumed), or null when unset. */
    const std::string *find(const std::string &key) const;

    std::string kind_;
    std::map<std::string, std::string> values;
    mutable std::set<std::string> consumed;
};

/**
 * Parse a size string like "4G", "256M", "0.5k", or plain digits.
 * Plain digits parse exactly up to 2^64-1.  Sets *ok to false (and
 * returns 0) on malformed text and on values that are negative, NaN,
 * infinite or not below 2^64.
 */
std::uint64_t parseSize(const std::string &text, bool *ok = nullptr);

/**
 * Split a "name(key=value,...)" spec of `kind` into its name and its
 * parsed option list; a bare "name" has no options.  fatal() on
 * unbalanced parentheses; the caller rejects an unknown name.
 */
std::pair<std::string, Config> parseNamedSpec(const std::string &kind,
                                              const std::string &spec);

} // namespace accord

#endif // ACCORD_COMMON_CONFIG_HPP
