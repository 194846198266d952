/**
 * @file
 * A small typed key/value configuration table.
 *
 * Benches and examples parse "key=value" command-line overrides into a
 * Config; components read their parameters through typed getters with
 * defaults.  Unknown keys are rejected at the end of a run via
 * checkConsumed() so typos in sweeps do not silently do nothing.
 */

#ifndef ACCORD_COMMON_CONFIG_HPP
#define ACCORD_COMMON_CONFIG_HPP

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace accord
{

/** Typed key/value configuration with "key=value" parsing. */
class Config
{
  public:
    Config() = default;

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

    /** Unsigned getter with default (accepts k/M/G suffixes). */
    std::uint64_t getUint(const std::string &key, std::uint64_t def) const;

    /** Boolean getter with default (true/false/1/0/yes/no). */
    bool getBool(const std::string &key, bool def) const;

    /** fatal() if any explicitly set key was never read. */
    void checkConsumed() const;

  private:
    std::map<std::string, std::string> values;
    mutable std::set<std::string> consumed;
};

/**
 * Parse a size string like "4G", "256M", "0.5k", or plain digits.
 * Sets *ok to false (and returns 0) on malformed text and on values
 * that are negative, NaN, infinite or not below 2^64.
 */
std::uint64_t parseSize(const std::string &text, bool *ok = nullptr);

} // namespace accord

#endif // ACCORD_COMMON_CONFIG_HPP
