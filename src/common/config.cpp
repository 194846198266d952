#include "common/config.hpp"

#include <cctype>
#include <cstdlib>

#include "common/log.hpp"

namespace accord
{

std::uint64_t
parseSize(const std::string &text, bool *ok)
{
    if (ok)
        *ok = false;
    if (text.empty())
        return 0;

    char *end = nullptr;
    const double base = std::strtod(text.c_str(), &end);
    if (end == text.c_str())
        return 0;

    std::uint64_t multiplier = 1;
    if (*end != '\0') {
        switch (std::tolower(static_cast<unsigned char>(*end))) {
          case 'k': multiplier = 1ULL << 10; break;
          case 'm': multiplier = 1ULL << 20; break;
          case 'g': multiplier = 1ULL << 30; break;
          case 't': multiplier = 1ULL << 40; break;
          default: return 0;
        }
        ++end;
        // Allow a trailing "B"/"iB" for readability ("4GiB").
        if (*end == 'i' || *end == 'I')
            ++end;
        if (*end == 'b' || *end == 'B')
            ++end;
        if (*end != '\0')
            return 0;
    }
    const double value = base * static_cast<double>(multiplier);
    // Converting a negative, NaN or >= 2^64 double to uint64_t is
    // undefined behaviour, so those values are malformed too.
    if (!(value >= 0.0 && value < 0x1p64))
        return 0;
    if (ok)
        *ok = true;
    return static_cast<std::uint64_t>(value);
}

void
Config::set(const std::string &key, const std::string &value)
{
    values[key] = value;
}

bool
Config::parseArg(const std::string &arg)
{
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(arg.substr(0, eq), arg.substr(eq + 1));
    return true;
}

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!parseArg(arg))
            fatal("malformed argument '%s' (expected key=value)",
                  arg.c_str());
    }
}

bool
Config::has(const std::string &key) const
{
    return values.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const auto it = values.find(key);
    if (it == values.end())
        return def;
    consumed.insert(key);
    return it->second;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def) const
{
    const auto it = values.find(key);
    if (it == values.end())
        return def;
    consumed.insert(key);
    bool ok = false;
    const std::uint64_t v = parseSize(it->second, &ok);
    if (!ok)
        fatal("config key '%s': cannot parse '%s' as an unsigned "
              "64-bit integer",
              key.c_str(), it->second.c_str());
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const auto it = values.find(key);
    if (it == values.end())
        return def;
    consumed.insert(key);
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("config key '%s': cannot parse '%s' as bool",
          key.c_str(), v.c_str());
}

void
Config::checkConsumed() const
{
    for (const auto &[key, value] : values) {
        if (!consumed.count(key))
            fatal("config key '%s=%s' was never used (typo?)",
                  key.c_str(), value.c_str());
    }
}

} // namespace accord
