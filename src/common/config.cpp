#include "common/config.hpp"

#include <cctype>
#include <cerrno>
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

    // Plain digits parse exactly: a double would round above 2^53.
    if (text.find_first_not_of("0123456789") == std::string::npos) {
        errno = 0;
        const std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
        if (errno == ERANGE)
            return 0;
        if (ok)
            *ok = true;
        return value;
    }

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

std::pair<std::string, Config>
parseNamedSpec(const std::string &kind, const std::string &spec)
{
    const auto open = spec.find('(');
    if (open == std::string::npos)
        return {spec, Config(kind)};
    if (spec.back() != ')')
        fatal("malformed %s spec '%s' (unbalanced parentheses)",
              kind.c_str(), spec.c_str());
    return {spec.substr(0, open),
            Config::fromOptionList(
                kind, spec.substr(open + 1, spec.size() - open - 2))};
}

Config
Config::fromOptionList(const std::string &kind, const std::string &text)
{
    Config options(kind);
    if (text.empty())
        return options;
    std::size_t start = 0;
    for (;;) {
        const auto comma = text.find(',', start);
        const std::string item = text.substr(start, comma - start);
        const auto eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("malformed %s option '%s' in '%s' (want key=value)",
                  kind.c_str(), item.c_str(), text.c_str());
        const std::string key = item.substr(0, eq);
        if (options.has(key))
            fatal("repeated %s option '%s' in '%s'", kind.c_str(),
                  key.c_str(), text.c_str());
        options.set(key, item.substr(eq + 1));
        if (comma == std::string::npos)
            return options;
        start = comma + 1;
    }
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

const std::string *
Config::find(const std::string &key) const
{
    const auto it = values.find(key);
    if (it == values.end())
        return nullptr;
    consumed.insert(key);
    return &it->second;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const std::string *text = find(key);
    return text ? *text : def;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def,
                std::uint64_t lo, std::uint64_t hi) const
{
    const std::string *text = find(key);
    if (!text)
        return def;
    bool ok = false;
    const std::uint64_t value = parseSize(*text, &ok);
    if (!ok)
        fatal("bad %s value '%s' for '%s' (cannot parse it as an "
              "unsigned 64-bit integer)",
              kind_.c_str(), text->c_str(), key.c_str());
    if (value < lo || value > hi)
        fatal("bad %s parameters: '%s' = %s is outside [%llu, %llu]",
              kind_.c_str(), key.c_str(), text->c_str(),
              static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
    return value;
}

double
Config::getDouble(const std::string &key, double def, double lo,
                  double hi, bool lo_open) const
{
    const std::string *text = find(key);
    if (!text)
        return def;
    char *end = nullptr;
    const double value = std::strtod(text->c_str(), &end);
    if (end == text->c_str() || *end != '\0')
        fatal("bad %s value '%s' for '%s' (cannot parse it as a "
              "number)",
              kind_.c_str(), text->c_str(), key.c_str());
    // Written so NaN fails too.
    if (!((lo_open ? value > lo : value >= lo) && value <= hi))
        fatal("bad %s parameters: '%s' = %s is outside %c%g, %g]",
              kind_.c_str(), key.c_str(), text->c_str(),
              lo_open ? '(' : '[', lo, hi);
    return value;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const std::string *text = find(key);
    if (!text)
        return def;
    const std::string &v = *text;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("bad %s value '%s' for '%s' (cannot parse it as a bool)",
          kind_.c_str(), v.c_str(), key.c_str());
}

void
Config::checkConsumed() const
{
    for (const auto &[key, value] : values) {
        if (!consumed.count(key))
            fatal("unknown %s option '%s=%s' (never used; typo?)",
                  kind_.c_str(), key.c_str(), value.c_str());
    }
}

} // namespace accord
