#include "common/parse.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace ramp
{

std::string
trimToken(std::string_view text)
{
    const auto begin = text.find_first_not_of(" \t");
    if (begin == std::string_view::npos)
        return "";
    const auto end = text.find_last_not_of(" \t");
    return std::string(text.substr(begin, end - begin + 1));
}

std::vector<std::string>
splitSpec(std::string_view text, char sep)
{
    std::vector<std::string> parts;
    while (true) {
        const auto end = text.find(sep);
        if (std::string part = trimToken(text.substr(0, end));
            !part.empty())
            parts.push_back(std::move(part));
        if (end == std::string_view::npos)
            return parts;
        text.remove_prefix(end + 1);
    }
}

std::vector<SpecEntry>
specEntries(std::string_view text)
{
    std::vector<SpecEntry> entries;
    for (std::string &part : splitSpec(text, ';')) {
        const auto colon = part.find(':');
        SpecEntry entry{part, trimToken(part.substr(0, colon)), "",
                        colon != std::string::npos};
        if (entry.hasBody)
            entry.body = trimToken(part.substr(colon + 1));
        entries.push_back(std::move(entry));
    }
    return entries;
}

bool
splitKeyValue(std::string_view grammar, const std::string &field,
              std::string &key, std::string &value, std::string &error)
{
    const auto eq = field.find('=');
    if (eq == std::string::npos) {
        error = std::string(grammar) + ": field '" + field +
                "' needs key=value";
        return false;
    }
    key = trimToken(field.substr(0, eq));
    value = trimToken(field.substr(eq + 1));
    return true;
}

std::string
noEntriesError(std::string_view grammar, std::string_view noun,
               std::string_view text)
{
    return std::string(grammar) + ": no " + std::string(noun) +
           " in '" + std::string(text) + "'";
}

std::string
formatNumber(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

std::optional<double>
readNumber(std::string_view token)
{
    const std::string text(token);
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        return std::nullopt;
    return value;
}

std::optional<std::uint64_t>
readCount(std::string_view token, std::uint64_t max)
{
    const std::string text(token);
    // strtoull negates a '-' modulo 2^64 ("-1" reads as 2^64 - 1),
    // so only "-0" survives as a count.
    const auto first = text.find_first_not_of(" \t\n\v\f\r");
    const bool negative = first != std::string::npos && text[first] == '-';
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        (negative && value != 0) || value > max)
        return std::nullopt;
    return value;
}

} // namespace ramp
