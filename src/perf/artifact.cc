#include "perf/artifact.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ramp::perf
{

const char *
flagValue(const char *tool, int argc, char **argv, int &i,
          const char *flag)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", tool, flag);
        std::exit(2);
    }
    return argv[++i];
}

std::uint64_t
parseCountArg(const char *tool, const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') {
        std::fprintf(stderr,
                     "%s: %s needs a non-negative integer, got '%s'\n",
                     tool, flag, text);
        std::exit(2);
    }
    return value;
}

double
parsePositiveArg(const char *tool, const char *flag, const char *text)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(value > 0)) {
        std::fprintf(stderr,
                     "%s: %s needs a positive number, got '%s'\n",
                     tool, flag, text);
        std::exit(2);
    }
    return value;
}

std::string
numberCell(double value, int precision)
{
    if (!std::isfinite(value))
        return "-";
    std::ostringstream out;
    out.precision(precision);
    out << value;
    return out.str();
}

bool
readJsonl(const std::string &path,
          std::initializer_list<std::string_view> schemas,
          const char *kind, bool ignore_partial_tail,
          JsonValue &header,
          const std::function<void(const JsonValue &)> &record,
          std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string content = buffer.str();
    if (ignore_partial_tail && !content.empty() &&
        content.back() != '\n') {
        // A live tail: drop the torn line; the next read parses it
        // once its newline has arrived.
        const std::size_t last_newline = content.rfind('\n');
        content.resize(last_newline == std::string::npos
                           ? 0
                           : last_newline + 1);
    }
    std::istringstream lines(content);
    std::string line;
    std::size_t line_no = 0;
    bool saw_header = false;
    while (std::getline(lines, line)) {
        ++line_no;
        if (line.empty())
            continue;
        JsonValue value;
        if (!parseJson(line, value, error)) {
            error = path + ":" + std::to_string(line_no) + ": " +
                    error;
            return false;
        }
        if (saw_header) {
            record(value);
            continue;
        }
        const std::string schema = value.stringOr("schema", "");
        std::string accepted;
        bool known = false;
        for (const std::string_view name : schemas) {
            accepted += (accepted.empty() ? "" : " / ");
            accepted += name;
            known = known || schema == name;
        }
        if (!known) {
            error = path + ": not a " + accepted + " file (schema '" +
                    schema + "')";
            return false;
        }
        header = std::move(value);
        saw_header = true;
    }
    if (!saw_header) {
        error = path + ": empty " + kind + " file (no header line)";
        return false;
    }
    return true;
}

} // namespace ramp::perf
