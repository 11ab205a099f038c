#include "perf/artifact.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ramp::perf
{

const std::string &
flagValue(const char *tool, const std::vector<std::string> &args,
          std::size_t &i, const char *flag)
{
    if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s: %s needs a value\n", tool, flag);
        std::exit(2);
    }
    return args[++i];
}

void
badFlagValue(const char *tool, const char *flag, const char *need,
             const std::string &text)
{
    std::fprintf(stderr, "%s: %s needs %s, got '%s'\n", tool, flag,
                 need, text.c_str());
    std::exit(2);
}

std::uint64_t
parseCountArg(const char *tool, const char *flag, const std::string &text,
              std::uint64_t min, std::uint64_t max)
{
    const auto value = readCount(text, max);
    if (!value || *value < min)
        badFlagValue(tool, flag,
                     min > 0 ? "a positive integer"
                             : "a non-negative integer",
                     text);
    return *value;
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
