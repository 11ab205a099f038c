#include "perf/artifact.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <sys/stat.h>

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
              std::uint64_t max)
{
    const auto value = readCount(text, max);
    if (!value)
        badFlagValue(tool, flag, "a non-negative integer", text);
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

std::optional<FileStamp>
fileStamp(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return std::nullopt;
    FileStamp stamp;
    stamp.mtimeSeconds = st.st_mtim.tv_sec;
    stamp.mtimeNanos = st.st_mtim.tv_nsec;
    stamp.inode = st.st_ino;
    stamp.size = static_cast<std::uint64_t>(st.st_size);
    return stamp;
}

} // namespace ramp::perf
