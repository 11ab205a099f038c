#include "runner/checkpoint.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "runner/codec.hh"
#include "runner/error.hh"

namespace ramp::runner
{

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hashHex(std::uint64_t value)
{
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

std::string
uniqueTmpPath(const std::string &path)
{
    static std::atomic<std::uint64_t> counter{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1));
}

namespace
{

constexpr int writeAttempts = 3;

/** One attempt of the write-fsync-rename sequence. */
bool
tryAtomicWrite(const std::string &path, std::string_view bytes,
               std::string *error)
{
    const std::string tmp = uniqueTmpPath(path);
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        if (error != nullptr)
            *error = "cannot open " + tmp;
        return false;
    }
    std::size_t written = 0;
    bool ok = true;
    while (written < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + written,
                                  bytes.size() - written);
        if (n <= 0) {
            ok = false;
            break;
        }
        written += static_cast<std::size_t>(n);
    }
    if (ok && ::fsync(fd) != 0)
        ok = false;
    if (::close(fd) != 0)
        ok = false;

    std::error_code ec;
    if (ok) {
        std::filesystem::rename(tmp, path, ec);
        if (!ec)
            return true;
        if (error != nullptr)
            *error = "cannot rename " + tmp + " to " + path + ": " +
                     ec.message();
    } else if (error != nullptr) {
        *error = "short write to " + tmp;
    }
    std::filesystem::remove(tmp, ec);
    return false;
}

std::string
headerLine(const std::string &tool)
{
    // Version 2: SimResult grew the fault-response fields.
    return "{\"ramp_journal\":2,\"tool\":\"" + jsonEscape(tool) + "\"}";
}

} // namespace

bool
atomicWriteFile(const std::string &path, std::string_view bytes,
                std::string *error)
{
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);

    for (int attempt = 0; attempt < writeAttempts; ++attempt) {
        if (attempt > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10 * attempt));
        if (tryAtomicWrite(path, bytes, error))
            return true;
    }
    return false;
}

std::string
CheckpointJournal::encodeLine(const std::string &key,
                              const std::string &workload,
                              const SimResult &result)
{
    codec::Writer writer;
    writer.result(result);
    std::string body = "{\"key\":\"" + jsonEscape(key) +
                       "\",\"workload\":\"" + jsonEscape(workload) +
                       "\",\"result\":\"" +
                       codec::hexEncode(writer.bytes) + "\"";
    return body + ",\"crc\":\"" + hashHex(fnv1a64(body)) + "\"}";
}

bool
CheckpointJournal::decodeLine(const std::string &line,
                              std::string &key,
                              std::string &workload,
                              SimResult &result)
{
    // Checksum first: everything before `,"crc":"..."}` must hash
    // to the recorded value, so torn or bit-flipped lines are
    // rejected without parsing.
    const std::string crcToken = ",\"crc\":\"";
    const std::size_t crcPos = line.rfind(crcToken);
    if (crcPos == std::string::npos ||
        line.size() != crcPos + crcToken.size() + 18 ||
        line.compare(line.size() - 2, 2, "\"}") != 0)
        return false;
    const std::string recorded =
        line.substr(crcPos + crcToken.size(), 16);
    if (recorded != hashHex(fnv1a64(line.substr(0, crcPos))))
        return false;

    JsonValue doc;
    std::string error;
    if (!parseJson(line, doc, error) || doc.object.size() != 4)
        return false;
    const JsonValue *key_value = doc.find("key");
    const JsonValue *workload_value = doc.find("workload");
    const JsonValue *hex = doc.find("result");
    if (key_value == nullptr || !key_value->isString() ||
        workload_value == nullptr || !workload_value->isString() ||
        hex == nullptr || !hex->isString())
        return false;

    std::vector<std::uint8_t> bytes;
    if (!codec::hexDecode(hex->string, bytes))
        return false;
    codec::Reader reader{bytes};
    SimResult decoded = reader.result();
    if (!reader.ok || reader.pos != bytes.size())
        return false;
    key = key_value->string;
    workload = workload_value->string;
    result = std::move(decoded);
    return true;
}

CheckpointJournal::CheckpointJournal(const std::string &dir,
                                     const std::string &tool)
    : path_(dir + "/" + tool + ".ckpt.jsonl"), tool_(tool)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throw PassError(PassErrorCode::Io,
                        "cannot create checkpoint directory " + dir +
                            ": " + ec.message());
    load();
    out_.open(path_, std::ios::app);
    if (!out_)
        throw PassError(PassErrorCode::Io,
                        "cannot open checkpoint journal " + path_ +
                            " for append");
    if (std::filesystem::file_size(path_, ec) == 0 || ec) {
        out_ << headerLine(tool_) << "\n";
        out_.flush();
    }
}

void
CheckpointJournal::load()
{
    std::ifstream in(path_);
    if (!in)
        return; // No journal yet: fresh campaign.

    std::string line;
    if (!std::getline(in, line) || line != headerLine(tool_)) {
        // Unreadable header: never trust any of it. Quarantine the
        // file and start fresh.
        in.close();
        std::error_code ec;
        std::filesystem::rename(path_, path_ + ".corrupt", ec);
        ramp_warn("checkpoint journal ", path_,
                  " has an unreadable header; quarantined as ",
                  path_ + ".corrupt");
        return;
    }

    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string key, workload;
        SimResult result;
        if (decodeLine(line, key, workload, result)) {
            entries_.emplace(std::move(key),
                             Entry{std::move(workload),
                                   std::move(result)});
            ++stats_.loaded;
        } else {
            ++stats_.corruptLines;
        }
    }
    if (stats_.corruptLines > 0)
        ramp_warn("checkpoint journal ", path_, ": skipped ",
                  stats_.corruptLines,
                  " corrupt/truncated line(s); those passes will "
                  "be recomputed");
}

bool
CheckpointJournal::lookup(const std::string &key,
                          std::string &workload, SimResult &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    workload = it->second.workload;
    result = it->second.result;
    ++stats_.hits;
    return true;
}

void
CheckpointJournal::append(const std::string &key,
                          const std::string &workload,
                          const SimResult &result)
{
    const std::string line = encodeLine(key, workload, result);
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(key) != 0)
        return; // Already journaled (e.g. duplicate key).
    out_ << line << "\n";
    out_.flush();
    entries_.emplace(key, Entry{workload, result});
    ++stats_.appended;
}

CheckpointStats
CheckpointJournal::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace ramp::runner
