/**
 * @file
 * Helpers shared by the two benchmark harness programs: a monotonic
 * clock, FNV-1a digests, percentiles, /proc readers and a tiny JSON
 * object writer for the one result line each harness prints.
 */

#ifndef CMT_PERFBENCH_COMMON_H
#define CMT_PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void
fold(std::uint64_t &sum, const void *data, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        sum ^= b[i];
        sum *= kFnvPrime;
    }
}

inline std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Nearest-rank percentile of an ascending sample, @p p in [0, 1]. */
inline double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/**
 * The highest percentile (in percent, two decimals) that still has at
 * least ten samples above it; 0 when the sample has fewer than 11.
 */
inline double
highestSupportedPercentile(std::size_t n)
{
    if (n < 11)
        return 0;
    const double p = 100.0 * static_cast<double>(n - 10) /
                     static_cast<double>(n);
    return static_cast<double>(static_cast<long long>(p * 100)) / 100;
}

/** utime and stime of @p pid in clock ticks; false when unreadable. */
inline bool
readProcCpuTicks(long pid, std::uint64_t *utime, std::uint64_t *stime)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(in, line))
        return false;
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, utime 14, stime 15.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos)
        return false;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14)
            *utime = std::stoull(field);
        if (i == 15)
            *stime = std::stoull(field);
    }
    return static_cast<bool>(rest);
}

/** VmHWM of @p pid ("self" for this process) in KiB; 0 if absent. */
inline std::uint64_t
readVmHwmKb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    }
    return 0;
}

/** Flat JSON object writer: numbers, strings and nested raw values. */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }

    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        std::string quoted = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += (c >= 0x20) ? c : ' ';
        }
        return raw(key, quoted + "\"");
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ", ");
        body_ += "\"" + key + "\": " + json;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

} // namespace perfbench

#endif // CMT_PERFBENCH_COMMON_H
