// Small numeric and naming helpers shared by the benchmark and its tests.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

/// CPU time consumed by the calling thread, in seconds.
inline double threadCpuSeconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Median as Python's statistics.median computes it (mean of the middle
/// pair for an even count). Throws on an empty sample.
inline double median(std::vector<double> v) {
    if (v.empty()) throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Quartile cut points as Python's statistics.quantiles(v, n=4) gives them
/// (the default "exclusive" method). Needs at least two values.
inline std::array<double, 3> quartiles(std::vector<double> v) {
    if (v.size() < 2) throw std::invalid_argument("quartiles need at least two values");
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    std::array<double, 3> out{};
    for (long i = 1; i <= 3; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        out[static_cast<std::size_t>(i - 1)] =
            (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
             v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
            4.0;
    }
    return out;
}

/// Inter-quartile distance as a share of the median (0 for fewer than two
/// values or a zero median).
inline double iqrShare(const std::vector<double>& v) {
    if (v.size() < 2) return 0.0;
    const double med = median(v);
    if (med == 0.0) return 0.0;
    const auto q = quartiles(v);
    return (q[2] - q[0]) / med;
}

/// Metric names: a letter or digit, then letters, digits, '_', '.' or
/// '-'; at most 64 characters.
inline bool validMetricName(std::string_view s) {
    if (s.empty() || s.size() > 64) return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    };
    if (!alnum(s.front())) return false;
    return std::all_of(s.begin(), s.end(),
                       [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

/// Units: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'.
inline bool validUnit(std::string_view s) {
    if (s.empty() || s.size() > 16) return false;
    return std::all_of(s.begin(), s.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
               c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
    });
}

}  // namespace perfbench
