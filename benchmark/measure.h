// Timing, resource-usage and reporting helpers shared by the workloads
// and the traced layer probes.
#ifndef TOPKJOIN_BENCHMARK_MEASURE_H_
#define TOPKJOIN_BENCHMARK_MEASURE_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace topkjoin::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear-interpolated quantile of `samples` (q in [0, 1]); 0 if empty.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

/// CPU time, minor faults and resident high-water mark of the process.
struct Usage {
  double cpu_ms = 0.0;
  double minor_faults = 0.0;
  double peak_rss_mb = 0.0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto ms = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 +
             static_cast<double>(tv.tv_usec) / 1e3;
    };
    Usage u;
    u.cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
    u.minor_faults = static_cast<double>(ru.ru_minflt);
    u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
    return u;
  }
};

/// Wall and CPU time the benchmark spends on its own checks inside a
/// timed loop, so the loop's figures can leave them out.
class CheckTime {
 public:
  void Begin() {
    wall_start_ = Clock::now();
    usage_start_ = Usage::Now();
  }
  void End() {
    const Usage u = Usage::Now();
    wall_s_ += SecondsBetween(wall_start_, Clock::now());
    cpu_ms_ += u.cpu_ms - usage_start_.cpu_ms;
    minor_faults_ += u.minor_faults - usage_start_.minor_faults;
  }
  double wall_s() const { return wall_s_; }
  double cpu_ms() const { return cpu_ms_; }
  double minor_faults() const { return minor_faults_; }

 private:
  Clock::time_point wall_start_;
  Usage usage_start_;
  double wall_s_ = 0.0;
  double cpu_ms_ = 0.0;
  double minor_faults_ = 0.0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

}  // namespace topkjoin::bench

#endif  // TOPKJOIN_BENCHMARK_MEASURE_H_
