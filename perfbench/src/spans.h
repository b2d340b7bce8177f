// The benchmark's own span recorder and per-layer timers. Spans are taken
// around calls into the program's public functions (the program's own
// tracer is not used), kept in memory, and written as one Chrome-trace
// JSON at the end of a traced run.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CPU time of every thread of this process, in seconds. On a guest with
/// paravirtual steal accounting (the reference host) the kernel leaves
/// hypervisor steal out of it, so unlike wall time it does not move with
/// how busy the host's other guests are.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of the calling thread, in seconds.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall and process-CPU time since construction.
class Stopwatch {
 public:
  double WallS() const { return Seconds(wall_, Clock::now()); }
  double CpuS() const { return ProcessCpuSeconds() - cpu_; }

 private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = ProcessCpuSeconds();
};

/// CPU time of each thread of this process since construction. The busiest
/// thread's figure stands for a round's critical path: it rises when work
/// moves from both lanes onto one (a lost fan-out, a longer serial step),
/// which process CPU time does not show, and like process CPU time it
/// leaves hypervisor steal out.
class LaneWatch {
 public:
  double BusiestS() const {
    double busiest = 0.0;
    for (const auto& [tid, cpu] : ThreadCpuTimes()) {
      const auto it = start_.find(tid);
      busiest = std::max(busiest, cpu - (it == start_.end() ? 0.0 : it->second));
    }
    return busiest;
  }

 private:
  /// CPU seconds of every live thread, by thread id. Linux names a thread's
  /// CPU clock ((~tid) << 3) | 6 (scheduler clock, per-thread), as glibc's
  /// pthread_getcpuclockid does.
  static std::map<long, double> ThreadCpuTimes() {
    std::map<long, double> times;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const long tid = std::strtol(entry.path().filename().c_str(), nullptr, 10);
      timespec ts{};
      if (tid > 0 && clock_gettime((~static_cast<clockid_t>(tid) << 3) | 6, &ts) == 0) {
        times[tid] = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
      }
    }
    return times;
  }

  std::map<long, double> start_ = ThreadCpuTimes();
};

/// Median of a sample (0 for an empty one).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, q in [0, 1] (0 for an empty sample).
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

/// In-memory span log: name, start, end, parent. Thread-safe, because the
/// per-unit analysis spans are recorded from pool tasks.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  SpanLog() : epoch_(Clock::now()) {}

  int Begin(const std::string& name, int parent) {
    const double start = Seconds(epoch_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, start, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) {
    const double end = Seconds(epoch_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = end;
  }

  /// {"traceEvents": [...]}: one complete ("X") event per span, with the
  /// parent span's index in args.
  std::string ChromeTraceJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"traceEvents\":[";
    char buffer[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::snprintf(buffer, sizeof(buffer),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",", span.name.c_str(), span.start_s * 1e6,
                    (span.end_s - span.start_s) * 1e6, i, span.parent);
      out += buffer;
    }
    out += "]}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = kNoParent;
  };
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Wall and CPU samples per layer call site, gathered in one traced round.
struct LayerSamples {
  std::vector<double> wall_s;
  double cpu_s = 0.0;
  double total_s() const {
    double sum = 0.0;
    for (double s : wall_s) sum += s;
    return sum;
  }
};

/// One traced round: the span log and the per-layer samples. Untraced
/// code paths pass a null Trace* and record nothing.
struct Trace {
  SpanLog spans;
  std::map<std::string, LayerSamples> layers;
};

/// Times one call into the program from the main thread: a span, plus a
/// wall sample and the process CPU time across the call under `layer`.
/// With a null trace it does nothing.
class LayerScope {
 public:
  LayerScope(Trace* trace, const std::string& layer, int parent)
      : trace_(trace), layer_(layer) {
    if (trace_ == nullptr) return;
    id_ = trace_->spans.Begin(layer, parent);
    cpu_start_ = ProcessCpuSeconds();
    start_ = Clock::now();
  }
  ~LayerScope() {
    if (trace_ == nullptr) return;
    LayerSamples& samples = trace_->layers[layer_];
    samples.wall_s.push_back(Seconds(start_, Clock::now()));
    samples.cpu_s += ProcessCpuSeconds() - cpu_start_;
    trace_->spans.End(id_);
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

  int id() const { return id_; }

 private:
  Trace* trace_;
  std::string layer_;
  int id_ = SpanLog::kNoParent;
  double cpu_start_ = 0.0;
  Clock::time_point start_;
};

}  // namespace perfbench
