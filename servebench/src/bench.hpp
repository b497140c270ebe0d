// Shared pieces of the serving benchmark: clocks, the instance description
// every layer is fed from, in-memory trace spans, and small statistics.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

/// Monotonic wall clock in seconds.
double wall_s();
/// CPU time of the calling thread / of the whole process, in seconds.
double thread_cpu_s();
double process_cpu_s();

/// One mapping instance as a client states it on the wire:
/// "<e0>x<e1>[x<e2>] <periodic-bits> <nn|hops|component> <nodes> <ppn>".
struct InstanceSpec {
  std::vector<int> dims;
  std::string periodic;  ///< one '0'/'1' per dimension
  std::string stencil;   ///< nn | hops | component
  int nodes = 0;
  int ppn = 0;

  std::int64_t ranks() const { return static_cast<std::int64_t>(nodes) * ppn; }
  std::string args() const;
  std::string line(std::string_view verb) const { return std::string(verb) + " " + args(); }
};

/// A trace span recorded by the benchmark around one call into a layer.
struct Span {
  std::string name;
  double start = 0.0;  ///< wall_s()
  double end = 0.0;
  double cpu = 0.0;    ///< CPU seconds charged to the span (0 = not measured)
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  std::int64_t request = -1;  ///< request id shared by one request's spans
};

/// Spans kept in memory and written out when the run ends. A disabled
/// tracer records nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  int record(std::string name, double start, double end, std::int64_t request = -1,
             int parent = -1, double cpu = 0.0);
  /// Durations (end - start) in seconds of every span called `name`.
  /// Read only after the recording threads are joined.
  std::vector<double> durations(std::string_view name) const;
  std::vector<double> cpus(std::string_view name) const;
  std::size_t size() const noexcept { return spans_.size(); }
  /// One JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::mutex mutex_;  // guards spans_: connection threads record concurrently
  std::vector<Span> spans_;
};

/// Quantile with linear interpolation between order statistics; 0 for an
/// empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);
double sum(const std::vector<double>& values);

/// A metric as the result line prints it.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string json_escape(std::string_view text);

}  // namespace servebench
