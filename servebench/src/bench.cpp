#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace servebench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double wall_s() { return clock_s(CLOCK_MONOTONIC); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

std::string InstanceSpec::args() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < dims.size(); ++i) out << (i ? "x" : "") << dims[i];
  out << ' ' << periodic << ' ' << stencil << ' ' << nodes << ' ' << ppn;
  return out.str();
}

int Tracer::record(std::string name, double start, double end, std::int64_t request,
                   int parent, double cpu) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start, end, cpu, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

std::vector<double> Tracer::cpus(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.cpu);
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << std::fixed << std::setprecision(3);  // nanoseconds, however long the run
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"start_us\":"
        << (s.start - origin) * 1e6 << ",\"end_us\":" << (s.end - origin) * 1e6
        << ",\"cpu_us\":" << s.cpu * 1e6 << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace servebench
