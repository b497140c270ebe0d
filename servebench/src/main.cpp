// servebench: one run of one workload of the plan-serving benchmark.
//
//   servebench --workload <cold-sweep|hot-replay|spec-churn> --seed N
//                     --seconds S --trace <0|1> --bin-dir DIR
//
// Starts plan_server (from DIR) with its default configuration, drives it
// over loopback TCP in a closed loop, checks every served frame with the
// independent oracle, and prints as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 repeats the run with client spans on, then
// replays the same instances in-process layer by layer and reports the
// per-layer metrics (the traced end-to-end figures under "traced.*"). The
// lines before it carry the machine fingerprint and request counts.
#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "engine/objective.hpp"
#include "engine/service.hpp"
#include "layers.hpp"
#include "loopback.hpp"
#include "netsim/exchange.hpp"
#include "netsim/machine.hpp"
#include "oracle.hpp"

namespace {

using namespace servebench;

/// Message size of the modelled MPI_Neighbor_alltoall, bytes per neighbour.
constexpr std::int64_t kExchangeBytes = 1024;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
};

int usage() {
  std::cerr << "usage: servebench --workload <cold-sweep|hot-replay|spec-churn>"
               " --seed N --seconds S --trace <0|1> --bin-dir DIR\n";
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  }
  return "unknown";
}

/// The option defaults plan_server runs with, as this build of the library
/// defines them.
std::string server_defaults() {
  const gridmap::engine::ServiceOptions service;
  const gridmap::engine::EngineOptions engine;
  std::ostringstream out;
  out << "workers " << service.workers << ", queue " << service.queue_capacity << ", cache "
      << engine.cache_capacity << " plans, objective " << gridmap::engine::to_string(engine.objective)
      << ", single-flight " << (service.single_flight ? "on" : "off") << ", speculation budget "
      << std::chrono::duration<double, std::milli>(engine.speculation_budget).count() << " ms";
  return out.str();
}

/// Modelled neighbour-exchange time of a node assignment on VSC4.
double exchange_s(const InstanceSpec& spec, const std::vector<int>& nodes) {
  gridmap::TrafficMatrix traffic(spec.nodes);
  for_each_edge(spec, [&](std::int64_t from, std::int64_t to) {
    traffic.add(nodes[static_cast<std::size_t>(from)], nodes[static_cast<std::size_t>(to)]);
  });
  const int degree = static_cast<int>(stencil_offsets(spec.stencil, static_cast<int>(spec.dims.size())).size());
  return gridmap::exchange_time(gridmap::vsc4(), traffic, kExchangeBytes, degree, /*use_fluid=*/false);
}

/// Runs the oracle over every stored frame, recording each failure.
void check_frames(RunResult& run) {
  const auto checked = [&](int instance, const std::string& text, bool provisional) {
    const PlanFrame frame = parse_frame(text);
    if (frame.provisional != provisional) throw std::runtime_error("provisional flag misplaced");
    return check_frame(run.instances[static_cast<std::size_t>(instance)], frame);
  };
  const auto guarded = [&](const std::string& what, auto&& check) {
    try {
      check();
    } catch (const std::exception& e) {
      run.correctness_errors.push_back(what + ": " + e.what());
    }
  };
  // Every distinct final frame (warm-up frames included) ...
  for (const auto& [instance, frame] : run.frame_of) {
    guarded(run.instances[static_cast<std::size_t>(instance)].args(), [&] {
      const InstanceSpec& spec = run.instances[static_cast<std::size_t>(instance)];
      const Cut cut = checked(instance, frame, false);
      if (!no_worse(cut, count_cut(spec, blocked_nodes(spec)))) {
        throw std::runtime_error("final plan is worse than blocked");
      }
    });
  }
  // ... and every stored answer, provisional tiers against their finals.
  for (const Served& s : run.served) {
    if (!s.error.empty() || s.final_frame.empty()) continue;
    guarded(run.instances[static_cast<std::size_t>(s.instance)].args(), [&] {
      const Cut final_cut = checked(s.instance, s.final_frame, false);
      if (s.provisional && !no_worse(final_cut, checked(s.instance, s.first_frame, true))) {
        throw std::runtime_error("final plan is worse than its provisional plan");
      }
    });
  }
}

/// Quality ratios: per instance, the plan's figure over blocked's, averaged
/// (arithmetic mean) over the distinct instances of the run's first whole
/// rounds that hold at least kQualityInstances of them -- a fixed set for a
/// given seed. A geometric mean would collapse whenever a plan cuts nothing
/// (component stencils on grids whose lines fit a node), which some seeds
/// hit and others do not.
constexpr std::size_t kQualityInstances = 60;

void quality(const RunResult& run, Metrics& m) {
  std::vector<double> jsum, jmax, first_jsum, exchange;
  std::set<int> seen;
  int last_round = -1;
  for (const Served& s : run.served) {
    if (s.round > last_round) {
      if (seen.size() >= kQualityInstances) break;
      last_round = s.round;
    }
    if (!s.error.empty() || !seen.insert(s.instance).second) continue;
    const InstanceSpec& spec = run.instances[static_cast<std::size_t>(s.instance)];
    const std::vector<int> blocked = blocked_nodes(spec);
    const Cut base = count_cut(spec, blocked);
    const std::vector<int> nodes = node_of_cell(spec, parse_frame(run.frame_of.at(s.instance)).cells);
    const Cut final_cut = count_cut(spec, nodes);
    const Cut first_cut =
        s.provisional ? count_cut(spec, node_of_cell(spec, parse_frame(s.first_frame).cells)) : final_cut;
    const auto ratio = [](std::int64_t x, std::int64_t b) { return static_cast<double>(x) / b; };
    jsum.push_back(ratio(final_cut.jsum, base.jsum));
    jmax.push_back(ratio(final_cut.jmax, base.jmax));
    first_jsum.push_back(ratio(first_cut.jsum, base.jsum));
    exchange.push_back(exchange_s(spec, nodes) / exchange_s(spec, blocked));
  }
  m["jsum_vs_blocked"] = {mean(jsum), "ratio"};
  m["jmax_vs_blocked"] = {mean(jmax), "ratio"};
  m["first_plan_jsum_vs_blocked"] = {mean(first_jsum), "ratio"};
  m["exchange_vs_blocked"] = {mean(exchange), "ratio"};
}

Metrics end_to_end(const RunResult& run) {
  std::vector<double> final_ms, first_ms;
  for (const Served& s : run.served) {
    if (!s.error.empty()) continue;
    final_ms.push_back(s.final_s * 1e3);
    first_ms.push_back(s.first_s * 1e3);
  }
  const double plans = static_cast<double>(final_ms.size());
  Metrics m;
  m["setup_s"] = {median(run.setup_samples) + run.warmup_s, "s"};
  m["plan_ms_p50"] = {median(final_ms), "ms"};
  m["plan_ms_p90"] = {quantile(final_ms, 0.9), "ms"};
  m["first_plan_ms_p50"] = {median(first_ms), "ms"};
  m["plans_per_s"] = {plans / run.timed_s, "1/s"};
  m["server_cpu_ms_per_plan"] = {run.server_cpu_s * 1e3 / plans, "ms"};
  quality(run, m);
  return m;
}

/// Layer medians along the blocking path of the workload's typical request,
/// against the end-to-end median that path ends in.
void reconcile(const std::string& workload, const Metrics& e2e, Metrics& m) {
  const auto ms = [&](const char* name) {
    const Metric& metric = m.at(name);
    return metric.unit == "us" ? metric.value / 1e3 : metric.value;
  };
  double sum = ms("wire.parse_us") + ms("engine.signature_us") + ms("engine.cache_probe_us") +
               ms("plan_io.serialize_us") + ms("wire.transfer_us");
  double target = e2e.at("plan_ms_p50").value;
  if (workload == "cold-sweep") sum += ms("engine.race_ms");
  if (workload == "spec-churn") {
    sum += ms("engine.speculate_us");
    target = e2e.at("first_plan_ms_p50").value;
  }
  m["reconcile.layer_sum_ms"] = {sum, "ms"};
  m["reconcile.remainder_ms"] = {target - sum, "ms"};
}

void print_result(bool correct, std::size_t attempted, std::size_t failed, const Metrics& m) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << metric.value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int run(const Args& args) {
  oracle_self_test();
  const std::string out_dir = args.bin_dir + "/out";
  ::mkdir(out_dir.c_str(), 0755);

  Tracer tracer(args.trace);
  LoopbackOptions options;
  options.workload = args.workload;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.server_binary = args.bin_dir + "/plan_server";
  RunResult result = run_loopback(options, tracer);
  check_frames(result);

  std::size_t failed = 0;
  for (const Served& s : result.served) {
    if (s.error.empty()) continue;
    if (failed++ < 5) std::cerr << "request failed: " << s.error << "\n";
  }
  const Metrics e2e = end_to_end(result);
  Metrics metrics = e2e;
  if (args.trace) {
    metrics = replay_layers(result, out_dir, tracer);
    const auto stat = [&](const char* key) {
      const auto it = result.stats.find(key);
      return it == result.stats.end() ? 0.0 : static_cast<double>(it->second);
    };
    metrics["service.races"] = {stat("completed") + stat("failed"), "count"};
    metrics["service.dedup_joins"] = {stat("deduped"), "count"};
    metrics["service.cache_hits"] = {stat("cache_hits"), "count"};
    metrics["service.upgraded"] = {stat("upgraded"), "count"};
    const double finals = static_cast<double>(result.served.size() - failed);
    metrics["wire.frame_kib"] = {result.final_frame_bytes / finals / 1024.0, "KiB"};
    metrics["server.peak_rss_mib"] = {result.server_peak_rss_mib, "MiB"};
    reconcile(args.workload, e2e, metrics);
    for (const auto& [name, metric] : e2e) metrics["traced." + name] = metric;
    const std::string trace_path =
        out_dir + "/trace-" + args.workload + "-seed" + std::to_string(args.seed) + ".jsonl";
    tracer.write_jsonl(trace_path);
    std::cout << "# trace: " << tracer.size() << " spans written to " << trace_path << "\n";
  }

  bool correct = result.correctness_errors.empty();
  for (const std::string& error : result.correctness_errors) std::cerr << "oracle: " << error << "\n";
  for (auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      std::cerr << "metric " << name << " is not finite\n";
      metric.value = 0.0;
      correct = false;
    }
  }

  std::cout << "# fingerprint {\"hw_threads\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
            << SERVEBENCH_COMPILER << "\", \"build_type\": \"" << SERVEBENCH_BUILD_TYPE
            << "\", \"server\": \"" << json_escape(result.banner + " (" + server_defaults() + ")")
            << "\", \"client_nice\": " << result.client_nice << "}\n";
  std::cout << "# " << args.workload << " seed " << args.seed << ": attempted "
            << result.served.size() << " failed " << failed << " rounds " << result.rounds
            << " timed " << result.timed_s << " s, oracle "
            << (result.correctness_errors.empty() ? "ok" : "FAILED") << "\n";
  print_result(correct, result.served.size(), failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--bin-dir") {
        args.bin_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (args.bin_dir.empty() ||
      (args.workload != "cold-sweep" && args.workload != "hot-replay" &&
       args.workload != "spec-churn")) {
    return usage();
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 1;
  }
}
