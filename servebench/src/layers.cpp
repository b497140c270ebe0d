#include "layers.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/metrics.hpp"
#include "engine/plan_io.hpp"
#include "engine/portfolio.hpp"
#include "engine/service.hpp"
#include "engine/sharded_service.hpp"
#include "engine/signature.hpp"
#include "engine/thread_pool.hpp"
#include "engine/wire.hpp"

namespace servebench {

namespace {

using namespace gridmap;
using namespace gridmap::engine;

/// Instances of the race replay, and of the heavier per-backend replay:
/// rank-count quantiles of the workload's distinct instances, so their
/// median is the median instance.
constexpr int kRaceSample = 15;
constexpr int kBackendSample = 7;
/// Instances of the speculation replay: the smallest distinct instances.
constexpr int kSpeculateSample = 8;
/// Requests and repetitions of the cheap per-call replay, sampled from the
/// timed request stream so their medians follow the request mix.
constexpr int kLightSample = 64;
constexpr int kLightReps = 5;

Instance build(const InstanceSpec& spec) {
  std::vector<bool> periodic;
  for (const char bit : spec.periodic) periodic.push_back(bit == '1');
  CartesianGrid grid(spec.dims, periodic);
  const int nd = grid.ndims();
  Stencil stencil = spec.stencil == "nn"     ? Stencil::nearest_neighbor(nd)
                    : spec.stencil == "hops" ? Stencil::nearest_neighbor_with_hops(nd)
                                             : Stencil::component(nd);
  return Instance{std::move(grid), std::move(stencil),
                  NodeAllocation::homogeneous(spec.nodes, spec.ppn)};
}

/// "hyperplane+sockets" -> "hyperplane-sockets" (metric names allow no '+').
std::string metric_name(std::string name) {
  std::replace(name.begin(), name.end(), '+', '-');
  return name;
}

/// `count` evenly spaced picks from `from`, which must be non-empty.
std::vector<int> spread(const std::vector<int>& from, int count) {
  std::vector<int> out;
  const int n = static_cast<int>(from.size());
  if (n <= count) return from;
  for (int k = 0; k < count; ++k) {
    out.push_back(from[static_cast<std::size_t>(count == 1 ? 0 : k * (n - 1) / (count - 1))]);
  }
  return out;
}

}  // namespace

Metrics replay_layers(RunResult& run, const std::string& work_dir, Tracer& tracer) {
  const MapperRegistry registry = MapperRegistry::with_default_backends();
  const auto spec_of = [&](int i) -> const InstanceSpec& {
    return run.instances[static_cast<std::size_t>(i)];
  };
  const auto note = [&](const std::string& what) { run.correctness_errors.push_back(what); };
  Metrics m;
  const auto put = [&](const std::string& name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };

  // The request stream, and the distinct served instances by rank count.
  std::vector<int> stream;
  for (const Served& s : run.served) {
    if (s.error.empty()) stream.push_back(s.instance);
  }
  if (stream.empty()) throw std::runtime_error("no plan was served; nothing to replay");
  std::vector<int> by_size;
  for (const auto& [instance, frame] : run.frame_of) by_size.push_back(instance);
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&](int a, int b) { return spec_of(a).ranks() < spec_of(b).ranks(); });

  // ---- cheap per-call layers, on an in-process service warmed with the
  // very frames the server sent (through the cache-file warm start).
  const std::vector<int> light = spread(stream, kLightSample);
  const std::string cache_path =
      work_dir + "/warm-cache-" + std::to_string(::getpid());
  const std::string cache_file = ShardedService::shard_file(cache_path, 0);
  {
    std::ofstream out(cache_file, std::ios::binary);
    for (const auto& [instance, frame] : run.frame_of) out << frame;
    if (!out) throw std::runtime_error("cannot write " + cache_path);
  }
  {
    EngineOptions warm_options;
    warm_options.cache_file = cache_path;
    warm_options.cache_capacity = run.frame_of.size() + 1;
    ShardedService warm(registry, warm_options);
    MappingService& shard = warm.shard(0);
    bool ignored = false;
    for (const int i : light) {
      const InstanceSpec& spec = spec_of(i);
      const std::string& frame = run.frame_of.at(i);
      const MappingPlan plan = parse_plan(frame);
      const std::string line = spec.line("map");
      const std::string args = spec.args();
      for (int rep = 0; rep < kLightReps; ++rep) {
        double t0 = wall_s();
        std::istringstream in(args);
        const wire::MapRequest request = wire::parse_map_request(in);
        double t1 = wall_s();
        tracer.record("wire.parse", t0, t1, i);
        const Instance& inst = request.instance;

        t0 = wall_s();
        const std::string signature =
            instance_signature(inst.grid, inst.stencil, inst.alloc, warm.objective());
        t1 = wall_s();
        tracer.record("engine.signature", t0, t1, i);

        t0 = wall_s();
        const bool cached = shard.engine().cached(signature) != nullptr;
        t1 = wall_s();
        tracer.record("engine.cache_probe", t0, t1, i);
        if (!cached) note("in-process cache misses a served plan: " + args);

        t0 = wall_s();
        const std::string text = serialize_plan(plan);
        t1 = wall_s();
        tracer.record("plan_io.serialize", t0, t1, i);
        if (text != frame) note("served frame does not re-serialize byte-identically: " + args);

        t0 = wall_s();
        const wire::Response response = wire::handle_request_ex(warm, line, ignored);
        t1 = wall_s();
        tracer.record("wire.handle_hit", t0, t1, i);
        if (response.immediate != frame) note("in-process hit differs from the served frame: " + args);

        t0 = wall_s();
        MapTicket ticket = shard.map_async(inst.grid, inst.stencil, inst.alloc);
        ticket.get();
        t1 = wall_s();
        tracer.record("service.submit_hit", t0, t1, i);
      }
    }
    // Transfer: the same hit requests the client timed over loopback,
    // handled in-process; the difference is what the wire path adds.
    std::vector<double> transfer;
    for (std::size_t k = 0; k < run.probe_instances.size(); ++k) {
      const int i = run.probe_instances[k];
      const double t0 = wall_s();
      const wire::Response response = wire::handle_request_ex(warm, spec_of(i).line("map"), ignored);
      const double t1 = wall_s();
      tracer.record("wire.handle_probe", t0, t1, i);
      if (response.immediate != run.frame_of.at(i)) note("probe hit differs in-process");
      transfer.push_back(run.probe_loopback_s[k] - (t1 - t0));
    }
    put("wire.transfer_us", median(transfer) * 1e6, "us");
  }
  std::remove(cache_file.c_str());  // the engine persists its cache on destruction
  std::remove((cache_file + ".tmp").c_str());

  // ---- races on a size-spread sample; backends and scoring on a smaller
  // one, which holds a 2-d instance so the 2-d-only backends are measured.
  const std::vector<int> race_sample = spread(by_size, kRaceSample);
  std::vector<int> backend_sample = spread(race_sample, kBackendSample);
  const auto is_2d = [&](int i) { return spec_of(i).dims.size() == 2; };
  if (std::none_of(backend_sample.begin(), backend_sample.end(), is_2d)) {
    const auto two_d = std::find_if(race_sample.begin(), race_sample.end(), is_2d);
    if (two_d != race_sample.end()) backend_sample.push_back(*two_d);
  }
  PortfolioEngine race_engine(registry, EngineOptions{});  // plan_server's options
  EngineOptions serial_options;
  serial_options.threads = 1;
  serial_options.gmap_threads = 1;
  PortfolioEngine serial_engine(registry, serial_options);
  ThreadPool pool(race_engine.threads());
  std::vector<double> runs_per_race;
  std::map<std::string, double> remap_cpu;
  for (const std::string& name : registry.names()) remap_cpu[name] = 0.0;
  double viem_pooled = 0.0;
  for (const int i : race_sample) {
    const Instance inst = build(spec_of(i));
    double t0 = wall_s();
    const StencilAdjacency adjacency = inst.grid.adjacency(inst.stencil);
    double t1 = wall_s();
    tracer.record("eval.adjacency_build", t0, t1, i);

    race_engine.clear_cache();
    const std::uint64_t runs0 = race_engine.mapper_runs();
    const double cpu0 = process_cpu_s();
    t0 = wall_s();
    const auto plan = race_engine.map(inst.grid, inst.stencil, inst.alloc);
    t1 = wall_s();
    tracer.record("engine.race", t0, t1, i, -1, process_cpu_s() - cpu0);
    runs_per_race.push_back(static_cast<double>(race_engine.mapper_runs() - runs0));
    if (std::find(backend_sample.begin(), backend_sample.end(), i) == backend_sample.end()) {
      continue;
    }

    serial_engine.clear_cache();
    t0 = wall_s();
    const auto serial_plan = serial_engine.map(inst.grid, inst.stencil, inst.alloc);
    t1 = wall_s();
    tracer.record("engine.race_serial", t0, t1, i);
    if (!(*serial_plan == *plan)) note("serial and parallel races disagree on " + spec_of(i).args());

    for (const std::string& name : registry.names()) {
      const std::unique_ptr<Mapper> mapper = registry.create(name);
      mapper->configure_execution(nullptr, 1, nullptr);
      if (!mapper->applicable(inst.grid, inst.stencil, inst.alloc)) continue;
      const double c0 = thread_cpu_s();
      t0 = wall_s();
      const Remapping remapping = mapper->remap(inst.grid, inst.stencil, inst.alloc);
      t1 = wall_s();
      const double cpu = thread_cpu_s() - c0;
      tracer.record("mapper.remap." + name, t0, t1, i, -1, cpu);
      remap_cpu[name] += cpu;

      const std::vector<NodeId> nodes = remapping.node_of_cell(inst.alloc);
      const StencilAdjacency& warm = EvalScratch::local().adjacency(inst.grid, inst.stencil);
      t0 = wall_s();
      evaluate_mapping(warm, nodes, inst.alloc.num_nodes());
      t1 = wall_s();
      tracer.record("eval.evaluate", t0, t1, i);
    }

    const std::unique_ptr<Mapper> viem = registry.create("viem");
    viem->configure_execution(&pool, race_engine.threads(), nullptr);
    t0 = wall_s();
    viem->remap(inst.grid, inst.stencil, inst.alloc);
    t1 = wall_s();
    tracer.record("mapper.viem_pooled", t0, t1, i);
    viem_pooled += t1 - t0;
  }

  // ---- the speculative tier, on the smallest instances (the churn misses'
  // range): the engine's synchronous pass, then the service's two-tier submit.
  const std::vector<int> small(by_size.begin(),
                               by_size.begin() + std::min<std::ptrdiff_t>(kSpeculateSample,
                                                                          by_size.size()));
  {
    PortfolioEngine cold(registry, EngineOptions{});
    for (const int i : small) {
      const Instance inst = build(spec_of(i));
      for (int rep = 0; rep < 3; ++rep) {
        const double t0 = wall_s();
        cold.speculate(inst.grid, inst.stencil, inst.alloc);
        tracer.record("engine.speculate", t0, wall_s(), i);
      }
    }
    MappingService service(registry, EngineOptions{}, ServiceOptions{});
    for (const int i : small) {
      const Instance inst = build(spec_of(i));
      const double t0 = wall_s();
      MapTicket ticket =
          service.map_async(inst.grid, inst.stencil, inst.alloc, Priority::kNormal, true);
      ticket.provisional().get();
      tracer.record("service.submit_spec", t0, wall_s(), i);
      ticket.get();  // let the background race finish before the next submit
    }
  }

  const auto us = [&](const char* span) { return median(tracer.durations(span)) * 1e6; };
  const auto ms = [&](const char* span) { return median(tracer.durations(span)) * 1e3; };
  put("wire.parse_us", us("wire.parse"), "us");
  put("wire.handle_hit_us", us("wire.handle_hit"), "us");
  put("plan_io.serialize_us", us("plan_io.serialize"), "us");
  put("plan_io.serialize_us_p90", quantile(tracer.durations("plan_io.serialize"), 0.9) * 1e6, "us");
  put("engine.signature_us", us("engine.signature"), "us");
  put("engine.cache_probe_us", us("engine.cache_probe"), "us");
  put("engine.race_ms", ms("engine.race"), "ms");
  put("engine.race_ms_p90", quantile(tracer.durations("engine.race"), 0.9) * 1e3, "ms");
  put("engine.race_cpu_ms", median(tracer.cpus("engine.race")) * 1e3, "ms");
  put("engine.race_serial_ms", ms("engine.race_serial"), "ms");
  put("engine.mapper_runs_per_plan", mean(runs_per_race), "count");
  put("engine.speculate_us", us("engine.speculate"), "us");
  put("service.submit_hit_us", us("service.submit_hit"), "us");
  put("service.submit_spec_us", us("service.submit_spec"), "us");
  for (const auto& [name, cpu] : remap_cpu) put("mapper.remap_cpu_ms." + metric_name(name), cpu * 1e3, "ms");
  put("mapper.viem_pooled_ms", viem_pooled * 1e3, "ms");
  put("eval.adjacency_build_ms", ms("eval.adjacency_build"), "ms");
  put("eval.evaluate_ms", ms("eval.evaluate"), "ms");
  return m;
}

}  // namespace servebench
