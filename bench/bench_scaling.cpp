// Scaling of the mapping algorithms with the process count p: the paper's
// complexity claims are O(log N * sum d_i) for Hyperplane, O(log p log d)
// for k-d Tree and O(k d) for Stencil Strips *per rank*. We time both a
// single new_coordinate call (the distributed cost) and the full remap,
// which builds the decomposition once and writes the p cells in O(p)
// rather than repeating the per-rank descent p times, plus the general
// graph mapper for contrast.
#include <benchmark/benchmark.h>

#include "core/algorithms.hpp"
#include "core/dims_create.hpp"
#include "core/hyperplane.hpp"
#include "core/kd_tree.hpp"
#include "core/stencil_strips.hpp"
#include "gmap/gmap.hpp"

namespace {

using namespace gridmap;

struct Instance {
  CartesianGrid grid;
  NodeAllocation alloc;
  Stencil stencil;
};

Instance make_instance(std::int64_t p) {
  const int ppn = 48;
  const int nodes = static_cast<int>(p / ppn);
  return {CartesianGrid(dims_create(p, 2)), NodeAllocation::homogeneous(nodes, ppn),
          Stencil::nearest_neighbor(2)};
}

template <typename MapperT>
void BM_PerRank(benchmark::State& state) {
  const Instance inst = make_instance(state.range(0));
  const MapperT mapper;
  Rank r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mapper.new_coordinate(inst.grid, inst.stencil, inst.alloc, r));
    r = (r + 12345) % static_cast<Rank>(inst.grid.size());
  }
}

template <typename MapperT>
void BM_FullRemap(benchmark::State& state) {
  const Instance inst = make_instance(state.range(0));
  const MapperT mapper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.remap(inst.grid, inst.stencil, inst.alloc));
  }
}

void BM_GmapRemap(benchmark::State& state) {
  const Instance inst = make_instance(state.range(0));
  const GeneralGraphMapper mapper(GmapOptions::fast());
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.remap(inst.grid, inst.stencil, inst.alloc));
  }
}

}  // namespace

BENCHMARK_TEMPLATE(BM_PerRank, HyperplaneMapper)
    ->Arg(960)->Arg(3840)->Arg(15360)->Arg(61440)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_PerRank, KdTreeMapper)
    ->Arg(960)->Arg(3840)->Arg(15360)->Arg(61440)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_PerRank, StencilStripsMapper)
    ->Arg(960)->Arg(3840)->Arg(15360)->Arg(61440)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_FullRemap, HyperplaneMapper)
    ->Arg(960)->Arg(3840)->Arg(15360)->Arg(61440)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FullRemap, KdTreeMapper)
    ->Arg(960)->Arg(3840)->Arg(15360)->Arg(61440)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_FullRemap, StencilStripsMapper)
    ->Arg(960)->Arg(3840)->Arg(15360)->Arg(61440)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GmapRemap)->Arg(960)->Arg(3840)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
