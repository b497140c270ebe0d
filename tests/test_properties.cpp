// Property sweep over a slice of the paper's Fig. 8 instance set: for every
// (N, ppn, d, stencil, algorithm) combination we check structural invariants
// that must hold regardless of mapping quality.
#include <gtest/gtest.h>

#include <set>

#include "core/algorithms.hpp"
#include "core/dims_create.hpp"
#include "core/mapper.hpp"
#include "core/metrics.hpp"

namespace gridmap {
namespace {

struct PropertyCase {
  int nodes;
  int ppn;
  int ndims;
  int stencil_id;  // 0 = nearest neighbor, 1 = hops, 2 = component
  Algorithm algorithm;
};

Stencil stencil_by_id(int id, int ndims) {
  switch (id) {
    case 0:
      return Stencil::nearest_neighbor(ndims);
    case 1:
      return Stencil::nearest_neighbor_with_hops(ndims);
    default:
      return Stencil::component(ndims);
  }
}

class MapperProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(MapperProperties, StructuralInvariants) {
  const PropertyCase& c = GetParam();
  const std::int64_t p = static_cast<std::int64_t>(c.nodes) * c.ppn;
  const CartesianGrid grid(dims_create(p, c.ndims));
  const NodeAllocation alloc = NodeAllocation::homogeneous(c.nodes, c.ppn);
  const Stencil stencil = stencil_by_id(c.stencil_id, c.ndims);
  const auto mapper = make_mapper(c.algorithm);
  if (!mapper->applicable(grid, stencil, alloc)) GTEST_SKIP() << "not applicable";

  const Remapping m = mapper->remap(grid, stencil, alloc);

  // 1. Bijection (from_cells already validates; double-check the inverse).
  for (Rank r = 0; r < p; ++r) {
    EXPECT_EQ(m.rank_of(m.cell_of(r)), r);
  }

  // 2. Node occupancy matches the scheduler allocation exactly.
  const std::vector<NodeId> node_of_cell = m.node_of_cell(alloc);
  std::vector<int> counts(static_cast<std::size_t>(c.nodes), 0);
  for (const NodeId n : node_of_cell) ++counts[static_cast<std::size_t>(n)];
  for (NodeId n = 0; n < c.nodes; ++n) {
    EXPECT_EQ(counts[static_cast<std::size_t>(n)], alloc.size(n));
  }

  // 3. Cost sanity: Jsum within [0, |E|], Jmax <= Jsum, bottleneck correct.
  const MappingCost cost = evaluate_mapping(grid, stencil, node_of_cell, c.nodes);
  EXPECT_GE(cost.jsum, 0);
  EXPECT_LE(cost.jsum, grid.count_directed_edges(stencil));
  EXPECT_LE(cost.jmax, cost.jsum);
  std::int64_t out_total = 0;
  for (const std::int64_t o : cost.out_edges) out_total += o;
  EXPECT_EQ(out_total, cost.jsum);

  // 4. Distributed mappers: per-rank coordinates agree with the full remap
  //    at every rank.
  if (const auto* dist = dynamic_cast<const DistributedMapper*>(mapper.get())) {
    for (Rank r = 0; r < p; ++r) {
      EXPECT_EQ(grid.cell_of(dist->new_coordinate(grid, stencil, alloc, r)), m.cell_of(r));
    }
  }
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  const std::vector<Algorithm> algorithms = {
      Algorithm::kBlocked,       Algorithm::kHyperplane, Algorithm::kKdTree,
      Algorithm::kStencilStrips, Algorithm::kNodecart,   Algorithm::kRandom};
  for (const int nodes : {10, 13, 16}) {
    for (const int ppn : {10, 13, 32}) {
      for (const int ndims : {2, 3}) {
        for (const int stencil_id : {0, 1, 2}) {
          for (const Algorithm a : algorithms) {
            cases.push_back({nodes, ppn, ndims, stencil_id, a});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Fig8Slice, MapperProperties,
                         ::testing::ValuesIn(property_cases()),
                         [](const ::testing::TestParamInfo<PropertyCase>& info) {
                           const PropertyCase& c = info.param;
                           std::string name = std::string("N") + std::to_string(c.nodes) +
                                              "p" + std::to_string(c.ppn) + "d" +
                                              std::to_string(c.ndims) + "s" +
                                              std::to_string(c.stencil_id) + "a";
                           for (const char ch : to_string(c.algorithm)) {
                             if (std::isalnum(static_cast<unsigned char>(ch))) name += ch;
                           }
                           return name;
                         });

class ReductionQuality : public ::testing::TestWithParam<int> {};

TEST_P(ReductionQuality, SpecializedMappersBeatBlockedOnFig8Slice) {
  // The paper's Fig. 8 claim, spot-checked: the new algorithms' median Jsum
  // reduction is well below 1. Here: each algorithm beats blocked on the
  // aggregate over a slice of instances (individual instances may tie).
  const int stencil_id = GetParam();
  const std::vector<Algorithm> algorithms = {
      Algorithm::kHyperplane, Algorithm::kKdTree, Algorithm::kStencilStrips};
  for (const Algorithm a : algorithms) {
    std::int64_t total_algo = 0;
    std::int64_t total_blocked = 0;
    for (const int nodes : {10, 19, 28}) {
      for (const int ppn : {13, 25}) {
        const std::int64_t p = static_cast<std::int64_t>(nodes) * ppn;
        const CartesianGrid grid(dims_create(p, 2));
        const NodeAllocation alloc = NodeAllocation::homogeneous(nodes, ppn);
        const Stencil stencil = stencil_by_id(stencil_id, 2);
        const auto mapper = make_mapper(a);
        total_algo +=
            evaluate_mapping(grid, stencil, mapper->remap(grid, stencil, alloc), alloc).jsum;
        total_blocked +=
            evaluate_mapping(grid, stencil, Remapping::identity(grid), alloc).jsum;
      }
    }
    EXPECT_LT(total_algo, total_blocked) << to_string(a) << " stencil " << stencil_id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStencils, ReductionQuality, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace gridmap
