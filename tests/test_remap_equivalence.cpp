// O(p) plan construction against its oracle: every DistributedMapper's
// remap (one decomposition, blocks written by the BlockEmitter) must give
// the same cell vector, byte for byte, as looping the paper's per-rank
// new_coordinate over all ranks. Covers every ablation option, the three
// stencil families, 1-D to 4-D grids with periodic bits, heterogeneous
// allocations (representative node sizes), the socket-aware variants, the
// 65,536-rank 1024x64 instance, and cancellation of a 65k-rank remap.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/blocked.hpp"
#include "baselines/nodecart.hpp"
#include "core/hierarchical.hpp"
#include "core/hyperplane.hpp"
#include "core/kd_tree.hpp"
#include "core/stencil_strips.hpp"

namespace gridmap {
namespace {

using Factory = std::function<std::unique_ptr<DistributedMapper>()>;

struct Case {
  std::string name;
  CartesianGrid grid;
  Stencil stencil;
  NodeAllocation alloc;
};

NodeAllocation alternating(int nodes, int a, int b) {
  std::vector<int> sizes(static_cast<std::size_t>(nodes));
  for (std::size_t i = 0; i < sizes.size(); ++i) sizes[i] = i % 2 == 0 ? a : b;
  return NodeAllocation(std::move(sizes));
}

std::vector<Case> cases() {
  std::vector<Case> out;
  const auto add = [&out](std::string name, Dims dims, std::vector<bool> periodic,
                          Stencil stencil, NodeAllocation alloc) {
    out.push_back({std::move(name), CartesianGrid(std::move(dims), std::move(periodic)),
                   std::move(stencil), std::move(alloc)});
  };
  add("1d 96 nn", {96}, {}, Stencil::nearest_neighbor(1),
      NodeAllocation::homogeneous(12, 8));
  add("2d 24x20 nn", {24, 20}, {}, Stencil::nearest_neighbor(2),
      NodeAllocation::homogeneous(20, 24));
  add("2d 30x28 hops periodic", {30, 28}, {true, false},
      Stencil::nearest_neighbor_with_hops(2), NodeAllocation::homogeneous(70, 12));
  add("2d 13x34 component", {13, 34}, {false, true}, Stencil::component(2),
      NodeAllocation::homogeneous(17, 26));
  add("2d 2x48 skewed nn", {2, 48}, {}, Stencil::nearest_neighbor(2),
      NodeAllocation::homogeneous(2, 48));
  add("3d 12x10x8 component periodic", {12, 10, 8}, {true, true, true},
      Stencil::component(3), NodeAllocation::homogeneous(60, 16));
  add("3d 9x7x6 hops", {9, 7, 6}, {false, true, false},
      Stencil::nearest_neighbor_with_hops(3), NodeAllocation::homogeneous(18, 21));
  add("3d 16x12x8 nn", {16, 12, 8}, {}, Stencil::nearest_neighbor(3),
      NodeAllocation::homogeneous(32, 48));
  add("4d 6x5x4x4 nn periodic", {6, 5, 4, 4}, {true, false, true, false},
      Stencil::nearest_neighbor(4), NodeAllocation::homogeneous(20, 24));
  add("4d 4x4x3x5 hops", {4, 4, 3, 5}, {}, Stencil::nearest_neighbor_with_hops(4),
      NodeAllocation::homogeneous(24, 10));
  add("4d 6x4x4x2 component periodic", {6, 4, 4, 2}, {false, false, false, true},
      Stencil::component(4), NodeAllocation::homogeneous(12, 16));
  add("2d 40x36 het nn", {40, 36}, {}, Stencil::nearest_neighbor(2),
      alternating(36, 48, 32));
  add("2d 30x22 het hops periodic", {30, 22}, {true, true},
      Stencil::nearest_neighbor_with_hops(2), alternating(30, 30, 14));
  add("3d 12x10x6 het component", {12, 10, 6}, {}, Stencil::component(3),
      alternating(24, 36, 24));
  add("4d 6x6x4x3 het nn", {6, 6, 4, 3}, {false, true, false, false},
      Stencil::nearest_neighbor(4), alternating(18, 28, 20));
  return out;
}

std::vector<Cell> oracle_cells(const DistributedMapper& mapper, const CartesianGrid& grid,
                               const Stencil& stencil, const NodeAllocation& alloc) {
  std::vector<Cell> cells(static_cast<std::size_t>(grid.size()));
  for (Rank r = 0; r < static_cast<Rank>(grid.size()); ++r) {
    cells[static_cast<std::size_t>(r)] =
        grid.cell_of(mapper.new_coordinate(grid, stencil, alloc, r));
  }
  return cells;
}

/// remap == per-rank oracle for one mapper on one instance; inapplicable
/// instances (Nodecart) must be rejected by both. Returns whether it ran.
bool expect_equivalent(const DistributedMapper& mapper, const Case& c) {
  SCOPED_TRACE(c.name);
  if (!mapper.applicable(c.grid, c.stencil, c.alloc)) {
    EXPECT_THROW((void)mapper.remap(c.grid, c.stencil, c.alloc), std::invalid_argument);
    return false;
  }
  EXPECT_EQ(mapper.remap(c.grid, c.stencil, c.alloc).cell_of_rank(),
            oracle_cells(mapper, c.grid, c.stencil, c.alloc));
  return true;
}

/// The socket-aware variant runs the inner remap on the socket allocation;
/// its oracle is the inner per-rank descent on that allocation.
bool expect_socket_equivalent(const Factory& inner, const Case& c) {
  SCOPED_TRACE(c.name + " (sockets)");
  const HierarchicalMapper sockets(inner(), 2);
  if (!sockets.applicable(c.grid, c.stencil, c.alloc)) return false;
  const NodeAllocation refined = socket_allocation(c.alloc, 2);
  EXPECT_EQ(sockets.remap(c.grid, c.stencil, c.alloc).cell_of_rank(),
            oracle_cells(*inner(), c.grid, c.stencil, refined));
  return true;
}

void expect_all_equivalent(const std::vector<Factory>& variants) {
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    const auto mapper = variants[v]();
    for (const Case& c : cases()) expect_equivalent(*mapper, c);
  }
}

template <typename M, typename Options>
Factory with(Options options) {
  return [options] { return std::make_unique<M>(options); };
}

TEST(RemapEquivalence, HyperplaneEveryOption) {
  std::vector<Factory> variants;
  for (const bool base_case : {true, false}) {
    for (const bool stencil_aware : {true, false}) {
      for (const NodeSizeRep rep : {NodeSizeRep::kMean, NodeSizeRep::kMin, NodeSizeRep::kMax}) {
        HyperplaneMapper::Options o;
        o.use_base_case = base_case;
        o.stencil_aware_order = stencil_aware;
        o.rep = rep;
        variants.push_back(with<HyperplaneMapper>(o));
      }
    }
  }
  expect_all_equivalent(variants);
}

TEST(RemapEquivalence, KdTreeWeightedAndUnweighted) {
  std::vector<Factory> variants;
  for (const bool weighted : {true, false}) {
    KdTreeMapper::Options o;
    o.weighted = weighted;
    variants.push_back(with<KdTreeMapper>(o));
  }
  expect_all_equivalent(variants);
}

TEST(RemapEquivalence, StripsEveryOption) {
  std::vector<Factory> variants;
  for (const bool snake : {true, false}) {
    for (const bool distortion : {true, false}) {
      for (const bool balanced : {true, false}) {
        StencilStripsMapper::Options o;
        o.snake = snake;
        o.distortion = distortion;
        o.balanced_widths = balanced;
        variants.push_back(with<StencilStripsMapper>(o));
      }
    }
  }
  expect_all_equivalent(variants);
}

TEST(RemapEquivalence, NodecartAndBlocked) {
  const NodecartMapper nodecart;
  int applicable = 0;
  for (const Case& c : cases()) applicable += expect_equivalent(nodecart, c) ? 1 : 0;
  EXPECT_GE(applicable, 8);  // the sweep must not pass by skipping
  expect_all_equivalent({[] { return std::make_unique<BlockedMapper>(); }});
}

TEST(RemapEquivalence, SocketVariants) {
  const std::vector<Factory> inners = {
      [] { return std::make_unique<HyperplaneMapper>(); },
      [] { return std::make_unique<KdTreeMapper>(); },
      [] { return std::make_unique<StencilStripsMapper>(); }};
  for (const Factory& inner : inners) {
    int applicable = 0;
    for (const Case& c : cases()) applicable += expect_socket_equivalent(inner, c) ? 1 : 0;
    EXPECT_GE(applicable, 10);
  }
}

Case paper_65k() {
  return {"2d 1024x64 nn, 1024x64ppn", CartesianGrid({1024, 64}),
          Stencil::nearest_neighbor(2), NodeAllocation::homogeneous(1024, 64)};
}

TEST(RemapEquivalence, Roadmap65kInstance) {
  const Case c = paper_65k();
  EXPECT_TRUE(expect_equivalent(HyperplaneMapper(), c));
  EXPECT_TRUE(expect_equivalent(KdTreeMapper(), c));
  EXPECT_TRUE(expect_equivalent(StencilStripsMapper(), c));
  EXPECT_TRUE(expect_equivalent(NodecartMapper(), c));
  EXPECT_TRUE(expect_socket_equivalent([] { return std::make_unique<HyperplaneMapper>(); }, c));
  EXPECT_TRUE(expect_socket_equivalent([] { return std::make_unique<KdTreeMapper>(); }, c));
  EXPECT_TRUE(
      expect_socket_equivalent([] { return std::make_unique<StencilStripsMapper>(); }, c));
}

std::vector<std::unique_ptr<Mapper>> splitters() {
  std::vector<std::unique_ptr<Mapper>> out;
  out.push_back(std::make_unique<HyperplaneMapper>());
  out.push_back(std::make_unique<KdTreeMapper>());
  out.push_back(std::make_unique<StencilStripsMapper>());
  out.push_back(std::make_unique<NodecartMapper>());
  out.push_back(std::make_unique<BlockedMapper>());
  out.push_back(std::make_unique<HierarchicalMapper>(std::make_unique<HyperplaneMapper>(), 2));
  return out;
}

TEST(RemapEquivalence, CancelledTokenStops65kRemap) {
  const Case c = paper_65k();
  CancelSource source;
  source.cancel();
  for (const auto& mapper : splitters()) {
    SCOPED_TRACE(std::string(mapper->name()));
    ExecContext ctx = ExecContext::with_token(source.token());
    try {
      (void)mapper->remap(c.grid, c.stencil, c.alloc, ctx);
      ADD_FAILURE() << "remap finished despite a cancelled token";
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.reason(), CancelledError::Reason::kCancelled);
    }
  }
}

TEST(RemapEquivalence, ExpiredDeadlineStops65kRemap) {
  const Case c = paper_65k();
  for (const auto& mapper : splitters()) {
    SCOPED_TRACE(std::string(mapper->name()));
    ExecContext ctx = ExecContext::with_deadline(std::chrono::nanoseconds(0));
    try {
      (void)mapper->remap(c.grid, c.stencil, c.alloc, ctx);
      ADD_FAILURE() << "remap finished past its deadline";
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.reason(), CancelledError::Reason::kDeadline);
    }
  }
}

TEST(BlockEmitter, CheckpointsWhileWriting) {
  // Cancellation reaches the emitter itself, not only the decomposition.
  const CartesianGrid grid({1024, 64});
  CancelSource source;
  source.cancel();
  ExecContext ctx = ExecContext::with_token(source.token());
  BlockEmitter out(grid, ctx);
  EXPECT_THROW(out.emit(Block::row_major(grid.dims())), CancelledError);
}

TEST(BlockEmitter, WalksOrderAndReversedAxes) {
  // 3x4 grid, box rows 1..2 x columns 1..3; columns slowest, rows run
  // backwards: ranks go (2,1) (1,1) (2,2) (1,2) (2,3) (1,3).
  const CartesianGrid grid({3, 4});
  BlockEmitter out(grid, ExecContext::none());
  out.emit(Block{{1, 1}, {2, 3}, {1, 0}, 1u << 0});
  out.emit(Block{{0, 0}, {1, 4}, {0, 1}, 1u << 1});  // row 0 right to left
  out.emit(Block{{1, 0}, {2, 1}, {0, 1}, 0});        // column 0, rows 1..2
  const Remapping m = std::move(out).finish();
  EXPECT_EQ(m.cell_of_rank(),
            (std::vector<Cell>{9, 5, 10, 6, 11, 7, 3, 2, 1, 0, 4, 8}));
}

TEST(BlockEmitter, RejectsMalformedBlocks) {
  const CartesianGrid grid({3, 4});
  BlockEmitter out(grid, ExecContext::none());
  EXPECT_THROW(out.emit(Block{{2, 0}, {2, 4}, {0, 1}, 0}), std::invalid_argument);
  EXPECT_THROW(out.emit(Block{{0, 0}, {3, 4}, {1, 1}, 0}), std::invalid_argument);
  EXPECT_THROW(out.emit(Block{{0, 0}, {3}, {0}, 0}), std::invalid_argument);
  out.emit(Block{{0, 0}, {2, 4}, {0, 1}, 0});
  EXPECT_THROW(out.emit(Block::row_major(grid.dims())), std::invalid_argument);
  EXPECT_THROW((void)std::move(out).finish(), std::invalid_argument);  // row 2 missing
}

}  // namespace
}  // namespace gridmap
