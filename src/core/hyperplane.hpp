// Hyperplane algorithm (paper Section V-A, Algorithm 1): recursive bisection
// of the Cartesian grid with stencil-aware cut-dimension preference. Cuts are
// chosen so that both induced sub-grids hold a multiple of n processes
// (Theorem V.1 guarantees existence; Theorem V.2 bounds the imbalance).
#pragma once

#include "core/mapper.hpp"

namespace gridmap {

class HyperplaneMapper final : public DistributedMapper {
 public:
  struct Options {
    /// Representative node size for heterogeneous allocations (Section V-A).
    NodeSizeRep rep = NodeSizeRep::kMean;
    /// Stop recursing at sub-grids of size <= 2n and assign coordinates
    /// directly along the preferred dimension order. Avoids pathological
    /// splits of skewed grids such as [2, n] (paper's example). Disable for
    /// the ablation study.
    bool use_base_case = true;
    /// Order candidate cut dimensions by the Eq. (2) cos^2 score (most
    /// orthogonal to the stencil first). When false, order by size only
    /// (ablation).
    bool stencil_aware_order = true;
  };

  using DistributedMapper::new_coordinate;
  using DistributedMapper::remap;

  HyperplaneMapper() = default;
  explicit HyperplaneMapper(Options options) : options_(options) {}

  std::string_view name() const noexcept override { return "Hyperplane"; }

  Coord new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                       const NodeAllocation& alloc, Rank rank,
                       ExecContext& ctx) const override;

  /// Exposed for testing Theorems V.1/V.2: finds the cut for dimension sizes
  /// D and node size n. Returns {dim, d'} or {-1, -1} when no dimension
  /// admits a split into two n-divisible sub-grids.
  struct Split {
    int dim = -1;
    int lhs = -1;  // d' — size of the left part along `dim`
  };
  Split find_split(const Dims& dims, const Stencil& stencil, int n) const;

 private:
  void emit_blocks(const CartesianGrid& grid, const Stencil& stencil,
                   const NodeAllocation& alloc, BlockEmitter& out) const override;
  /// Eq. (2) cut-preference scores (all zero without stencil-aware order).
  std::vector<double> scores(const Dims& dims, const Stencil& stencil) const;
  /// Node size n the cuts divide by (representative if heterogeneous).
  int node_size(const NodeAllocation& alloc) const;

  Options options_;
};

}  // namespace gridmap
