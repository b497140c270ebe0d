// Stencil Strips algorithm (paper Section V-C, Algorithm 3): tile the grid
// into strips running along the largest dimension. Strip widths approximate
// the alpha-distorted d-th root of the node size n, where the distortion
// factors derive from the stencil's bounding box — so node regions are
// (scaled) near-cubes that internalize as many stencil edges as possible.
// Consecutive ranks fill strips boustrophedon (Fig. 5a) to keep the
// per-node partitions coherent.
#pragma once

#include "core/mapper.hpp"

namespace gridmap {

class StencilStripsMapper final : public DistributedMapper {
 public:
  struct Options {
    /// Alternate the traversal direction along the largest dimension per
    /// strip (Fig. 5a). When false, all strips are traversed in the same
    /// direction (Fig. 5b — the "imprudent" variant; ablation).
    bool snake = true;
    /// Scale strip widths by the stencil distortion factors alpha_i. When
    /// false, widths target the plain d-th root of n (ablation).
    bool distortion = true;
    /// Spread the division remainder d_i mod s_i evenly over the strips
    /// (widths base+1/base). When false, the last strip absorbs the whole
    /// remainder — the paper's literal "s_i + d_i mod s_i" rule, kept as an
    /// ablation; balancing reproduces the paper's measured Jmax values.
    bool balanced_widths = true;
  };

  using DistributedMapper::new_coordinate;
  using DistributedMapper::remap;

  StencilStripsMapper() = default;
  explicit StencilStripsMapper(Options options) : options_(options) {}

  std::string_view name() const noexcept override { return "Stencil Strips"; }

  Coord new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                       const NodeAllocation& alloc, Rank rank,
                       ExecContext& ctx) const override;

  /// Geometry of the strip tiling; exposed for tests.
  struct Layout {
    int along = -1;               ///< index of the largest dimension (strips run along it)
    std::vector<int> strip_dims;  ///< the other dimensions, ascending index
    std::vector<int> widths;      ///< strip width s_i per strip dimension
    std::vector<int> counts;      ///< number of strips m_i = floor(d_i / s_i)
  };

  Layout layout(const CartesianGrid& grid, const Stencil& stencil, int n) const;

 private:
  void emit_blocks(const CartesianGrid& grid, const Stencil& stencil,
                   const NodeAllocation& alloc, BlockEmitter& out) const override;

  Options options_;
};

}  // namespace gridmap
