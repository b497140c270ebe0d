// k-d Tree algorithm (paper Section V-B, Algorithm 2): recursive halving of
// the grid down to single cells. The split dimension maximizes d_i / f_i,
// where f_i counts stencil offsets communicating across dimension i, so the
// algorithm avoids cutting heavily-communicating dimensions. Oblivious to
// the node size n.
#pragma once

#include "core/mapper.hpp"

namespace gridmap {

class KdTreeMapper final : public DistributedMapper {
 public:
  struct Options {
    /// Weight the split choice by the inverse stencil crossing count
    /// (argmax d_i/f_i). When false, always split the largest dimension
    /// (ablation).
    bool weighted = true;
  };

  using DistributedMapper::new_coordinate;
  using DistributedMapper::remap;

  KdTreeMapper() = default;
  explicit KdTreeMapper(Options options) : options_(options) {}

  std::string_view name() const noexcept override { return "k-d Tree"; }

  Coord new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                       const NodeAllocation& alloc, Rank rank,
                       ExecContext& ctx) const override;

  /// Exposed for tests: index of the dimension Algorithm 2 would split.
  int find_split_index(const Dims& dims, const std::vector<int>& crossing_counts) const;

 private:
  void emit_blocks(const CartesianGrid& grid, const Stencil& stencil,
                   const NodeAllocation& alloc, BlockEmitter& out) const override;

  Options options_;
};

}  // namespace gridmap
