// Blocked mapping: the identity — rank r occupies grid cell r (the paper's
// "blocked"/"Standard" baseline, i.e. what MPI_Cart_create without reorder
// does under a blocked scheduler allocation).
#pragma once

#include "core/mapper.hpp"

namespace gridmap {

class BlockedMapper final : public DistributedMapper {
 public:
  using DistributedMapper::new_coordinate;
  using DistributedMapper::remap;

  std::string_view name() const noexcept override { return "Blocked"; }

  Coord new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                       const NodeAllocation& alloc, Rank rank,
                       ExecContext& ctx) const override;

 private:
  void emit_blocks(const CartesianGrid& grid, const Stencil& stencil,
                   const NodeAllocation& alloc, BlockEmitter& out) const override;
};

}  // namespace gridmap
