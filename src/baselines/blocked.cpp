#include "baselines/blocked.hpp"

namespace gridmap {

Coord BlockedMapper::new_coordinate(const CartesianGrid& grid, const Stencil& /*stencil*/,
                                    const NodeAllocation& alloc, Rank rank,
                                    ExecContext& /*ctx*/) const {
  GRIDMAP_CHECK(rank >= 0 && rank < alloc.total(), "rank out of range");
  return grid.coord_of(static_cast<Cell>(rank));
}

void BlockedMapper::emit_blocks(const CartesianGrid& grid, const Stencil& /*stencil*/,
                                const NodeAllocation& /*alloc*/, BlockEmitter& out) const {
  out.emit(Block::row_major(grid.dims()));
}

}  // namespace gridmap
