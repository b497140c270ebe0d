#include "core/kd_tree.hpp"

namespace gridmap {

int KdTreeMapper::find_split_index(const Dims& dims,
                                   const std::vector<int>& crossing_counts) const {
  int best = -1;
  for (int i = 0; i < static_cast<int>(dims.size()); ++i) {
    if (dims[static_cast<std::size_t>(i)] < 2) continue;
    if (best < 0) {
      best = i;
      continue;
    }
    const std::int64_t di = dims[static_cast<std::size_t>(i)];
    const std::int64_t db = dims[static_cast<std::size_t>(best)];
    std::int64_t fi = 1;
    std::int64_t fb = 1;
    if (options_.weighted) {
      fi = crossing_counts[static_cast<std::size_t>(i)];
      fb = crossing_counts[static_cast<std::size_t>(best)];
    }
    // Compare d_i/f_i > d_best/f_best without division; f == 0 means no
    // communication crosses the dimension, i.e. an infinite score.
    bool better = false;
    if (fi == 0 && fb == 0) {
      better = di > db;
    } else if (fi == 0) {
      better = true;
    } else if (fb == 0) {
      better = false;
    } else {
      const std::int64_t lhs = di * fb;
      const std::int64_t rhs = db * fi;
      better = lhs > rhs || (lhs == rhs && di > db);
    }
    if (better) best = i;
  }
  return best;
}

namespace {

std::vector<int> crossing_counts(const CartesianGrid& grid, const Stencil& stencil) {
  return stencil.empty() ? std::vector<int>(static_cast<std::size_t>(grid.ndims()), 0)
                         : stencil.crossing_counts();
}

}  // namespace

void KdTreeMapper::emit_blocks(const CartesianGrid& grid, const Stencil& stencil,
                               const NodeAllocation& /*alloc*/, BlockEmitter& out) const {
  const std::vector<int> crossing = crossing_counts(grid, stencil);
  // Halve down to single cells, lower half first.
  out.emit_bisection([&](const Dims& extent, std::int64_t volume) -> BlockEmitter::Cut {
    if (volume <= 1) return {};
    const int k = find_split_index(extent, crossing);
    GRIDMAP_CHECK(k >= 0, "no splittable dimension left in non-trivial grid");
    return {k, extent[static_cast<std::size_t>(k)] / 2};
  });
}

Coord KdTreeMapper::new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                                   const NodeAllocation& alloc, Rank rank,
                                   ExecContext& ctx) const {
  GRIDMAP_CHECK(rank >= 0 && rank < alloc.total(), "rank out of range");
  GRIDMAP_CHECK(grid.size() == alloc.total(),
                "allocation total must equal number of grid positions");
  const std::vector<int> crossing = crossing_counts(grid, stencil);

  Dims dims = grid.dims();
  Coord origin(dims.size(), 0);
  std::int64_t t = rank;
  std::int64_t size = grid.size();

  while (size > 1) {
    ctx.checkpoint();
    const int k = find_split_index(dims, crossing);
    GRIDMAP_CHECK(k >= 0, "no splittable dimension left in non-trivial grid");
    const int dk = dims[static_cast<std::size_t>(k)];
    const int half = dk / 2;
    const std::int64_t left_cells = size / dk * half;
    if (t < left_cells) {
      dims[static_cast<std::size_t>(k)] = half;
      size = left_cells;
    } else {
      t -= left_cells;
      origin[static_cast<std::size_t>(k)] += half;
      dims[static_cast<std::size_t>(k)] = dk - half;
      size -= left_cells;
    }
  }
  return origin;
}

}  // namespace gridmap
