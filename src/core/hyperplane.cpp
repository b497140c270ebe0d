#include "core/hyperplane.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gridmap {

namespace {

// Sorts dimension indices: most orthogonal first (smallest Eq. (2) score);
// ties broken by preferring the larger dimension, then the lower index.
void preferred_order_into(const Dims& dims, const std::vector<double>& scores,
                          std::vector<int>& order) {
  order.resize(dims.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const double sa = scores[static_cast<std::size_t>(a)];
    const double sb = scores[static_cast<std::size_t>(b)];
    if (sa != sb) return sa < sb;
    if (dims[static_cast<std::size_t>(a)] != dims[static_cast<std::size_t>(b)]) {
      return dims[static_cast<std::size_t>(a)] > dims[static_cast<std::size_t>(b)];
    }
    return a < b;
  });
}

HyperplaneMapper::Split find_split_impl(const Dims& dims, const std::vector<double>& scores,
                                        int n, std::vector<int>& order) {
  const std::int64_t size = product(dims);
  preferred_order_into(dims, scores, order);
  for (const int i : order) {
    const int di = dims[static_cast<std::size_t>(i)];
    if (di < 2) continue;
    const std::int64_t rest = size / di;
    // Scan cut positions by distance from the center; the first position
    // whose left side holds a multiple of n wins (most balanced valid cut).
    const int center = di / 2;
    for (int t = 0; t < di; ++t) {
      for (const int candidate : {center - t, center + t}) {
        if (candidate < 1 || candidate >= di) continue;
        if (t == 0 && candidate != center) continue;  // avoid duplicate probe
        if ((rest * candidate) % n == 0) return HyperplaneMapper::Split{i, candidate};
      }
      if (center - t < 1 && center + t >= di) break;
    }
  }
  return HyperplaneMapper::Split{};
}

}  // namespace

std::vector<double> HyperplaneMapper::scores(const Dims& dims, const Stencil& stencil) const {
  if (options_.stencil_aware_order && !stencil.empty()) return stencil.cos2_scores();
  return std::vector<double>(dims.size(), 0.0);
}

int HyperplaneMapper::node_size(const NodeAllocation& alloc) const {
  return alloc.homogeneous() ? alloc.uniform_size() : alloc.representative_size(options_.rep);
}

HyperplaneMapper::Split HyperplaneMapper::find_split(const Dims& dims,
                                                     const Stencil& stencil,
                                                     int n) const {
  std::vector<int> order;
  return find_split_impl(dims, scores(dims, stencil), n, order);
}

void HyperplaneMapper::emit_blocks(const CartesianGrid& grid, const Stencil& stencil,
                                   const NodeAllocation& alloc, BlockEmitter& out) const {
  const int n = node_size(alloc);
  const std::vector<double> score = scores(grid.dims(), stencil);
  const std::int64_t leaf_max = (options_.use_base_case ? 2 : 1) * static_cast<std::int64_t>(n);
  std::vector<int> scratch;
  out.emit_bisection(
      [&](const Dims& extent, std::int64_t volume) -> BlockEmitter::Cut {
        if (volume <= leaf_max) return {};
        const Split split = find_split_impl(extent, score, n, scratch);
        return {split.dim, split.lhs};
      },
      // Base case: mixed-radix over the sub-grid, most-preferred cut
      // dimension slowest (see new_coordinate).
      [&](const Dims& extent, std::vector<int>& order) {
        preferred_order_into(extent, score, order);
      });
}

Coord HyperplaneMapper::new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                                       const NodeAllocation& alloc, Rank rank,
                                       ExecContext& ctx) const {
  GRIDMAP_CHECK(rank >= 0 && rank < alloc.total(), "rank out of range");
  GRIDMAP_CHECK(grid.size() == alloc.total(),
                "allocation total must equal number of grid positions");
  const int n = node_size(alloc);
  // The Eq. (2) scores depend only on the stencil; computed once per call.
  const std::vector<double> score = scores(grid.dims(), stencil);

  Dims dims = grid.dims();
  Coord origin(dims.size(), 0);
  std::int64_t lo = 0;
  std::int64_t size = grid.size();
  std::vector<int> order;  // scratch, reused across recursion levels

  while (true) {
    ctx.checkpoint();
    if (options_.use_base_case && size <= 2 * static_cast<std::int64_t>(n)) break;
    if (!options_.use_base_case && size <= static_cast<std::int64_t>(n)) break;
    const Split split = find_split_impl(dims, score, n, order);
    if (split.dim < 0) break;  // no n-divisible cut exists; assign directly
    const int i = split.dim;
    const std::int64_t lhs_cells = size / dims[static_cast<std::size_t>(i)] * split.lhs;
    if (static_cast<std::int64_t>(rank) - lo < lhs_cells) {
      dims[static_cast<std::size_t>(i)] = split.lhs;
      size = lhs_cells;
    } else {
      origin[static_cast<std::size_t>(i)] += split.lhs;
      dims[static_cast<std::size_t>(i)] -= split.lhs;
      lo += lhs_cells;
      size -= lhs_cells;
    }
  }

  // Base case: assign the remaining ranks to the sub-grid by mixed-radix
  // traversal with the most-preferred cut dimension varying slowest. This is
  // the paper's new_coordinate step that e.g. turns a [2, n] grid into two
  // partitions with 3 outgoing edges each instead of two [1, n] slabs.
  std::int64_t t = static_cast<std::int64_t>(rank) - lo;
  preferred_order_into(dims, score, order);
  Coord coord = origin;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int d = dims[static_cast<std::size_t>(*it)];
    coord[static_cast<std::size_t>(*it)] += static_cast<int>(t % d);
    t /= d;
  }
  return coord;
}

}  // namespace gridmap
