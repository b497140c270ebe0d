#include "core/stencil_strips.hpp"

#include <algorithm>
#include <cmath>

namespace gridmap {

StencilStripsMapper::Layout StencilStripsMapper::layout(const CartesianGrid& grid,
                                                        const Stencil& stencil,
                                                        int n) const {
  const Dims& dims = grid.dims();
  Layout lay;
  // Strips run along the largest dimension (ties: lowest index).
  lay.along = 0;
  for (int i = 1; i < grid.ndims(); ++i) {
    if (dims[static_cast<std::size_t>(i)] > dims[static_cast<std::size_t>(lay.along)]) {
      lay.along = i;
    }
  }

  std::vector<double> alpha(dims.size(), 1.0);
  if (options_.distortion && !stencil.empty()) {
    alpha = stencil.distortion_factors();
    // A stencil with no extent anywhere degenerates to uniform factors.
    if (std::all_of(alpha.begin(), alpha.end(), [](double a) { return a == 0.0; })) {
      alpha.assign(dims.size(), 1.0);
    }
  }

  // s_i = (d - i)-th root of (alpha_i * n / prod of earlier widths), clamped
  // to [1, d_i]; alpha_i = 0 (no communication across i) clamps to width 1,
  // which is what finds the optimal mapping for the component stencil.
  //
  // The dimension is then divided into m_i = floor(d_i / s_i) strips. With
  // `balanced_widths` the remainder d_i mod s_i is spread one column at a
  // time over the first strips (widths base+1 / base); otherwise the last
  // strip absorbs it entirely (the paper's literal "s_i + d_i mod s_i").
  const int d = grid.ndims();
  double prod_s = 1.0;
  int pos = 0;
  for (int i = 0; i < d; ++i) {
    if (i == lay.along) continue;
    const int exponent = d - pos;
    const double target = alpha[static_cast<std::size_t>(i)] * n / prod_s;
    const double raw = target <= 0.0 ? 1.0 : std::pow(target, 1.0 / exponent);
    const int di = dims[static_cast<std::size_t>(i)];
    const int si = std::clamp(static_cast<int>(std::llround(raw)), 1, di);
    lay.strip_dims.push_back(i);
    lay.widths.push_back(si);
    lay.counts.push_back(di / si);
    prod_s *= si;
    ++pos;
  }
  return lay;
}

namespace {

// Width/offset of strip c along one dimension, under balanced or
// last-absorbs remainder handling. `m` strips tile `di` cells.
struct StripShape {
  int width = 0;
  int offset = 0;
};

StripShape strip_shape(int di, int s, int m, int c, bool balanced) {
  if (balanced) {
    const int base = di / m;
    const int extra = di % m;  // first `extra` strips are one wider
    const int width = base + (c < extra ? 1 : 0);
    const int offset = c * base + std::min(c, extra);
    return {width, offset};
  }
  const int width = (c == m - 1) ? di - s * (m - 1) : s;
  return {width, c * s};
}

// Heterogeneous allocations size the strips for the mean node.
int node_size(const NodeAllocation& alloc) {
  return alloc.homogeneous() ? alloc.uniform_size()
                             : alloc.representative_size(NodeSizeRep::kMean);
}

}  // namespace

void StencilStripsMapper::emit_blocks(const CartesianGrid& grid, const Stencil& stencil,
                                      const NodeAllocation& alloc, BlockEmitter& out) const {
  const Layout lay = layout(grid, stencil, node_size(alloc));
  // Strips take consecutive rank ranges in lexicographic order of their
  // strip coordinates; inside a strip the along-dimension is slowest and
  // runs backwards in every odd strip when snaking (see new_coordinate).
  Block strip;
  strip.origin.assign(grid.dims().size(), 0);
  strip.extent = grid.dims();
  strip.order.push_back(lay.along);
  strip.order.insert(strip.order.end(), lay.strip_dims.begin(), lay.strip_dims.end());
  std::vector<int> c(lay.strip_dims.size(), 0);
  do {
    int parity = 0;
    for (std::size_t j = 0; j < c.size(); ++j) {
      const auto dim = static_cast<std::size_t>(lay.strip_dims[j]);
      const StripShape sh = strip_shape(grid.dims()[dim], lay.widths[j], lay.counts[j], c[j],
                                        options_.balanced_widths);
      strip.origin[dim] = sh.offset;
      strip.extent[dim] = sh.width;
      parity += c[j];
    }
    strip.reversed = options_.snake && (parity & 1) ? 1u << lay.along : 0u;
    out.emit(strip);
  } while (next_row_major(c, lay.counts));
}

Coord StencilStripsMapper::new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                                          const NodeAllocation& alloc, Rank rank,
                                          ExecContext& ctx) const {
  ctx.checkpoint();
  GRIDMAP_CHECK(rank >= 0 && rank < alloc.total(), "rank out of range");
  GRIDMAP_CHECK(grid.size() == alloc.total(),
                "allocation total must equal number of grid positions");
  const Dims& dims = grid.dims();
  const Layout lay = layout(grid, stencil, node_size(alloc));
  const int nstrip_dims = static_cast<int>(lay.strip_dims.size());

  // Locate the strip containing this rank. Strips are enumerated
  // lexicographically over their coordinates (ascending strip dimension,
  // first coordinate most significant).
  //
  // suffix[j] = number of cells per unit width of strip dimension j =
  // d_along * prod of full dimension sizes of later strip dimensions.
  std::vector<std::int64_t> suffix(static_cast<std::size_t>(nstrip_dims) + 1, 1);
  suffix[static_cast<std::size_t>(nstrip_dims)] = dims[static_cast<std::size_t>(lay.along)];
  for (int j = nstrip_dims - 1; j >= 0; --j) {
    suffix[static_cast<std::size_t>(j)] =
        suffix[static_cast<std::size_t>(j) + 1] *
        dims[static_cast<std::size_t>(lay.strip_dims[static_cast<std::size_t>(j)])];
  }

  std::int64_t t = rank;
  std::vector<int> strip_coord(static_cast<std::size_t>(nstrip_dims), 0);
  std::vector<StripShape> shape(static_cast<std::size_t>(nstrip_dims));
  std::int64_t fixed_box = 1;  // product of the widths chosen at earlier levels
  for (int j = 0; j < nstrip_dims; ++j) {
    const int dim = lay.strip_dims[static_cast<std::size_t>(j)];
    const int di = dims[static_cast<std::size_t>(dim)];
    const int s = lay.widths[static_cast<std::size_t>(j)];
    const int m = lay.counts[static_cast<std::size_t>(j)];
    // Cells per unit width at this level: earlier strip dimensions are
    // already narrowed to their chosen widths, later ones still span fully.
    const std::int64_t per_unit = fixed_box * suffix[static_cast<std::size_t>(j) + 1];

    int c = 0;
    if (options_.balanced_widths) {
      const int base = di / m;
      const int extra = di % m;
      const std::int64_t wide_vol = static_cast<std::int64_t>(base + 1) * per_unit;
      const std::int64_t narrow_vol = static_cast<std::int64_t>(base) * per_unit;
      if (t < static_cast<std::int64_t>(extra) * wide_vol) {
        c = static_cast<int>(t / wide_vol);
        t -= c * wide_vol;
      } else {
        const std::int64_t t2 = t - static_cast<std::int64_t>(extra) * wide_vol;
        c = extra + static_cast<int>(t2 / narrow_vol);
        t = t2 - static_cast<std::int64_t>(c - extra) * narrow_vol;
      }
    } else {
      const std::int64_t per_strip = static_cast<std::int64_t>(s) * per_unit;
      c = static_cast<int>(std::min<std::int64_t>(t / per_strip, m - 1));
      t -= static_cast<std::int64_t>(c) * per_strip;
    }
    strip_coord[static_cast<std::size_t>(j)] = c;
    shape[static_cast<std::size_t>(j)] = strip_shape(di, s, m, c, options_.balanced_widths);
    fixed_box *= shape[static_cast<std::size_t>(j)].width;
  }

  // Position within the strip box: the along-dimension varies slowest, the
  // cross-section (mixed radix over the strip widths) fastest.
  std::int64_t cross_volume = 1;
  for (const StripShape& sh : shape) cross_volume *= sh.width;
  const std::int64_t along_step = t / cross_volume;
  std::int64_t rem = t % cross_volume;

  int parity = 0;
  if (options_.snake) {
    for (const int c : strip_coord) parity += c;
    parity &= 1;
  }
  const int d_along = dims[static_cast<std::size_t>(lay.along)];
  const int along_pos = parity ? d_along - 1 - static_cast<int>(along_step)
                               : static_cast<int>(along_step);

  Coord coord(dims.size(), 0);
  coord[static_cast<std::size_t>(lay.along)] = along_pos;
  for (int j = nstrip_dims - 1; j >= 0; --j) {
    const StripShape& sh = shape[static_cast<std::size_t>(j)];
    const int digit = static_cast<int>(rem % sh.width);
    rem /= sh.width;
    const int dim = lay.strip_dims[static_cast<std::size_t>(j)];
    coord[static_cast<std::size_t>(dim)] = sh.offset + digit;
  }
  return coord;
}

}  // namespace gridmap
