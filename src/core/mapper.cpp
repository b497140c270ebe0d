#include "core/mapper.hpp"

#include <numeric>

namespace gridmap {

bool Mapper::applicable(const CartesianGrid& grid, const Stencil& stencil,
                        const NodeAllocation& alloc) const {
  return grid.size() == alloc.total() && stencil.ndims() == grid.ndims();
}

Block Block::row_major(const Dims& extent) {
  Block block;
  block.origin.assign(extent.size(), 0);
  block.extent = extent;
  block.order.resize(extent.size());
  std::iota(block.order.begin(), block.order.end(), 0);
  return block;
}

BlockEmitter::BlockEmitter(const CartesianGrid& grid, ExecContext& ctx)
    : grid_(grid),
      ctx_(ctx),
      cells_(static_cast<std::size_t>(grid.size())),
      stride_(grid.dims().size(), 1) {
  for (std::size_t a = stride_.size(); a-- > 1;) {
    stride_[a - 1] = stride_[a] * grid.dims()[a];
  }
}

void BlockEmitter::emit(const Block& block) {
  const int nd = grid_.ndims();
  GRIDMAP_CHECK(static_cast<int>(block.origin.size()) == nd &&
                    static_cast<int>(block.extent.size()) == nd &&
                    static_cast<int>(block.order.size()) == nd && nd <= 32,
                "block rank must match the grid");
  // The walk starts at the corner where every axis is at its first
  // position (the far end if reversed).
  std::int64_t cell = 0;
  std::uint32_t seen = 0;
  step_.resize(static_cast<std::size_t>(nd));
  for (int j = 0; j < nd; ++j) {
    const int a = block.order[static_cast<std::size_t>(j)];
    GRIDMAP_CHECK(a >= 0 && a < nd && !((seen >> a) & 1u),
                  "block order must list every axis once");
    seen |= 1u << a;
    const auto i = static_cast<std::size_t>(a);
    GRIDMAP_CHECK(block.extent[i] >= 1 && block.origin[i] >= 0 &&
                      block.origin[i] + block.extent[i] <= grid_.dim(a),
                  "block outside the grid");
    const bool rev = (block.reversed >> a) & 1u;
    cell += (block.origin[i] + (rev ? block.extent[i] - 1 : 0)) * stride_[i];
    step_[static_cast<std::size_t>(j)] = rev ? -stride_[i] : stride_[i];
  }
  const std::int64_t volume = product(block.extent);
  GRIDMAP_CHECK(volume <= grid_.size() - next_, "blocks cover more ranks than the grid");

  // Mixed-radix odometer over order[0..nd-2]; the fastest axis is a
  // strided run written in one tight loop.
  digit_.assign(static_cast<std::size_t>(nd), 0);
  const int fast = block.order[static_cast<std::size_t>(nd) - 1];
  const int run = block.extent[static_cast<std::size_t>(fast)];
  const std::int64_t run_step = step_[static_cast<std::size_t>(nd) - 1];
  Cell* out = cells_.data() + next_;
  next_ += volume;
  while (true) {
    ctx_.checkpoint();
    for (int k = 0; k < run; ++k) *out++ = cell + k * run_step;
    int j = nd - 2;
    for (; j >= 0; --j) {
      const auto jj = static_cast<std::size_t>(j);
      const int extent = block.extent[static_cast<std::size_t>(block.order[jj])];
      if (++digit_[jj] < extent) {
        cell += step_[jj];
        break;
      }
      digit_[jj] = 0;
      cell -= step_[jj] * (extent - 1);
    }
    if (j < 0) return;
  }
}

void BlockEmitter::emit_bisection(const CutFn& cut, const LeafOrderFn& leaf_order) {
  Block box = Block::row_major(grid_.dims());
  bisect(box, grid_.size(), cut, leaf_order);
}

void BlockEmitter::bisect(Block& box, std::int64_t volume, const CutFn& cut,
                          const LeafOrderFn& leaf_order) {
  ctx_.checkpoint();
  const Cut c = cut(box.extent, volume);
  if (c.dim < 0) {
    if (leaf_order) leaf_order(box.extent, box.order);
    emit(box);
    return;
  }
  GRIDMAP_CHECK(c.dim < static_cast<int>(box.extent.size()) && c.lhs >= 1 &&
                    c.lhs < box.extent[static_cast<std::size_t>(c.dim)],
                "cut outside the box");
  const auto d = static_cast<std::size_t>(c.dim);
  const int full = box.extent[d];
  const std::int64_t lhs_volume = volume / full * c.lhs;
  box.extent[d] = c.lhs;
  bisect(box, lhs_volume, cut, leaf_order);
  box.origin[d] += c.lhs;
  box.extent[d] = full - c.lhs;
  bisect(box, volume - lhs_volume, cut, leaf_order);
  box.origin[d] -= c.lhs;
  box.extent[d] = full;
}

Remapping BlockEmitter::finish() && {
  GRIDMAP_CHECK(next_ == grid_.size(), "blocks must cover every rank");
  return Remapping::from_cells(grid_, std::move(cells_));
}

bool next_row_major(std::vector<int>& index, const Dims& radix) {
  for (std::size_t j = index.size(); j-- > 0;) {
    if (++index[j] < radix[j]) return true;
    index[j] = 0;
  }
  return false;
}

Remapping DistributedMapper::remap(const CartesianGrid& grid, const Stencil& stencil,
                                   const NodeAllocation& alloc, ExecContext& ctx) const {
  GRIDMAP_CHECK(Mapper::applicable(grid, stencil, alloc),
                "mapper not applicable to this instance");
  BlockEmitter out(grid, ctx);
  emit_blocks(grid, stencil, alloc, out);
  return std::move(out).finish();
}

}  // namespace gridmap
