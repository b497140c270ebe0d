#include "baselines/nodecart.hpp"

#include <limits>

#include "core/dims_create.hpp"

namespace gridmap {

namespace {

// Enumerates factorizations n = prod c_i with c_i | dims[i] by DFS, keeping
// the block with the smallest boundary surface.
void search_block(const Dims& dims, std::size_t pos, std::int64_t remaining,
                  Dims& current, double& best_surface, Dims& best, ExecContext& ctx) {
  ctx.checkpoint();
  if (pos == dims.size()) {
    if (remaining != 1) return;
    double surface = 0.0;
    double volume = 1.0;
    for (const int c : current) volume *= c;
    for (const int c : current) surface += 2.0 * volume / c;
    if (surface < best_surface) {
      best_surface = surface;
      best = current;
    }
    return;
  }
  for (const std::int64_t c : divisors(remaining)) {
    if (dims[pos] % c != 0) continue;
    current[pos] = static_cast<int>(c);
    search_block(dims, pos + 1, remaining / c, current, best_surface, best, ctx);
  }
  current[pos] = 1;
}

}  // namespace

std::optional<Dims> NodecartMapper::within_node_block(const Dims& dims, int n,
                                                      ExecContext& ctx) const {
  Dims current(dims.size(), 1);
  Dims best;
  double best_surface = std::numeric_limits<double>::infinity();
  search_block(dims, 0, n, current, best_surface, best, ctx);
  if (best.empty()) return std::nullopt;
  return best;
}

bool NodecartMapper::applicable(const CartesianGrid& grid, const Stencil& stencil,
                                const NodeAllocation& alloc) const {
  if (!Mapper::applicable(grid, stencil, alloc)) return false;
  if (!alloc.homogeneous()) return false;
  return within_node_block(grid.dims(), alloc.uniform_size()).has_value();
}

void NodecartMapper::emit_blocks(const CartesianGrid& grid, const Stencil& /*stencil*/,
                                 const NodeAllocation& alloc, BlockEmitter& out) const {
  std::optional<Dims> block;
  if (alloc.homogeneous()) block = within_node_block(grid.dims(), alloc.uniform_size(), out.ctx());
  GRIDMAP_CHECK(block.has_value(),
                "Nodecart requires a homogeneous allocation and a factorizable node size");
  // Node r / n takes the row-major position r / n in the node grid
  // q_i = d_i / c_i; its n ranks fill the block c row-major.
  Dims node_dims(block->size());
  for (std::size_t i = 0; i < block->size(); ++i) node_dims[i] = grid.dims()[i] / (*block)[i];
  Block node = Block::row_major(*block);
  std::vector<int> q(block->size(), 0);
  do {
    for (std::size_t i = 0; i < q.size(); ++i) node.origin[i] = q[i] * (*block)[i];
    out.emit(node);
  } while (next_row_major(q, node_dims));
}

Coord NodecartMapper::new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                                     const NodeAllocation& alloc, Rank rank,
                                     ExecContext& ctx) const {
  GRIDMAP_CHECK(rank >= 0 && rank < alloc.total(), "rank out of range");
  GRIDMAP_CHECK(applicable(grid, stencil, alloc),
                "Nodecart requires a homogeneous allocation and a factorizable node size");
  const int n = alloc.uniform_size();
  const Dims block = *within_node_block(grid.dims(), n, ctx);

  // Node grid: q_i = d_i / c_i. Rank r lives on node r / n (blocked
  // allocation); its node coordinate is the row-major position in the node
  // grid, its within-node coordinate the row-major position in the block.
  Dims node_dims(block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    node_dims[i] = grid.dims()[i] / block[i];
  }
  const std::int64_t node = rank / n;
  const std::int64_t within = rank % n;

  Coord coord(block.size(), 0);
  std::int64_t nrem = node;
  std::int64_t wrem = within;
  for (int i = static_cast<int>(block.size()) - 1; i >= 0; --i) {
    const int q = node_dims[static_cast<std::size_t>(i)];
    const int c = block[static_cast<std::size_t>(i)];
    const int node_coord = static_cast<int>(nrem % q);
    const int within_coord = static_cast<int>(wrem % c);
    nrem /= q;
    wrem /= c;
    coord[static_cast<std::size_t>(i)] = node_coord * c + within_coord;
  }
  return coord;
}

}  // namespace gridmap
