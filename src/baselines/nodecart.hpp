// Nodecart (Gropp 2019, paper Section III): decomposes the grid into a node
// grid and a within-node grid based on a prime factorization of the node
// size n. Requires a homogeneous allocation and a factorization n = prod c_i
// with c_i dividing d_i — the limitation the paper's algorithms remove.
#pragma once

#include <optional>

#include "core/mapper.hpp"

namespace gridmap {

class NodecartMapper final : public DistributedMapper {
 public:
  using DistributedMapper::new_coordinate;
  using DistributedMapper::remap;

  std::string_view name() const noexcept override { return "Nodecart"; }

  bool applicable(const CartesianGrid& grid, const Stencil& stencil,
                  const NodeAllocation& alloc) const override;

  Coord new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                       const NodeAllocation& alloc, Rank rank,
                       ExecContext& ctx) const override;

  /// The within-node block c with c_i | d_i and prod c_i = n that minimizes
  /// the directed boundary surface 2 * sum_j prod_{i != j} c_i (Gropp's
  /// nearest-neighbor surface criterion). nullopt when no factorization
  /// exists. Exposed for tests.
  std::optional<Dims> within_node_block(const Dims& dims, int n,
                                        ExecContext& ctx = ExecContext::none()) const;

 private:
  void emit_blocks(const CartesianGrid& grid, const Stencil& stencil,
                   const NodeAllocation& alloc, BlockEmitter& out) const override;
};

}  // namespace gridmap
