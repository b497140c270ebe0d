// Mapper: common interface of all process-to-node mapping algorithms.
//
// Every algorithm is cancellable: the virtual entry points take an
// ExecContext& and poll it in their hot loops, so callers (notably the
// portfolio engine) can budget and cancel runs. The overloads without an
// ExecContext forward the shared unlimited context, so plain call sites
// stay as simple as before.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/allocation.hpp"
#include "core/exec_context.hpp"
#include "core/grid.hpp"
#include "core/remapping.hpp"
#include "core/stencil.hpp"

namespace gridmap::engine {
class ThreadPool;
}
namespace gridmap::obs {
class TraceRecorder;
}

namespace gridmap {

/// Base interface: computes a full rank -> grid-cell remapping.
class Mapper {
 public:
  virtual ~Mapper() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Offers shared-memory execution resources for subsequent remap() calls:
  /// a shared worker pool the mapper may fork subtasks onto (may be null),
  /// a target thread count (0 = auto: the pool's size, else the hardware),
  /// and a trace recorder for backend-internal spans (may be null). The
  /// default implementation ignores the offer — mappers stay serial unless
  /// they opt in (GeneralGraphMapper does). The engine calls this on each
  /// per-run mapper instance right after creating it; implementations need
  /// not support being reconfigured concurrently with remap().
  virtual void configure_execution(engine::ThreadPool* /*pool*/, int /*threads*/,
                                   obs::TraceRecorder* /*trace*/) {}

  /// Whether the algorithm can handle this instance (e.g. Nodecart requires a
  /// factorization of n compatible with the grid). Default: always.
  virtual bool applicable(const CartesianGrid& grid, const Stencil& stencil,
                          const NodeAllocation& alloc) const;

  /// Convenience overload: runs without limits.
  Remapping remap(const CartesianGrid& grid, const Stencil& stencil,
                  const NodeAllocation& alloc) const {
    return remap(grid, stencil, alloc, ExecContext::none());
  }

  /// Cancellable entry point. Implementations call ctx.checkpoint() in their
  /// hot loops and abort with CancelledError when the deadline passes or the
  /// token fires; a limited ctx never changes the result of a completed run.
  virtual Remapping remap(const CartesianGrid& grid, const Stencil& stencil,
                          const NodeAllocation& alloc, ExecContext& ctx) const = 0;
};

/// One box of the grid filled by consecutive ranks: the box
/// [origin, origin + extent) walked in mixed-radix order over `order` (every
/// axis, slowest first). An axis whose bit is set in `reversed` runs from its
/// far end (the strips' snake).
struct Block {
  Coord origin;
  Dims extent;
  std::vector<int> order;
  std::uint32_t reversed = 0;

  /// The box [0, extent) walked row-major.
  static Block row_major(const Dims& extent);
};

/// The shared plan-construction core of the DistributedMappers: receives
/// their blocks in rank order and writes each rank's cell, so a full remap
/// costs O(p) however the blocks were derived.
class BlockEmitter {
 public:
  BlockEmitter(const CartesianGrid& grid, ExecContext& ctx);

  ExecContext& ctx() noexcept { return ctx_; }

  /// Assigns the next prod(block.extent) ranks to the block's cells, with a
  /// cancellation checkpoint per row.
  void emit(const Block& block);

  /// Cut of a box along `dim`: its first `lhs` layers take the lower ranks.
  /// dim < 0 makes the box a leaf.
  struct Cut {
    int dim = -1;
    int lhs = 0;
  };
  using CutFn = std::function<Cut(const Dims& extent, std::int64_t volume)>;
  using LeafOrderFn = std::function<void(const Dims& extent, std::vector<int>& order)>;

  /// Recursive bisection of the whole grid (Hyperplane, k-d Tree): `cut`
  /// splits each box, lower side first; each leaf is emitted with the axis
  /// order `leaf_order` writes, or row-major without one.
  void emit_bisection(const CutFn& cut, const LeafOrderFn& leaf_order = {});

  /// The finished remapping; every rank must have been emitted.
  Remapping finish() &&;

 private:
  void bisect(Block& box, std::int64_t volume, const CutFn& cut,
              const LeafOrderFn& leaf_order);

  const CartesianGrid& grid_;
  ExecContext& ctx_;
  std::vector<Cell> cells_;
  std::vector<std::int64_t> stride_;  // row-major cell strides
  std::int64_t next_ = 0;
  std::vector<int> digit_;         // odometer scratch for emit()
  std::vector<std::int64_t> step_;  // signed cell step per order position
};

/// Advances `index` to its row-major successor within `radix` (last entry
/// fastest); returns false after the last index, leaving `index` all zero.
bool next_row_major(std::vector<int>& index, const Dims& radix);

/// A mapper whose result every rank can compute locally from the input alone
/// (the paper's design goal (a) in Section V). `new_coordinate` is the
/// distributed per-rank entry point. `remap` builds the rank-independent
/// decomposition once and hands its blocks to a BlockEmitter, so it is O(p)
/// instead of p per-rank descents; new_coordinate stays the bit-identity
/// oracle that the tests hold remap to.
class DistributedMapper : public Mapper {
 public:
  using Mapper::remap;

  /// Convenience overload: runs without limits.
  Coord new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                       const NodeAllocation& alloc, Rank rank) const {
    return new_coordinate(grid, stencil, alloc, rank, ExecContext::none());
  }

  virtual Coord new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                               const NodeAllocation& alloc, Rank rank,
                               ExecContext& ctx) const = 0;

  /// Checks the base applicability, then collects emit_blocks' output.
  Remapping remap(const CartesianGrid& grid, const Stencil& stencil,
                  const NodeAllocation& alloc, ExecContext& ctx) const final;

 protected:
  /// Emits every rank's block in rank order. Must reject (GRIDMAP_CHECK)
  /// whatever an applicable() override rejects beyond Mapper::applicable.
  virtual void emit_blocks(const CartesianGrid& grid, const Stencil& stencil,
                           const NodeAllocation& alloc, BlockEmitter& out) const = 0;
};

}  // namespace gridmap
