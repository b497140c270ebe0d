// MappingPlan: the persisted outcome of a portfolio race — which backend won
// an instance, at what cost, and the full rank->cell assignment. Plans are
// what the cache stores and what plan_io serializes, so re-running a known
// instance never re-executes a mapper.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/remapping.hpp"
#include "core/types.hpp"
#include "engine/objective.hpp"

namespace gridmap::engine {

struct MappingPlan {
  std::string signature;            ///< canonical instance signature (incl. objective)
  std::string mapper;               ///< registry name of the winning backend
  Objective objective = Objective::kLexJmaxJsum;
  std::int64_t jsum = 0;
  std::int64_t jmax = 0;
  std::vector<Cell> cell_of_rank;   ///< the winning assignment, rank-indexed

  /// Rebuilds the Remapping against the grid the plan was computed for
  /// (validates the stored cells form a bijection).
  Remapping to_remapping(const CartesianGrid& grid) const {
    return Remapping::from_cells(grid, cell_of_rank);
  }

  /// The plan's GRIDMAP frame: exactly serialize_plan(*this), stored by
  /// seal_plan when the plan becomes immutable (or kept by parse_plan from
  /// the block it read), so serving a plan writes bytes instead of encoding
  /// them. Empty on a plan that was built field by field and never sealed.
  const std::string& frame() const noexcept { return frame_; }

  /// Equal plans have the same signature, mapper, objective, costs and
  /// cells; the frame is a derived encoding and takes no part.
  friend bool operator==(const MappingPlan& a, const MappingPlan& b) {
    return a.signature == b.signature && a.mapper == b.mapper &&
           a.objective == b.objective && a.jsum == b.jsum && a.jmax == b.jmax &&
           a.cell_of_rank == b.cell_of_rank;
  }

 private:
  friend std::shared_ptr<const MappingPlan> seal_plan(MappingPlan plan);
  friend MappingPlan parse_plan(std::string text);

  std::string frame_;
};

}  // namespace gridmap::engine
