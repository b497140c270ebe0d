// Independent correctness oracle for served plans. It parses plan frames
// itself and recounts Jsum/Jmax by enumerating the stencil's directed edges
// with periodic wrap, so it shares no code with the library's
// evaluate_mapping / traffic_matrix paths it is checking.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace servebench {

/// A plan block as served ("gridmap-plan v1[ provisional]" ... "end").
struct PlanFrame {
  bool provisional = false;
  std::string signature;
  std::string objective;
  std::string mapper;
  std::int64_t jsum = 0;
  std::int64_t jmax = 0;
  std::vector<std::int64_t> cells;  ///< cell of each rank
};

/// Parses one plan block; throws std::runtime_error naming what is wrong.
PlanFrame parse_frame(std::string_view text);

/// Jsum = directed stencil edges whose endpoints lie on different nodes;
/// Jmax = the largest number of such edges leaving one node.
struct Cut {
  std::int64_t jsum = 0;
  std::int64_t jmax = 0;
};

/// Lexicographic (Jmax, Jsum) order: a is no worse than b.
inline bool no_worse(const Cut& a, const Cut& b) {
  return a.jmax < b.jmax || (a.jmax == b.jmax && a.jsum <= b.jsum);
}

/// Stencil offsets by wire name: nn = +-e_i; hops = nn plus +-2e_0, +-3e_0;
/// component = +-e_i for every dimension but the last.
std::vector<std::vector<int>> stencil_offsets(const std::string& kind, int ndims);

/// Calls visit(from_cell, to_cell) for every directed stencil edge of the
/// instance's grid (row-major cells, periodic dimensions wrap).
template <typename Visit>
void for_each_edge(const InstanceSpec& spec, Visit&& visit) {
  const int nd = static_cast<int>(spec.dims.size());
  const auto offsets = stencil_offsets(spec.stencil, nd);
  std::vector<std::int64_t> stride(static_cast<std::size_t>(nd), 1);
  for (int i = nd - 2; i >= 0; --i) stride[i] = stride[i + 1] * spec.dims[i + 1];
  std::vector<int> coord(static_cast<std::size_t>(nd), 0);
  const std::int64_t cells = stride[0] * spec.dims[0];
  for (std::int64_t cell = 0; cell < cells; ++cell) {
    for (const auto& off : offsets) {
      std::int64_t target = 0;
      bool inside = true;
      for (int i = 0; i < nd && inside; ++i) {
        int v = coord[i] + off[i];
        if (v < 0 || v >= spec.dims[i]) {
          if (spec.periodic[i] != '1') {
            inside = false;
            break;
          }
          v = ((v % spec.dims[i]) + spec.dims[i]) % spec.dims[i];
        }
        target += v * stride[i];
      }
      if (inside) visit(cell, target);
    }
    for (int i = nd - 1; i >= 0; --i) {  // advance the row-major coordinate
      if (++coord[i] < spec.dims[i]) break;
      coord[i] = 0;
    }
  }
}

/// Node of each cell when rank r sits on cell cells[r] and ranks fill nodes
/// in blocks of ppn. Throws unless `cells` is a bijection on the grid.
std::vector<int> node_of_cell(const InstanceSpec& spec, const std::vector<std::int64_t>& cells);

/// The blocked mapping: rank r on cell r.
std::vector<int> blocked_nodes(const InstanceSpec& spec);

Cut count_cut(const InstanceSpec& spec, const std::vector<int>& node_of_cell);

/// Checks one served frame against the instance it answers: the cells form
/// a bijection on the requested grid and the frame's jsum/jmax equal the
/// recount. Returns the recount; throws std::runtime_error on a mismatch.
Cut check_frame(const InstanceSpec& spec, const PlanFrame& frame);

/// Runs the oracle on hand-counted instances; throws on the first wrong
/// answer. Cheap enough to run at the start of every benchmark run.
void oracle_self_test();

}  // namespace servebench
