#include "oracle.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace servebench {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

/// Splits off the next '\n'-terminated line of `text` starting at `pos`.
std::string_view next_line(std::string_view text, std::size_t& pos) {
  const std::size_t newline = text.find('\n', pos);
  if (newline == std::string_view::npos) fail("plan frame: unterminated line");
  const std::string_view line = text.substr(pos, newline - pos);
  pos = newline + 1;
  return line;
}

std::string_view field(std::string_view line, std::string_view key) {
  if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
      line[key.size()] != ' ') {
    fail("plan frame: expected field '" + std::string(key) + "'");
  }
  return line.substr(key.size() + 1);
}

std::int64_t to_int(std::string_view text) {
  std::int64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    fail("plan frame: bad integer '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace

PlanFrame parse_frame(std::string_view text) {
  PlanFrame frame;
  std::size_t pos = 0;
  const std::string_view header = next_line(text, pos);
  if (header == "gridmap-plan v1 provisional") {
    frame.provisional = true;
  } else if (header != "gridmap-plan v1") {
    fail("plan frame: bad header '" + std::string(header) + "'");
  }
  frame.signature = field(next_line(text, pos), "signature");
  frame.objective = field(next_line(text, pos), "objective");
  frame.mapper = field(next_line(text, pos), "mapper");
  frame.jsum = to_int(field(next_line(text, pos), "jsum"));
  frame.jmax = to_int(field(next_line(text, pos), "jmax"));
  const std::int64_t ranks = to_int(field(next_line(text, pos), "ranks"));
  if (ranks < 0) fail("plan frame: negative rank count");
  const std::string_view cells = field(next_line(text, pos), "cells");
  frame.cells.reserve(static_cast<std::size_t>(ranks));
  std::size_t at = 0;
  while (at < cells.size()) {
    const std::size_t space = std::min(cells.find(' ', at), cells.size());
    frame.cells.push_back(to_int(cells.substr(at, space - at)));
    at = space + 1;
  }
  if (static_cast<std::int64_t>(frame.cells.size()) != ranks) {
    fail("plan frame: ranks says " + std::to_string(ranks) + " but cells lists " +
         std::to_string(frame.cells.size()));
  }
  if (next_line(text, pos) != "end" || pos != text.size()) {
    fail("plan frame: missing end line or trailing bytes");
  }
  return frame;
}

std::vector<std::vector<int>> stencil_offsets(const std::string& kind, int ndims) {
  std::vector<std::vector<int>> offsets;
  const auto unit = [&](int dim, int value) {
    std::vector<int> off(static_cast<std::size_t>(ndims), 0);
    off[static_cast<std::size_t>(dim)] = value;
    offsets.push_back(off);
  };
  const int spanned = kind == "component" ? ndims - 1 : ndims;
  if (kind != "nn" && kind != "hops" && kind != "component") fail("unknown stencil " + kind);
  for (int i = 0; i < spanned; ++i) {
    unit(i, +1);
    unit(i, -1);
  }
  if (kind == "hops") {
    for (const int hop : {2, 3}) {
      unit(0, +hop);
      unit(0, -hop);
    }
  }
  return offsets;
}

std::vector<int> node_of_cell(const InstanceSpec& spec, const std::vector<std::int64_t>& cells) {
  std::int64_t grid_cells = 1;
  for (const int d : spec.dims) grid_cells *= d;
  if (spec.ranks() != grid_cells) fail("instance: ranks != grid cells");
  if (static_cast<std::int64_t>(cells.size()) != grid_cells) {
    fail("plan: " + std::to_string(cells.size()) + " ranks for a grid of " +
         std::to_string(grid_cells) + " cells");
  }
  std::vector<int> nodes(cells.size(), -1);
  for (std::size_t rank = 0; rank < cells.size(); ++rank) {
    const std::int64_t cell = cells[rank];
    if (cell < 0 || cell >= grid_cells) fail("plan: cell out of range");
    if (nodes[static_cast<std::size_t>(cell)] != -1) fail("plan: cell assigned twice");
    nodes[static_cast<std::size_t>(cell)] = static_cast<int>(rank / static_cast<std::size_t>(spec.ppn));
  }
  return nodes;  // |cells| == grid size and no repeats, so every cell is covered
}

std::vector<int> blocked_nodes(const InstanceSpec& spec) {
  std::vector<int> nodes(static_cast<std::size_t>(spec.ranks()));
  for (std::size_t cell = 0; cell < nodes.size(); ++cell) {
    nodes[cell] = static_cast<int>(cell / static_cast<std::size_t>(spec.ppn));
  }
  return nodes;
}

Cut count_cut(const InstanceSpec& spec, const std::vector<int>& node_of_cell) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(spec.nodes), 0);
  Cut cut;
  for_each_edge(spec, [&](std::int64_t from, std::int64_t to) {
    const int a = node_of_cell[static_cast<std::size_t>(from)];
    if (a != node_of_cell[static_cast<std::size_t>(to)]) {
      ++cut.jsum;
      ++out[static_cast<std::size_t>(a)];
    }
  });
  for (const std::int64_t v : out) cut.jmax = std::max(cut.jmax, v);
  return cut;
}

Cut check_frame(const InstanceSpec& spec, const PlanFrame& frame) {
  const Cut cut = count_cut(spec, node_of_cell(spec, frame.cells));
  if (cut.jsum != frame.jsum || cut.jmax != frame.jmax) {
    fail("plan for '" + spec.args() + "' claims jsum " + std::to_string(frame.jsum) +
         " jmax " + std::to_string(frame.jmax) + " but its edges count jsum " +
         std::to_string(cut.jsum) + " jmax " + std::to_string(cut.jmax));
  }
  return cut;
}

void oracle_self_test() {
  struct Case {
    InstanceSpec spec;
    bool transposed;  // rank r -> cell (r % d0) * d1 + r / d0 instead of blocked
    Cut expected;
  };
  // Hand-counted: a 4x4 grid on 2 nodes x 8 splits rows {0,1} | {2,3}.
  const Case cases[] = {
      {{{4, 4}, "00", "nn", 2, 8}, false, {8, 4}},
      {{{4, 4}, "10", "nn", 2, 8}, false, {16, 8}},  // wrap adds rows 3|0
      {{{4, 4}, "00", "hops", 2, 8}, false, {32, 16}},
      {{{4, 4}, "00", "component", 2, 8}, true, {0, 0}},  // whole columns per node
      {{{4, 4}, "00", "nn", 2, 8}, true, {8, 4}},
      {{{4, 2, 2}, "000", "nn", 2, 8}, false, {8, 4}},
      {{{4, 2, 2}, "100", "nn", 2, 8}, false, {16, 8}},
  };
  for (const Case& c : cases) {
    std::vector<std::int64_t> cells(static_cast<std::size_t>(c.spec.ranks()));
    const std::int64_t d0 = c.spec.dims[0];
    const std::int64_t rest = c.spec.ranks() / d0;
    for (std::int64_t r = 0; r < c.spec.ranks(); ++r) {
      cells[static_cast<std::size_t>(r)] = c.transposed ? (r % d0) * rest + r / d0 : r;
    }
    const Cut cut = count_cut(c.spec, node_of_cell(c.spec, cells));
    if (cut.jsum != c.expected.jsum || cut.jmax != c.expected.jmax) {
      fail("oracle self-test: " + c.spec.args() + " counted jsum " + std::to_string(cut.jsum) +
           " jmax " + std::to_string(cut.jmax));
    }
  }

  // The frame checks must reject what they exist to catch.
  const InstanceSpec spec{{4, 4}, "00", "nn", 2, 8};
  const std::string good =
      "gridmap-plan v1\nsignature s\nobjective jmax-then-jsum\nmapper blocked\njsum 8\n"
      "jmax 4\nranks 16\ncells 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\nend\n";
  check_frame(spec, parse_frame(good));
  const auto rejects = [&](std::string text, const char* what) {
    try {
      check_frame(spec, parse_frame(text));
    } catch (const std::runtime_error&) {
      return;
    }
    fail(std::string("oracle self-test: accepted ") + what);
  };
  std::string wrong_count = good;
  wrong_count.replace(wrong_count.find("jsum 8"), 6, "jsum 7");
  rejects(wrong_count, "a wrong jsum");
  std::string repeated = good;
  repeated.replace(repeated.find(" 15\n"), 4, " 14\n");
  rejects(repeated, "a cell assigned twice");
  rejects(good.substr(0, good.size() - 4), "a frame without its end line");
}

}  // namespace servebench
