#include "engine/plan_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/types.hpp"

namespace gridmap::engine {

namespace {

constexpr std::string_view kHeader = "gridmap-plan v1";

/// Room for the field labels, newlines, objective name and the three
/// integers of a plan block, besides its signature, mapper name and cells.
constexpr std::size_t kFixedBytes = 192;

/// Characters std::to_chars writes for `value` (20 at most, for INT64_MIN).
std::size_t decimal_width(std::int64_t value) {
  char digits[20];
  return static_cast<std::size_t>(std::to_chars(digits, digits + 20, value).ptr - digits);
}

/// Pops the next '\n'-terminated line off `rest`, without its newline.
std::string_view next_line(std::string_view& rest, std::string_view what) {
  const std::size_t newline = rest.find('\n');
  GRIDMAP_CHECK(newline != std::string_view::npos,
                "plan truncated before field: " + std::string(what));
  const std::string_view line = rest.substr(0, newline);
  rest.remove_prefix(newline + 1);
  return line;
}

/// Reads "<key> <value>" and returns the value; throws on key mismatch.
std::string_view expect_field(std::string_view& rest, std::string_view key) {
  const std::string_view line = next_line(rest, key);
  GRIDMAP_CHECK(line.size() > key.size() && line.starts_with(key) && line[key.size()] == ' ',
                "expected plan field '" + std::string(key) + "', got: " + std::string(line));
  return line.substr(key.size() + 1);
}

/// Parses an integer written exactly as serialize_plan writes it: no '+',
/// no leading zeros, no "-0", no surrounding spaces — so the text it came
/// from is the only encoding of the value.
std::int64_t to_int64(std::string_view text, std::string_view what) {
  std::int64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  GRIDMAP_CHECK(error != std::errc::result_out_of_range,
                "integer out of range in " + std::string(what) + ": " + std::string(text));
  const std::string_view digits = text.substr(text.starts_with('-') ? 1 : 0);
  GRIDMAP_CHECK(error == std::errc() && stop == end && (digits[0] != '0' || text == "0"),
                "not a canonical integer in " + std::string(what) + ": " + std::string(text));
  return value;
}

}  // namespace

std::string serialize_plan(const MappingPlan& plan) {
  const std::vector<Cell>& cells = plan.cell_of_rank;
  // One buffer, reserved up front: no cell is wider than the wider extreme.
  std::size_t cell_width = 0;
  if (!cells.empty()) {
    const auto [lo, hi] = std::minmax_element(cells.begin(), cells.end());
    cell_width = std::max(decimal_width(*lo), decimal_width(*hi));
  }
  std::string out;
  out.reserve(kFixedBytes + plan.signature.size() + plan.mapper.size() +
              cells.size() * (cell_width + 1));
  out.append(kHeader)
      .append("\nsignature ").append(plan.signature)
      .append("\nobjective ").append(to_string(plan.objective))
      .append("\nmapper ").append(plan.mapper)
      .append("\njsum ").append(std::to_string(plan.jsum))
      .append("\njmax ").append(std::to_string(plan.jmax))
      .append("\nranks ").append(std::to_string(cells.size()))
      .append("\ncells");
  // The cells are written in place, one to_chars each.
  std::size_t size = out.size();
  out.resize(out.capacity());
  char* next = out.data() + size;
  for (const Cell c : cells) {
    *next++ = ' ';
    next = std::to_chars(next, out.data() + out.size(), c).ptr;
  }
  out.resize(static_cast<std::size_t>(next - out.data()));
  out += "\nend\n";
  return out;
}

std::shared_ptr<const MappingPlan> seal_plan(MappingPlan plan) {
  plan.frame_ = serialize_plan(plan);
  return std::make_shared<MappingPlan>(std::move(plan));
}

MappingPlan parse_plan(std::string text) {
  std::string_view rest = text;
  GRIDMAP_CHECK(next_line(rest, "header") == kHeader, "not a gridmap plan (bad header)");

  MappingPlan plan;
  plan.signature = expect_field(rest, "signature");
  const std::string_view objective = expect_field(rest, "objective");
  plan.objective = objective_from_string(objective);
  GRIDMAP_CHECK(to_string(plan.objective) == objective,
                "not a canonical objective name in plan: " + std::string(objective));
  plan.mapper = expect_field(rest, "mapper");
  GRIDMAP_CHECK(!plan.mapper.empty(), "plan mapper name is empty");
  plan.jsum = to_int64(expect_field(rest, "jsum"), "jsum");
  plan.jmax = to_int64(expect_field(rest, "jmax"), "jmax");
  const std::int64_t ranks = to_int64(expect_field(rest, "ranks"), "ranks");
  GRIDMAP_CHECK(ranks >= 0, "negative rank count in plan");

  std::string_view cells = next_line(rest, "cells");
  GRIDMAP_CHECK(cells.starts_with("cells"), "expected plan field 'cells', got: " +
                                                std::string(cells.substr(0, 64)));
  cells.remove_prefix(5);
  // Every cell takes at least two bytes, so a forged rank count cannot
  // reserve more than the text could hold.
  plan.cell_of_rank.reserve(std::min(static_cast<std::size_t>(ranks), cells.size() / 2));
  while (!cells.empty()) {
    GRIDMAP_CHECK(cells[0] == ' ', "malformed cell list in plan");
    cells.remove_prefix(1);
    const std::string_view cell = cells.substr(0, cells.find(' '));
    plan.cell_of_rank.push_back(to_int64(cell, "cells"));
    cells.remove_prefix(cell.size());
  }
  GRIDMAP_CHECK(static_cast<std::int64_t>(plan.cell_of_rank.size()) == ranks,
                "plan cell count does not match declared rank count");

  GRIDMAP_CHECK(rest.starts_with("end\n"), "plan missing end marker");
  rest.remove_prefix(4);
  GRIDMAP_CHECK(rest.find_first_not_of('\n') == std::string_view::npos,
                "trailing data after plan end marker");
  // Every line matched its canonical encoding, so the block read is the
  // plan's frame byte for byte (minus any trailing blank lines).
  text.resize(text.size() - rest.size());
  plan.frame_ = std::move(text);
  return plan;
}

void save_plan(const std::string& path, const MappingPlan& plan) {
  std::ofstream out(path, std::ios::binary);
  GRIDMAP_CHECK(out.is_open(), "cannot open plan file for writing: " + path);
  out << serialize_plan(plan);
  GRIDMAP_CHECK(static_cast<bool>(out), "failed writing plan file: " + path);
}

MappingPlan load_plan(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GRIDMAP_CHECK(in.is_open(), "cannot open plan file for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_plan(std::move(buffer).str());
}

}  // namespace gridmap::engine
