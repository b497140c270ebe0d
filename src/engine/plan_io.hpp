// Plan serialization: a line-oriented text format so winning plans survive
// across runs (warm-starting the cache, shipping plans to other machines).
//
//   gridmap-plan v1
//   signature <canonical instance signature>
//   objective <jsum|jmax|jmax-then-jsum>
//   mapper <backend name>
//   jsum <int64>
//   jmax <int64>
//   ranks <count>
//   cells <c0> <c1> ... <c_{p-1}>
//   end
//
// All values are exact integers/strings, and parse_plan accepts only this
// canonical encoding (plus blank lines after "end"), so
// serialize(parse(s)) == s holds bit-identically for every block it accepts.
#pragma once

#include <memory>
#include <string>

#include "engine/plan.hpp"

namespace gridmap::engine {

/// The reference encoder: the plan's GRIDMAP frame, computed from its fields.
std::string serialize_plan(const MappingPlan& plan);

/// Makes `plan` immutable and encodes its frame, exactly once. Every plan the
/// engine caches or serves is built here (or read back by parse_plan), which
/// is what lets a cache hit write the stored frame instead of re-encoding.
std::shared_ptr<const MappingPlan> seal_plan(MappingPlan plan);

/// Inverse of serialize_plan; the returned plan keeps the block it read as
/// its frame. Throws std::invalid_argument on malformed or non-canonical
/// input (bad header, missing fields, rank-count mismatch, numbers with a
/// '+' or leading zeros, extra spaces, trailing data).
MappingPlan parse_plan(std::string text);

/// File convenience wrappers; throw on I/O failure.
void save_plan(const std::string& path, const MappingPlan& plan);
MappingPlan load_plan(const std::string& path);

}  // namespace gridmap::engine
