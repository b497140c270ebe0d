// Seeded request generators for the three workloads. Everything the server
// sees is produced here from (workload, seed, round); the generators are
// stratified so that the size mix of a round is the same for every seed and
// the seed only moves instance shapes and request order.
#pragma once

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"

namespace servebench {

/// Smallest and largest rank counts any workload generates.
inline constexpr std::int64_t kMinRanks = 1024;
inline constexpr std::int64_t kMaxRanks = 65536;

/// Share of a size slot by which the seed moves an instance's target.
inline constexpr double kSlotJitter = 0.1;

/// Deterministic generator state for one workload stream. Every workload
/// fixes its composition (sizes by slot, stencil, dimensionality, ppn,
/// periodicity) by design; the seed moves sizes within their slots, and so
/// node counts and grid shapes, and sets the request order. Runs with
/// different seeds therefore load the server alike, and no two requests of
/// a cold stream share an instance.
class InstanceGen {
 public:
  InstanceGen(std::uint64_t seed, std::uint64_t salt);

  std::mt19937_64& rng() noexcept { return rng_; }
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }

  /// An instance of about `target` ranks, never one returned before by this
  /// generator. The design slot fixes stencil and dimensionality (slot % 6:
  /// nn, hops, component x 2-D, 3-D) and ppn (32, 48, 64); periodic bits
  /// are a hash of slot and round. Grids come from the library's
  /// dims_create.
  InstanceSpec make(double target, int slot, int round);

  /// Position of slot j of `count` equal slots of [0, 1]: its upper end,
  /// jittered down by up to kSlotJitter of a slot.
  double slot_position(int j, int count);

 private:
  std::mt19937_64 rng_;
  std::set<std::string> seen_;
};

/// cold-sweep: one round = 63 distinct instances, 32 >> s of them in rank
/// octave s = 0..5 ([1k,2k) ... [32k,64k]), so each octave costs about the
/// same race time; design slots advance with the round; order shuffled.
std::vector<InstanceSpec> cold_round(InstanceGen& gen, int round);

/// hot-replay: the working set of kHotWorkingSet instances on a geometric
/// ladder from 1k to 64k ranks (each within 1% of its rung).
inline constexpr int kHotWorkingSet = 30;
inline constexpr double kZipfExponent = 1.0;
inline constexpr int kHotRoundRequests = 240;
/// Ladder slot of the most popular instance (about 18k ranks): the median
/// request then falls inside one instance's share of the stream.
inline constexpr int kHotTopSlot = 20;
std::vector<InstanceSpec> hot_working_set(InstanceGen& gen);
/// One round of the Zipf stream: working-set indices whose counts follow
/// the Zipf law exactly (popularity rank k -> ladder slot 20 + 11k mod 30,
/// so popular slots span every size), in a seeded order.
std::vector<int> hot_round(InstanceGen& gen);

/// spec-churn: three connections in lock-step. Each step every connection
/// sends one mapspec request.
inline constexpr int kChurnConnections = 3;
inline constexpr int kChurnHotSet = 4;
enum class StepKind { kHit, kTwin, kFresh };
struct ChurnStep {
  StepKind kind;
  int instance[kChurnConnections];  ///< index into the churn instance list, per connection
};
/// The small hot set (1k, 2k, 4k, 8k ranks), warmed during set-up.
std::vector<InstanceSpec> churn_hot_set(InstanceGen& gen);
/// One round: 4 hit steps (hot-set repeats), 6 twin steps (one fresh
/// instance sent on all connections at once: single-flight joins) and 6
/// fresh steps (a distinct fresh instance per connection), shuffled. Fresh
/// instances (1k to 8k ranks) are appended to `instances`; the hot set
/// occupies indices [0, kChurnHotSet).
std::vector<ChurnStep> churn_round(InstanceGen& gen, int round,
                                   std::vector<InstanceSpec>& instances);

}  // namespace servebench
