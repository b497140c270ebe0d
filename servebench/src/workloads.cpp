#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/dims_create.hpp"

namespace servebench {

namespace {

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr const char* kStencils[] = {"nn", "hops", "component"};
constexpr int kPpn[] = {32, 48, 64};

}  // namespace

InstanceGen::InstanceGen(std::uint64_t seed, std::uint64_t salt)
    : rng_(mix(mix(seed) ^ salt)) {}

InstanceSpec InstanceGen::make(double target, int slot, int round) {
  const int combo = slot % 6;
  const int ndims = 2 + combo % 2;
  const char* stencil = kStencils[combo / 2];
  const int ppn = kPpn[(slot + slot / 6) % 3];
  const std::uint64_t bits = mix(static_cast<std::uint64_t>(slot) * 131 + static_cast<std::uint64_t>(round));
  for (int attempt = 0; attempt < 10000; ++attempt) {
    // After a collision, nudge the target by a growing share to reach a
    // node count not used yet.
    const double t = target * (1.0 + 0.01 * attempt * (2.0 * uniform() - 1.0));
    InstanceSpec spec;
    spec.ppn = ppn;
    const std::int64_t lo = (kMinRanks + ppn - 1) / ppn;
    const std::int64_t hi = kMaxRanks / ppn;
    spec.nodes = static_cast<int>(std::clamp<std::int64_t>(std::llround(t / ppn), lo, hi));
    spec.dims = gridmap::dims_create(spec.ranks(), ndims);
    spec.stencil = stencil;
    for (int i = 0; i < ndims; ++i) spec.periodic += (bits >> i) & 1 ? '1' : '0';
    if (seen_.insert(spec.args()).second) return spec;
  }
  throw std::runtime_error("instance generator ran out of distinct shapes");
}

double InstanceGen::slot_position(int j, int count) {
  return (j + 1 - kSlotJitter * uniform()) / count;
}

std::vector<InstanceSpec> cold_round(InstanceGen& gen, int round) {
  std::vector<InstanceSpec> out;
  for (int octave = 0; octave < 6; ++octave) {
    const int count = 32 >> octave;
    for (int j = 0; j < count; ++j) {
      const double target =
          static_cast<double>(kMinRanks) * std::exp2(octave + gen.slot_position(j, count));
      out.push_back(gen.make(target, j + octave + round, round));
    }
  }
  std::shuffle(out.begin(), out.end(), gen.rng());
  return out;
}

std::vector<InstanceSpec> hot_working_set(InstanceGen& gen) {
  std::vector<InstanceSpec> out;
  const double span = static_cast<double>(kMaxRanks) / static_cast<double>(kMinRanks);
  for (int i = 0; i < kHotWorkingSet; ++i) {
    const double rung = static_cast<double>(kMinRanks) * std::pow(span, i / (kHotWorkingSet - 1.0));
    out.push_back(gen.make(rung * (1.0 - 0.01 * gen.uniform()), i, 0));
  }
  return out;
}

std::vector<int> hot_round(InstanceGen& gen) {
  double harmonic = 0.0;
  for (int k = 1; k <= kHotWorkingSet; ++k) harmonic += 1.0 / std::pow(k, kZipfExponent);
  std::vector<int> out;
  for (int k = 0; k < kHotWorkingSet; ++k) {
    const double share = 1.0 / std::pow(k + 1, kZipfExponent) / harmonic;
    const long count = std::max(1L, std::lround(kHotRoundRequests * share));
    const int slot = (kHotTopSlot + 11 * k) % kHotWorkingSet;
    out.insert(out.end(), static_cast<std::size_t>(count), slot);
  }
  std::shuffle(out.begin(), out.end(), gen.rng());
  return out;
}

std::vector<InstanceSpec> churn_hot_set(InstanceGen& gen) {
  std::vector<InstanceSpec> out;
  for (int i = 0; i < kChurnHotSet; ++i) {
    out.push_back(gen.make(static_cast<double>(kMinRanks << i), i, 0));
  }
  return out;
}

std::vector<ChurnStep> churn_round(InstanceGen& gen, int round,
                                   std::vector<InstanceSpec>& instances) {
  constexpr int kHitSteps = 4, kTwinSteps = 6, kFreshSteps = 6;
  constexpr int kFresh = kTwinSteps + kFreshSteps * kChurnConnections;
  // Stratified sizes from 1k to 8k ranks, dealt to the misses in a seeded order.
  std::vector<InstanceSpec> fresh;
  for (int j = 0; j < kFresh; ++j) {
    const double target = static_cast<double>(kMinRanks) * std::exp2(3.0 * gen.slot_position(j, kFresh));
    fresh.push_back(gen.make(target, j + round, round));
  }
  std::shuffle(fresh.begin(), fresh.end(), gen.rng());
  std::vector<StepKind> kinds;
  kinds.insert(kinds.end(), kHitSteps, StepKind::kHit);
  kinds.insert(kinds.end(), kTwinSteps, StepKind::kTwin);
  kinds.insert(kinds.end(), kFreshSteps, StepKind::kFresh);
  std::shuffle(kinds.begin(), kinds.end(), gen.rng());

  std::vector<ChurnStep> steps;
  int next_fresh = 0, hits = 0;
  const auto take = [&] {
    instances.push_back(fresh[static_cast<std::size_t>(next_fresh++)]);
    return static_cast<int>(instances.size()) - 1;
  };
  for (const StepKind kind : kinds) {
    ChurnStep step{kind, {}};
    if (kind == StepKind::kTwin) {
      const int shared = take();
      for (int& index : step.instance) index = shared;
    } else {
      for (int c = 0; c < kChurnConnections; ++c) {
        step.instance[c] = kind == StepKind::kFresh ? take() : (hits + c + round) % kChurnHotSet;
      }
      if (kind == StepKind::kHit) ++hits;
    }
    steps.push_back(step);
  }
  return steps;
}

}  // namespace servebench
