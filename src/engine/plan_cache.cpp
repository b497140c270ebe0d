#include "engine/plan_cache.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/types.hpp"
#include "engine/plan_io.hpp"

namespace gridmap::engine {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const MappingPlan> PlanCache::get(const std::string& signature) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(signature);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

std::shared_ptr<const MappingPlan> PlanCache::probe(const std::string& signature) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(signature);
  if (it == index_.end()) return nullptr;  // deliberately not a counted miss
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void PlanCache::put(const std::string& signature, std::shared_ptr<const MappingPlan> plan) {
  GRIDMAP_CHECK(plan != nullptr, "cannot cache a null plan");
  GRIDMAP_CHECK(!plan->frame().empty(), "cannot cache a plan without its frame (seal_plan it)");
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return;
  const auto it = index_.find(signature);
  if (it != index_.end()) {
    ++refreshes_;
    it->second->second = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  ++inserts_;
  lru_.emplace_front(signature, std::move(plan));
  index_.emplace(signature, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

CacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.inserts = inserts_;
  s.refreshes = refreshes_;
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

void PlanCache::save(const std::string& path) const {
  // Snapshot under the lock (plans are immutable shared_ptrs), write after
  // releasing it so concurrent get()/put() never stall on file work.
  std::vector<std::shared_ptr<const MappingPlan>> plans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    plans.reserve(lru_.size());
    // Back-to-front: least recently used first, so replaying the file
    // through put() restores the same recency order.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      plans.push_back(it->second);
    }
  }
  std::string text;
  for (const auto& plan : plans) text += plan->frame();

  // Write-then-rename so a failed or interrupted write never destroys a
  // previously persisted cache file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    GRIDMAP_CHECK(out.is_open(), "cannot open cache file for writing: " + tmp);
    out << text;
    out.flush();
    GRIDMAP_CHECK(static_cast<bool>(out), "failed writing cache file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw_invalid("failed to replace cache file: " + path);
  }
}

std::size_t PlanCache::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GRIDMAP_CHECK(in.is_open(), "cannot open cache file for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // Each serialized plan ends with a line reading exactly "end"; split on
  // it. Parse the entire file before inserting anything: a malformed block
  // anywhere must leave the cache exactly as it was (no partial state).
  // Each parsed block stays its plan's frame, so a loaded plan is served
  // (and saved again) without being re-encoded.
  std::vector<std::shared_ptr<const MappingPlan>> parsed;
  std::size_t pos = 0;
  while (pos < text.size()) {
    if (text[pos] == '\n') {  // blank separators between blocks
      ++pos;
      continue;
    }
    std::size_t end = text.find("\nend\n", pos);
    GRIDMAP_CHECK(end != std::string::npos, "truncated plan block in cache file: " + path);
    end += 5;  // include the "\nend\n" terminator
    auto plan = std::make_shared<MappingPlan>(parse_plan(text.substr(pos, end - pos)));
    GRIDMAP_CHECK(!plan->signature.empty(), "cached plan without a signature: " + path);
    parsed.push_back(std::move(plan));
    pos = end;
  }
  for (std::shared_ptr<const MappingPlan>& plan : parsed) {
    const std::string signature = plan->signature;
    put(signature, std::move(plan));
  }
  return parsed.size();
}

}  // namespace gridmap::engine
