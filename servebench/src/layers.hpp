// The traced run's in-process replay: the workload's own instances fed
// through each layer's public functions, with a benchmark span around every
// call. Nothing inside the library is instrumented.
#pragma once

#include <string>

#include "bench.hpp"
#include "loopback.hpp"

namespace servebench {

/// Replays `run`'s instances through wire, plan_io, engine, service, mapper
/// and eval, recording spans into `tracer`, and returns the per-layer
/// metrics (everything but the service.* counts, which come from the
/// server's stats verb). Mismatches found on the way (a cached plan that
/// re-serializes differently, a probe that misses) are appended to
/// run.correctness_errors. `work_dir` receives the short-lived cache file
/// that warms the in-process service.
Metrics replay_layers(RunResult& run, const std::string& work_dir, Tracer& tracer);

}  // namespace servebench
