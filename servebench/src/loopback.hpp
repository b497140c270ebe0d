// The loopback side of the benchmark: plan_server as a child process, the
// GRIDMAP/1 client connections, and the closed-loop timed phase of each
// workload.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/wire.hpp"

namespace servebench {

/// One persistent GRIDMAP/1 connection (TCP_NODELAY, blocking reads with a
/// timeout): the library's FdTransport moves the bytes, this class frames
/// them into responses. Every failure throws std::runtime_error.
class Connection {
 public:
  /// Connects to 127.0.0.1:port and consumes the hello line.
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send_line(const std::string& line);
  /// Next response: a whole plan block (through its "end" line) or a
  /// single line ("ok ...", "err ...", "revision"), newline included.
  std::string read_response();

 private:
  int fd_;
  gridmap::engine::wire::FdTransport transport_;
  std::string buffer_;
  std::size_t scanned_ = 0;  // bytes of buffer_ already searched for a terminator
};

/// plan_server started with its default configuration on a free loopback
/// port. The destructor stops and reaps it if it is still running.
class ServerProcess {
 public:
  /// Spawns `binary` and returns once its "listening" line has been read.
  explicit ServerProcess(const std::string& binary);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const noexcept { return port_; }
  double spawned_at() const noexcept { return spawned_at_; }
  /// The server's "listening on ..." banner (carries its thread count).
  const std::string& banner() const noexcept { return banner_; }
  /// User + system CPU seconds of the server so far (/proc/<pid>/stat).
  double cpu_s() const;
  /// Peak resident set (VmHWM) in MiB.
  double peak_rss_mib() const;
  /// Sends the shutdown verb and waits for the process to exit.
  void shutdown();

 private:
  void reap(bool force);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  double spawned_at_ = 0.0;
  std::string banner_;
};

/// One request of the timed phase as the client saw it.
struct Served {
  int instance = -1;     ///< index into RunResult::instances
  int round = 0;
  bool expect_hit = false;  ///< answered from a warmed plan: must equal its warm frame
  double first_s = 0.0;     ///< request written -> first complete plan block read
  double final_s = 0.0;     ///< request written -> final plan block read
  bool provisional = false; ///< the first block carried the provisional flag
  std::string first_frame;  ///< kept for provisional answers
  std::string final_frame;  ///< kept for misses; hits are compared as they arrive
  std::string error;        ///< non-empty when the request failed
};

struct RunResult {
  std::vector<InstanceSpec> instances;
  /// First final frame served per instance (the warm-up frame for hits).
  std::map<int, std::string> frame_of;
  std::vector<Served> served;
  std::vector<double> setup_samples;  ///< spawn -> hello, per spawn
  double warmup_s = 0.0;              ///< warm-up races after the last spawn
  double timed_s = 0.0;
  int rounds = 0;
  double server_cpu_s = 0.0;          ///< over the timed phase, warm-up excluded
  double server_peak_rss_mib = 0.0;
  double final_frame_bytes = 0.0;     ///< summed over every final plan frame
  std::map<std::string, std::int64_t> stats;  ///< the stats verb at the end
  std::string banner;
  int client_nice = 0;                ///< effective nice of the timed-phase client
  std::vector<std::string> correctness_errors;
  /// Traced runs only: the transfer probes, i.e. sampled timed-phase
  /// requests replayed as `map` hits, with their client-observed time.
  std::vector<int> probe_instances;
  std::vector<double> probe_loopback_s;
};

struct LoopbackOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string server_binary;
};

/// Runs one workload against a fresh server: set-up (several spawns, then
/// warm-up), the timed phase in whole rounds, the stats verb, and -- when
/// the tracer is on -- the transfer probes. Spans of each request go to
/// `tracer`.
RunResult run_loopback(const LoopbackOptions& options, Tracer& tracer);

}  // namespace servebench
