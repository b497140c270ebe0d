#include "loopback.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "workloads.hpp"

extern char** environ;

namespace servebench {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

constexpr std::string_view kPlanHeader = "gridmap-plan v1\n";
constexpr std::string_view kProvisionalHeader = "gridmap-plan v1 provisional\n";
/// Server spawns per run; setup_s takes their median spawn -> hello time.
constexpr int kSetupSpawns = 21;
/// Nice value of the client threads during the timed phase.
constexpr int kClientNice = -10;
/// A p90 needs at least ten requests beyond it.
constexpr std::size_t kMinRequests = 100;

bool starts_with(const std::string& text, std::string_view prefix) {
  return text.compare(0, prefix.size(), prefix) == 0;
}

/// A port the kernel just handed out for 127.0.0.1, released for the server.
int pick_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    fail("could not find a free port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// "ok shards=1 submitted=9 ..." -> {"shards": 1, "submitted": 9, ...}
std::map<std::string, std::int64_t> parse_stats(const std::string& line) {
  if (!starts_with(line, "ok ")) fail("stats answered: " + line);
  std::map<std::string, std::int64_t> out;
  std::istringstream words(line.substr(3));
  std::string word;
  while (words >> word) {
    const std::size_t eq = word.find('=');
    if (eq == std::string::npos) continue;
    try {
      out[word.substr(0, eq)] = std::stoll(word.substr(eq + 1));
    } catch (const std::exception&) {
      // non-integer gauges (cache_hit_rate) are not needed
    }
  }
  return out;
}

std::uint64_t salt_of(const std::string& workload) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : workload) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h;
}

}  // namespace

// ------------------------------------------------------------ Connection --

namespace {

/// A TCP_NODELAY socket connected to 127.0.0.1:port.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket: " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{};
  timeout.tv_sec = 120;  // no single response may take longer
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    fail("connect to plan_server: " + why);
  }
  return fd;
}

}  // namespace

Connection::Connection(int port) : fd_(connect_loopback(port)), transport_(fd_) {
  std::string hello;
  try {
    hello = read_response();
  } catch (...) {
    ::close(fd_);
    throw;
  }
  if (hello != "GRIDMAP/1\n") {
    ::close(fd_);
    fail("unexpected hello: " + hello);
  }
}

Connection::~Connection() { ::close(fd_); }

void Connection::send_line(const std::string& line) {
  if (!transport_.write_all(line + "\n")) fail("send: " + std::string(std::strerror(errno)));
}

std::string Connection::read_response() {
  static constexpr std::string_view kBlockPrefix = "gridmap-";
  static constexpr std::string_view kBlockEnd = "\nend\n";
  for (;;) {
    // A block's header line is longer than its "gridmap-" prefix, so a
    // newline inside the first few bytes always ends a single-line response.
    const bool block =
        buffer_.size() >= kBlockPrefix.size() && starts_with(buffer_, kBlockPrefix);
    if (block) {
      const std::size_t from = scanned_ >= kBlockEnd.size() ? scanned_ - kBlockEnd.size() : 0;
      const std::size_t end = buffer_.find(kBlockEnd, from);
      if (end != std::string::npos) {
        scanned_ = 0;
        if (end + kBlockEnd.size() == buffer_.size()) return std::exchange(buffer_, {});
        std::string text = buffer_.substr(0, end + kBlockEnd.size());
        buffer_.erase(0, end + kBlockEnd.size());
        return text;
      }
      scanned_ = buffer_.size();
    } else if (const std::size_t newline = buffer_.find('\n'); newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline + 1);
      buffer_.erase(0, newline + 1);
      return line;
    }
    char chunk[1 << 16];
    const long n = transport_.read_some(chunk, sizeof chunk);
    if (n <= 0) fail("plan_server closed the connection or timed out");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

// --------------------------------------------------------- ServerProcess --

ServerProcess::ServerProcess(const std::string& binary) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    port_ = pick_port();
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) fail("pipe: " + std::string(std::strerror(errno)));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    const std::string port = std::to_string(port_);
    char* const argv[] = {const_cast<char*>(binary.c_str()), const_cast<char*>("--tcp"),
                          const_cast<char*>(port.c_str()), nullptr};
    spawned_at_ = wall_s();
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      ::close(out_fd_);
      out_fd_ = -1;
      fail("cannot start " + binary + ": " + std::strerror(rc));
    }
    // The banner is printed after the listener is bound.
    std::string text;
    while (text.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 30000) <= 0) break;
      char chunk[512];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n <= 0) break;
      text.append(chunk, static_cast<std::size_t>(n));
    }
    if (text.find("listening") != std::string::npos) {
      banner_ = text.substr(0, text.find('\n'));
      return;
    }
    reap(/*force=*/true);  // could not bind (port taken in between): try another
  }
  fail("plan_server did not start");
}

ServerProcess::~ServerProcess() { reap(/*force=*/true); }

void ServerProcess::reap(bool force) {
  if (pid_ > 0) {
    if (force) ::kill(pid_, SIGKILL);
    int status = 0;
    for (int waited_ms = 0;; waited_ms += 10) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || r < 0) break;
      if (waited_ms >= 10000) ::kill(pid_, SIGKILL);
      ::usleep(10000);
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

void ServerProcess::shutdown() {
  {
    Connection control(port_);
    control.send_line("shutdown");
    const std::string reply = control.read_response();
    if (reply != "ok bye\n") fail("shutdown answered: " + reply);
  }
  reap(/*force=*/false);
}

double ServerProcess::cpu_s() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) fail("cannot read server CPU time");
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 0; i < 13 && fields >> field; ++i) {
    if (i == 11 || i == 12) ticks += std::stod(field);  // utime, stime
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with(line, "VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  fail("cannot read server VmHWM");
}

// -------------------------------------------------------------- workloads --

namespace {

struct Run {
  const LoopbackOptions& options;
  Tracer& tracer;
  RunResult result;
  std::unique_ptr<ServerProcess> server;
  double timed_cpu0 = 0.0;  // server CPU at the start of the timed phase

  int add_instance(const InstanceSpec& spec) {
    result.instances.push_back(spec);
    return static_cast<int>(result.instances.size()) - 1;
  }

  /// Spawns the server kSetupSpawns times, timing spawn -> hello; keeps the last.
  void spawn() {
    for (int k = 0; k < kSetupSpawns; ++k) {
      server.reset();
      server = std::make_unique<ServerProcess>(options.server_binary);
      { Connection hello(server->port()); }
      result.setup_samples.push_back(wall_s() - server->spawned_at());
      if (k + 1 < kSetupSpawns) server->shutdown();
    }
    result.banner = server->banner();
  }

  /// `map` for each instance on one connection; the frames become the
  /// reference every later hit must equal byte for byte.
  void warm(Connection& conn, const std::vector<int>& instances) {
    const double start = wall_s();
    for (const int i : instances) {
      conn.send_line(result.instances[static_cast<std::size_t>(i)].line("map"));
      std::string frame = conn.read_response();
      if (!starts_with(frame, kPlanHeader)) fail("warm-up request failed: " + frame);
      result.frame_of.emplace(i, std::move(frame));
    }
    result.warmup_s = wall_s() - start;
  }

  /// One request: write, read the first block, and for a provisional block
  /// the revision marker and the final block.
  Served request(Connection& conn, const char* verb, int instance, int round, bool expect_hit,
                 std::int64_t id) {
    Served s;
    s.instance = instance;
    s.round = round;
    s.expect_hit = expect_hit;
    const double t0 = wall_s();
    try {
      conn.send_line(result.instances[static_cast<std::size_t>(instance)].line(verb));
      std::string first = conn.read_response();
      const double t1 = wall_s();
      s.first_s = t1 - t0;
      if (starts_with(first, kProvisionalHeader)) {
        s.provisional = true;
        const std::string marker = conn.read_response();
        if (marker != "revision\n") {
          s.error = "expected revision, got " + marker.substr(0, 80);
        } else {
          s.final_frame = conn.read_response();
          s.first_frame = std::move(first);
        }
      } else {
        s.final_frame = std::move(first);
      }
      s.final_s = wall_s() - t0;
      if (s.error.empty() && !starts_with(s.final_frame, kPlanHeader)) {
        s.error = s.final_frame.substr(0, 120);
      }
      const int root = tracer.record("client.request", t0, t0 + s.final_s, id);
      tracer.record("client.first_block", t0, t1, id, root);
    } catch (const std::exception& e) {
      s.error = e.what();
    }
    return s;
  }

  /// Bookkeeping shared by every answered request: frame size, first final
  /// frame per instance, and the byte-identity check for hits.
  void settle(Served& s) {
    if (!s.error.empty()) return;
    result.final_frame_bytes += static_cast<double>(s.final_frame.size());
    const auto it = result.frame_of.try_emplace(s.instance, s.final_frame).first;
    if (s.expect_hit) {
      if (s.final_frame != it->second) {
        result.correctness_errors.push_back("hit for '" +
                                            result.instances[static_cast<std::size_t>(s.instance)].args() +
                                            "' differs from the first frame served for it");
      }
      s.final_frame.clear();  // verified; nothing more to check
      s.final_frame.shrink_to_fit();
    }
  }

  /// Marks the start of the timed phase, after any warm-up: the server's
  /// CPU is counted from here. Returns the wall-clock start.
  double begin_timed() {
    timed_cpu0 = server->cpu_s();
    return wall_s();
  }

  void end_timed(double start) {
    result.timed_s = wall_s() - start;
    result.server_cpu_s = server->cpu_s() - timed_cpu0;
  }

  bool done(double start) const {
    return wall_s() - start >= options.seconds && result.served.size() >= kMinRequests;
  }

  void cold_sweep(Connection& conn, InstanceGen& gen) {
    const double start = begin_timed();
    for (int round = 0; !done(start); ++round) {
      for (const InstanceSpec& spec : cold_round(gen, round)) {
        Served s = request(conn, "map", add_instance(spec), round, false,
                           static_cast<std::int64_t>(result.served.size()));
        settle(s);
        result.served.push_back(std::move(s));
      }
      result.rounds = round + 1;
    }
    end_timed(start);
  }

  void hot_replay(Connection& conn, InstanceGen& gen) {
    std::vector<int> working_set;
    for (const InstanceSpec& spec : hot_working_set(gen)) working_set.push_back(add_instance(spec));
    warm(conn, working_set);
    const double start = begin_timed();
    for (int round = 0; !done(start); ++round) {
      for (const int slot : hot_round(gen)) {
        Served s = request(conn, "map", working_set[static_cast<std::size_t>(slot)], round, true,
                           static_cast<std::int64_t>(result.served.size()));
        settle(s);
        result.served.push_back(std::move(s));
      }
      result.rounds = round + 1;
    }
    end_timed(start);
  }

  void spec_churn(Connection& warm_conn, InstanceGen& gen) {
    for (const InstanceSpec& spec : churn_hot_set(gen)) add_instance(spec);
    std::vector<int> hot(kChurnHotSet);
    for (int i = 0; i < kChurnHotSet; ++i) hot[i] = i;
    warm(warm_conn, hot);

    std::vector<std::unique_ptr<Connection>> conns;
    for (int c = 0; c < kChurnConnections; ++c) {
      conns.push_back(std::make_unique<Connection>(server->port()));
    }
    std::vector<std::vector<Served>> per_conn(kChurnConnections);
    int round = 0;
    std::size_t step = 0;
    bool stop = false;
    std::vector<ChurnStep> steps = churn_round(gen, round, result.instances);
    const double start = begin_timed();
    // Runs alone between steps while every connection thread waits.
    const auto advance = [&]() noexcept {
      if (++step < steps.size()) return;
      result.rounds = round + 1;
      std::size_t answered = 0;
      for (const auto& v : per_conn) answered += v.size();
      if (wall_s() - start >= options.seconds && answered >= kMinRequests) {
        stop = true;
        return;
      }
      steps = churn_round(gen, ++round, result.instances);
      step = 0;
    };
    std::barrier sync(kChurnConnections, advance);
    std::vector<std::thread> threads;
    for (int c = 0; c < kChurnConnections; ++c) {
      threads.emplace_back([&, c] {
        while (!stop) {
          const ChurnStep& s = steps[step];
          const std::int64_t id =
              static_cast<std::int64_t>(round) * 1000000 + static_cast<std::int64_t>(step) * 10 + c;
          per_conn[static_cast<std::size_t>(c)].push_back(
              request(*conns[static_cast<std::size_t>(c)], "mapspec", s.instance[c], round,
                      s.kind == StepKind::kHit, id));
          sync.arrive_and_wait();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    end_timed(start);
    for (auto& v : per_conn) {
      for (Served& s : v) {
        settle(s);
        result.served.push_back(std::move(s));
      }
    }
    std::stable_sort(result.served.begin(), result.served.end(),
                     [](const Served& a, const Served& b) { return a.round < b.round; });
  }

  /// Replays a sample of the timed requests as `map` hits, timing each on
  /// the client. Only instances the server still caches are sampled: those
  /// of the last rounds, within the cache's 256-plan capacity.
  void transfer_probes(Connection& conn) {
    const int first_round = std::max(0, result.rounds - (options.workload == "cold-sweep" ? 1 : 2));
    std::vector<int> candidates;
    for (const Served& s : result.served) {
      if (s.round >= first_round && s.error.empty() && result.frame_of.count(s.instance)) {
        candidates.push_back(s.instance);
      }
    }
    const std::size_t want = std::min<std::size_t>(200, candidates.size());
    for (std::size_t k = 0; k < want; ++k) {
      const int instance = candidates[k * candidates.size() / want];
      const double t0 = wall_s();
      conn.send_line(result.instances[static_cast<std::size_t>(instance)].line("map"));
      const std::string frame = conn.read_response();
      const double t1 = wall_s();
      tracer.record("client.probe", t0, t1, -1);
      if (frame != result.frame_of.at(instance)) {
        result.correctness_errors.push_back("probe hit differs from the frame served earlier");
      }
      result.probe_instances.push_back(instance);
      result.probe_loopback_s.push_back(t1 - t0);
    }
  }
};

}  // namespace

RunResult run_loopback(const LoopbackOptions& options, Tracer& tracer) {
  Run run{options, tracer, {}, nullptr};
  run.spawn();
  // The client wakes promptly when a frame lands, even while the server's
  // race pool keeps every core busy, so its own scheduling delay stays out
  // of the latencies. Threads started from here on inherit this; the
  // server, spawned above, does not. Without the privilege it stays 0; the
  // nice read back goes into the fingerprint.
  ::setpriority(PRIO_PROCESS, 0, kClientNice);
  errno = 0;
  const int nice = ::getpriority(PRIO_PROCESS, 0);
  run.result.client_nice = errno == 0 ? nice : 0;
  InstanceGen gen(options.seed, salt_of(options.workload));
  {
    Connection conn(run.server->port());
    if (options.workload == "cold-sweep") {
      run.cold_sweep(conn, gen);
    } else if (options.workload == "hot-replay") {
      run.hot_replay(conn, gen);
    } else if (options.workload == "spec-churn") {
      run.spec_churn(conn, gen);
    } else {
      fail("unknown workload " + options.workload);
    }
    conn.send_line("stats");
    run.result.stats = parse_stats(conn.read_response());
    if (tracer.enabled()) run.transfer_probes(conn);
    run.result.server_peak_rss_mib = run.server->peak_rss_mib();
  }
  ::setpriority(PRIO_PROCESS, 0, 0);
  run.server->shutdown();
  return std::move(run.result);
}

}  // namespace servebench
