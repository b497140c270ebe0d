// GRIDMAP/1 wire-protocol conformance and fault-injection tests, driven
// entirely through the Transport interface — no real sockets. A scripted
// in-memory transport replays arbitrary byte sequences (torn frames,
// garbage, oversized lines, NULs, mid-race disconnects, half-open peers)
// through the exact serve_connection loop plan_server runs, proving the
// server always answers with an err frame or a valid response, never
// crashes, and never leaves a shard in a broken state.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/blocked.hpp"
#include "engine/plan_io.hpp"
#include "engine/signature.hpp"
#include "engine/wire.hpp"

namespace gridmap::engine::wire {
namespace {

/// Fake byte-stream: read_some() replays scripted chunks (an empty chunk is
/// one would-block return), then reports EOF — or, when `stop_when_drained`
/// is set, flips that flag and keeps returning would-block like a peer that
/// went half-open. write_all() records everything; writes from
/// `fail_writes_after` onward fail like a vanished peer, and write number
/// `truncate_write_at` lands only its first `truncate_write_bytes` bytes
/// before failing — a frame torn by a mid-write disconnect.
class ScriptedTransport final : public Transport {
 public:
  explicit ScriptedTransport(std::vector<std::string> reads) : reads_(std::move(reads)) {}

  long read_some(char* buffer, std::size_t max) override {
    if (chunk_ >= reads_.size()) {
      if (stop_when_drained != nullptr) {
        stop_when_drained->store(true);
        return -1;  // half-open: never EOF, the stop flag must end the loop
      }
      return 0;  // peer closed
    }
    const std::string& chunk = reads_[chunk_];
    if (chunk.empty()) {
      ++chunk_;
      return -1;  // scripted would-block/timeout
    }
    const std::size_t n = std::min(max, chunk.size() - offset_);
    std::memcpy(buffer, chunk.data() + offset_, n);
    offset_ += n;
    if (offset_ == chunk.size()) {
      ++chunk_;
      offset_ = 0;
    }
    return static_cast<long>(n);
  }

  bool write_all(std::string_view text) override {
    if (truncate_write_at >= 0 && writes_done_ == truncate_write_at) {
      ++writes_done_;
      written += text.substr(0, std::min(truncate_write_bytes, text.size()));
      return false;  // the tail of this frame never reached the peer
    }
    if (fail_writes_after >= 0 && writes_done_ >= fail_writes_after) {
      ++writes_done_;
      return false;
    }
    ++writes_done_;
    written += text;
    if (stop_after_write != nullptr && writes_done_ >= stop_after_write_count) {
      stop_after_write->store(true);  // e.g. SIGTERM lands mid-response
    }
    return true;
  }

  std::string written;
  int fail_writes_after = -1;                     ///< -1: writes never fail
  int truncate_write_at = -1;                     ///< write N tears mid-frame
  std::size_t truncate_write_bytes = 0;           ///< bytes landed before the tear
  std::atomic<bool>* stop_when_drained = nullptr; ///< half-open peer mode
  std::atomic<bool>* stop_after_write = nullptr;  ///< raise stop at write N
  int stop_after_write_count = 0;

 private:
  std::vector<std::string> reads_;
  std::size_t chunk_ = 0;
  std::size_t offset_ = 0;
  int writes_done_ = 0;
};

/// Splits `text` into 1-byte chunks — maximally torn framing.
std::vector<std::string> torn(const std::string& text) {
  std::vector<std::string> chunks;
  for (const char c : text) chunks.emplace_back(1, c);
  return chunks;
}

MapperRegistry tiny_registry() {
  MapperRegistry registry;
  registry.add("blocked", [] { return std::make_unique<BlockedMapper>(); });
  return registry;
}

/// Small sharded service for protocol tests: 1 backend, fast races.
std::unique_ptr<ShardedService> tiny_service(int shards = 2) {
  EngineOptions engine_options;
  engine_options.threads = 1;
  return std::make_unique<ShardedService>(tiny_registry(), engine_options,
                                          ServiceOptions{}, shards);
}

/// Deliberately slow cooperative mapper (test_service idiom): spins for
/// `spin` wall time while polling the ExecContext, then returns the
/// identity mapping — so its plan is a pure function of the grid, never of
/// the spin time.
class SlowMapper final : public Mapper {
 public:
  using Mapper::remap;

  explicit SlowMapper(std::chrono::milliseconds spin) : spin_(spin) {}

  std::string_view name() const noexcept override { return "Slow"; }

  Remapping remap(const CartesianGrid& grid, const Stencil& /*stencil*/,
                  const NodeAllocation& /*alloc*/, ExecContext& ctx) const override {
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start < spin_) ctx.checkpoint();
    return Remapping::identity(grid);
  }

 private:
  std::chrono::milliseconds spin_;
};

/// blocked + a slow backend: every full race takes at least `spin`, while a
/// speculation pass (cheapest-first: blocked) returns in microseconds — so
/// a mapspec miss deterministically takes the provisional-then-revision
/// path instead of racing to a final answer before the handler looks.
MapperRegistry slow_registry(std::chrono::milliseconds spin) {
  MapperRegistry registry;
  registry.add("blocked", [] { return std::make_unique<BlockedMapper>(); });
  registry.add("slow", [spin] { return std::make_unique<SlowMapper>(spin); });
  return registry;
}

std::unique_ptr<ShardedService> slow_service(std::chrono::milliseconds spin,
                                             int shards = 1) {
  EngineOptions engine_options;
  engine_options.threads = 1;
  return std::make_unique<ShardedService>(slow_registry(spin), engine_options,
                                          ServiceOptions{}, shards);
}

/// Runs serve_connection over a scripted transport against `service`.
ConnectionEnd serve(ScriptedTransport& transport, ShardedService& service,
                    std::atomic<bool>* stop = nullptr,
                    const std::function<void()>& on_shutdown = nullptr) {
  std::atomic<bool> local_stop{false};
  return serve_connection(transport, service, stop != nullptr ? *stop : local_stop,
                          on_shutdown);
}

// ------------------------------------------------------------- line buffer --

TEST(WireLineBuffer, ReassemblesLinesTornAtEveryByte) {
  LineBuffer lines;
  const std::string text = "map 6x8 00 nn 6 8\nstats\n";
  std::vector<std::string> got;
  for (const char byte : text) {
    lines.feed(std::string_view(&byte, 1));
    std::string line;
    while (lines.next(line) == LineBuffer::Status::kLine) got.push_back(line);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "map 6x8 00 nn 6 8");
  EXPECT_EQ(got[1], "stats");
  EXPECT_EQ(lines.buffered(), 0u);
}

TEST(WireLineBuffer, SplitsMultipleLinesFromOneChunk) {
  LineBuffer lines;
  lines.feed("a\nbb\n\nccc\n");
  std::string line;
  ASSERT_EQ(lines.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, "a");
  ASSERT_EQ(lines.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, "bb");
  ASSERT_EQ(lines.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, "");  // blank line is a line; serve loop skips it
  ASSERT_EQ(lines.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, "ccc");
  EXPECT_EQ(lines.next(line), LineBuffer::Status::kNeedMore);
}

TEST(WireLineBuffer, OversizedLineTripsTooLongAndSticks) {
  LineBuffer lines(16);
  lines.feed(std::string(17, 'a'));  // no newline, already over the cap
  std::string line;
  EXPECT_EQ(lines.next(line), LineBuffer::Status::kTooLong);
  // The fault sticks and the buffer is discarded — memory stays bounded.
  EXPECT_EQ(lines.buffered(), 0u);
  lines.feed("short\n");
  EXPECT_EQ(lines.next(line), LineBuffer::Status::kTooLong);
}

TEST(WireLineBuffer, OversizedTerminatedLineAlsoTrips) {
  LineBuffer lines(8);
  lines.feed("123456789\n");  // newline present but line exceeds the cap
  std::string line;
  EXPECT_EQ(lines.next(line), LineBuffer::Status::kTooLong);
}

TEST(WireLineBuffer, LineExactlyAtCapStillParses) {
  LineBuffer lines(8);
  lines.feed("1234567\n");  // 7 bytes + '\n' == cap
  std::string line;
  ASSERT_EQ(lines.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, "1234567");
}

TEST(WireLineBuffer, EmbeddedNulTripsBadByteAndSticks) {
  LineBuffer lines;
  lines.feed(std::string_view("sta\0ts\n", 7));
  std::string line;
  EXPECT_EQ(lines.next(line), LineBuffer::Status::kBadByte);
  EXPECT_EQ(lines.buffered(), 0u);
  lines.feed("stats\n");
  EXPECT_EQ(lines.next(line), LineBuffer::Status::kBadByte);
}

TEST(WireLineBuffer, MemoryStaysBoundedUnderEndlessGarbage) {
  LineBuffer lines;
  for (int i = 0; i < 1024; ++i) {
    lines.feed(std::string(4096, 'x'));  // 4 MiB of newline-free garbage
    std::string line;
    (void)lines.next(line);
    EXPECT_LE(lines.buffered(), kMaxRequestLine + 4096);
  }
}

// ---------------------------------------------------------- request parsing --

TEST(WireParse, MapRequestParsesDimsPeriodicityStencilAndPriority) {
  std::istringstream args("16x12x8 010 hops 32 48 high");
  const MapRequest request = parse_map_request(args);
  EXPECT_EQ(request.instance.grid.dims(), (Dims{16, 12, 8}));
  EXPECT_FALSE(request.instance.grid.periodic(0));
  EXPECT_TRUE(request.instance.grid.periodic(1));
  EXPECT_EQ(request.instance.alloc.num_nodes(), 32);
  EXPECT_EQ(request.priority, Priority::kHigh);
}

TEST(WireParse, MapRequestDefaultsToNormalPriority) {
  std::istringstream args("6x8 00 nn 6 8");
  EXPECT_EQ(parse_map_request(args).priority, Priority::kNormal);
}

TEST(WireParse, MalformedMapRequestsThrowInvalidArgument) {
  const std::vector<std::string> bad = {
      "",                          // empty
      "6x8 00 nn 6",               // missing ppn
      "6x 00 nn 6 8",              // bad dims
      "x8 00 nn 6 8",              // bad dims
      "6x8 0 nn 6 8",              // periodic-bits length mismatch
      "6x8 02 nn 6 8",             // periodic-bits not 0/1
      "6x8 00 diag 6 8",           // unknown stencil
      "6x8 00 nn 0 8",             // non-positive nodes
      "6x8 00 nn 6 -1",            // negative ppn
      "6x8 00 nn 6 8 urgent",      // unknown priority
      "6x8 00 nn 6 8 high extra",  // trailing junk
      "6x9999999999 00 nn 6 8",    // dims digit-cap
  };
  for (const std::string& args_text : bad) {
    std::istringstream args(args_text);
    EXPECT_THROW((void)parse_map_request(args), std::invalid_argument)
        << "accepted: \"" << args_text << '"';
  }
}

// --------------------------------------------------------- request handling --

TEST(WireHandle, MapReturnsAPlanBitIdenticalToTheDirectEngine) {
  auto service = tiny_service(3);
  bool want_shutdown = false;
  const std::string response =
      handle_request(*service, "map 6x8 00 nn 6 8", want_shutdown);
  EXPECT_FALSE(want_shutdown);
  ASSERT_EQ(response.rfind("gridmap-plan", 0), 0u) << response;

  EngineOptions engine_options;
  engine_options.threads = 1;
  PortfolioEngine direct(tiny_registry(), engine_options);
  const CartesianGrid grid({6, 8});
  const auto plan =
      direct.map(grid, Stencil::nearest_neighbor(2), NodeAllocation::homogeneous(6, 8));
  EXPECT_EQ(response, serialize_plan(*plan));
  EXPECT_EQ(parse_plan(response), *plan);
}

TEST(WireHandle, StatsReportsAggregatedCountersWithShardCount) {
  auto service = tiny_service(4);
  bool want_shutdown = false;
  (void)handle_request(*service, "map 6x8 00 nn 6 8", want_shutdown);
  const std::string stats = handle_request(*service, "stats", want_shutdown);
  EXPECT_EQ(stats.rfind("ok shards=4 ", 0), 0u) << stats;
  EXPECT_NE(stats.find("submitted=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("completed=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("mapper_runs="), std::string::npos) << stats;
}

TEST(WireHandle, UnknownCommandAndBadRequestBecomeErrFramesNotExceptions) {
  auto service = tiny_service();
  bool want_shutdown = false;
  EXPECT_EQ(handle_request(*service, "frobnicate", want_shutdown)
                .rfind("err unknown-command", 0),
            0u);
  EXPECT_EQ(handle_request(*service, "map nonsense", want_shutdown)
                .rfind("err bad-request", 0),
            0u);
  EXPECT_EQ(handle_request(*service, "map 6x8 00 nn 6", want_shutdown)
                .rfind("err bad-request", 0),
            0u);
  EXPECT_FALSE(want_shutdown);
  // The service survived every malformed request and still serves.
  EXPECT_EQ(handle_request(*service, "map 4x4 00 nn 4 4", want_shutdown)
                .rfind("gridmap-plan", 0),
            0u);
}

TEST(WireHandle, ShutdownCommandSetsTheFlagAndAcksBye) {
  auto service = tiny_service();
  bool want_shutdown = false;
  EXPECT_EQ(handle_request(*service, "shutdown", want_shutdown), "ok bye\n");
  EXPECT_TRUE(want_shutdown);
}

// -------------------------------------------------- serve_connection: happy --

TEST(WireServe, FullSessionHelloRequestResponseEof) {
  auto service = tiny_service();
  ScriptedTransport transport({"map 6x8 00 nn 6 8\n"});
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kEof);
  // hello first, then the plan block.
  ASSERT_EQ(transport.written.rfind(hello_line(), 0), 0u);
  const std::string body = transport.written.substr(hello_line().size());
  EXPECT_EQ(body.rfind("gridmap-plan", 0), 0u);
  EXPECT_NE(body.find("\nend\n"), std::string::npos);
}

TEST(WireServe, TornFramesByteAtATimeStillServe) {
  auto service = tiny_service();
  ScriptedTransport transport(torn("map 6x8 00 nn 6 8\nstats\n"));
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kEof);
  EXPECT_NE(transport.written.find("gridmap-plan"), std::string::npos);
  EXPECT_NE(transport.written.find("ok shards="), std::string::npos);
}

TEST(WireServe, WouldBlockTimeoutsBetweenBytesAreHarmless) {
  auto service = tiny_service();
  // Every byte separated by a scripted read timeout (empty chunk).
  std::vector<std::string> reads;
  for (const char c : std::string("stats\n")) {
    reads.emplace_back();  // would-block
    reads.emplace_back(1, c);
  }
  ScriptedTransport transport(std::move(reads));
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kEof);
  EXPECT_NE(transport.written.find("ok shards="), std::string::npos);
}

TEST(WireServe, ShutdownCommandInvokesCallbackAndEndsConnection) {
  auto service = tiny_service();
  ScriptedTransport transport({"shutdown\n", "stats\n"});
  bool shutdown_requested = false;
  EXPECT_EQ(serve(transport, *service, nullptr,
                  [&shutdown_requested] { shutdown_requested = true; }),
            ConnectionEnd::kShutdown);
  EXPECT_TRUE(shutdown_requested);
  // The connection ended at the shutdown ack; the trailing stats line was
  // never served.
  EXPECT_NE(transport.written.find("ok bye"), std::string::npos);
  EXPECT_EQ(transport.written.find("ok shards="), std::string::npos);
}

// ------------------------------------------------- serve_connection: faults --

TEST(WireServe, GarbageBytesGetErrAndTheConnectionContinues) {
  auto service = tiny_service();
  ScriptedTransport transport({"\x01\x02garbage\x7f\n", "stats\n"});
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kEof);
  EXPECT_NE(transport.written.find("err unknown-command"), std::string::npos);
  // A garbage *line* is an application error, not a framing fault — the
  // next request on the same connection still works.
  EXPECT_NE(transport.written.find("ok shards="), std::string::npos);
}

TEST(WireServe, OversizedLineGetsErrTooLongAndCloses) {
  auto service = tiny_service();
  ScriptedTransport transport({std::string(kMaxRequestLine + 10, 'a'), "\nstats\n"});
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kTooLong);
  EXPECT_NE(transport.written.find("err too-long"), std::string::npos);
  EXPECT_EQ(transport.written.find("ok shards="), std::string::npos);
}

TEST(WireServe, EmbeddedNulGetsErrBadByteAndCloses) {
  auto service = tiny_service();
  ScriptedTransport transport({std::string("sta\0ts\n", 7)});
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kBadByte);
  EXPECT_NE(transport.written.find("err bad-byte"), std::string::npos);
}

TEST(WireServe, EofMidFrameEndsCleanlyWithoutAResponse) {
  auto service = tiny_service();
  ScriptedTransport transport({"map 6x8 00 n"});  // torn request, then EOF
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kEof);
  EXPECT_EQ(transport.written, hello_line());  // hello only, no err, no crash
  // No request was admitted for the torn frame.
  EXPECT_EQ(service->counters().submitted, 0u);
}

TEST(WireServe, MidRaceDisconnectCompletesTheRaceAndLeavesShardsHealthy) {
  auto service = tiny_service();
  ScriptedTransport transport({"map 6x8 00 nn 6 8\n"});
  transport.fail_writes_after = 1;  // hello succeeds, the response write fails
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kPeerGone);

  // The race ran to completion inside its shard (the peer just never saw
  // the plan) and warmed the shard's cache.
  const ServiceCounters after = service->counters();
  EXPECT_EQ(after.completed, 1u);
  EXPECT_EQ(after.failed, 0u);
  EXPECT_EQ(after.in_flight, 0u);

  // A fresh connection is served normally — and the same signature now hits
  // the cache the doomed connection warmed.
  ScriptedTransport retry({"map 6x8 00 nn 6 8\n"});
  EXPECT_EQ(serve(retry, *service), ConnectionEnd::kEof);
  EXPECT_NE(retry.written.find("gridmap-plan"), std::string::npos);
  EXPECT_EQ(service->counters().cache_hits, 1u);
}

TEST(WireServe, HalfOpenPeerIsEndedByTheStopFlagNotALockup) {
  auto service = tiny_service();
  // The peer sends one request then goes silent without closing: reads keep
  // timing out. When the script drains, the transport raises the server's
  // stop flag — the loop must notice it and end with kStop, not spin or
  // block forever.
  std::atomic<bool> stop{false};
  ScriptedTransport transport({"stats\n"});
  transport.stop_when_drained = &stop;
  EXPECT_EQ(serve(transport, *service, &stop), ConnectionEnd::kStop);
  EXPECT_NE(transport.written.find("ok shards="), std::string::npos);
}

TEST(WireServe, StopAfterResponseDrainsInsteadOfServingForever) {
  auto service = tiny_service();
  std::atomic<bool> stop{false};
  // Both request lines arrive in one chunk; the server-wide stop flag is
  // raised while the first response is being written (SIGTERM mid-reply).
  ScriptedTransport transport({"stats\nstats\n"});
  transport.stop_after_write = &stop;
  transport.stop_after_write_count = 2;  // write 1 is the hello, 2 the response
  // The in-progress request is answered (graceful drain, not an abrupt
  // cut), but the second buffered line is never served.
  EXPECT_EQ(serve(transport, *service, &stop), ConnectionEnd::kStop);
  const std::size_t first = transport.written.find("ok shards=");
  EXPECT_NE(first, std::string::npos);
  EXPECT_EQ(transport.written.find("ok shards=", first + 1), std::string::npos);
}

TEST(WireServe, StopBeforeAnyRequestEndsTheConnectionImmediately) {
  auto service = tiny_service();
  std::atomic<bool> stop{true};  // shutdown already requested at accept time
  ScriptedTransport transport({"stats\n"});
  EXPECT_EQ(serve(transport, *service, &stop), ConnectionEnd::kStop);
  EXPECT_EQ(transport.written, hello_line());  // nothing was served
  EXPECT_EQ(service->counters().submitted, 0u);
}

// -------------------------------------------------------------- error frames --

TEST(WireFrames, ErrorFramesAreOneLineWithClosedCodeSet) {
  EXPECT_EQ(error_frame(ErrorCode::kTooLong, "way too big"),
            "err too-long way too big\n");
  EXPECT_EQ(error_frame(ErrorCode::kBusy, "queue-full"), "err busy queue-full\n");
  EXPECT_EQ(error_frame(ErrorCode::kInternal, ""), "err internal\n");
  // Newlines in details are flattened — a frame can never smuggle framing.
  EXPECT_EQ(error_frame(ErrorCode::kBadRequest, "multi\nline\rdetail"),
            "err bad-request multi line detail\n");
}

TEST(WireFrames, HelloAnnouncesTheProtocolVersion) {
  EXPECT_EQ(hello_line(), "GRIDMAP/1\n");
  EXPECT_EQ(kProtocol, "GRIDMAP/1");
}

// ------------------------------------------------------------- metrics verb --

TEST(WireMetrics, MetricsVerbReturnsAFramedPrometheusBlock) {
  auto service = tiny_service(2);
  bool want_shutdown = false;
  (void)handle_request(*service, "map 6x8 00 nn 6 8", want_shutdown);

  const std::string frame = handle_request(*service, "metrics", want_shutdown);
  // Frame golden format: versioned header line, exposition body, bare "end"
  // terminator — the same read-until-"\nend\n" block logic plan frames use.
  EXPECT_EQ(frame.rfind("gridmap-metrics v1\n", 0), 0u) << frame;
  ASSERT_GE(frame.size(), 4u);
  EXPECT_EQ(frame.substr(frame.size() - 5), "\nend\n");
  EXPECT_FALSE(want_shutdown);

  const std::string body =
      frame.substr(std::string("gridmap-metrics v1\n").size(),
                   frame.size() - std::string("gridmap-metrics v1\n").size() - 4);
  // The acceptance surface, socket-free: request quantiles by outcome,
  // queue-wait histogram, per-backend remap histogram, per-shard queue
  // depth, and the shard-count gauge.
  EXPECT_NE(body.find("# TYPE gridmap_request_seconds summary"), std::string::npos);
  EXPECT_NE(body.find("gridmap_request_seconds{outcome=\"race\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(body.find("gridmap_queue_wait_seconds_count"), std::string::npos);
  EXPECT_NE(body.find("gridmap_backend_remap_seconds{backend=\"blocked\""),
            std::string::npos);
  EXPECT_NE(body.find("gridmap_queue_depth{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(body.find("gridmap_queue_depth{shard=\"1\"}"), std::string::npos);
  EXPECT_NE(body.find("gridmap_shards 2"), std::string::npos);
  // No exposition line can collide with the frame terminator.
  EXPECT_EQ(body.find("\nend\n"), std::string::npos);
}

TEST(WireMetrics, MetricsBlockIsServedOverTheConnectionLoop) {
  auto service = tiny_service();
  ScriptedTransport transport({"map 6x8 00 nn 6 8\n", "metrics\n"});
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kEof);
  const std::size_t header = transport.written.find("gridmap-metrics v1\n");
  ASSERT_NE(header, std::string::npos);
  EXPECT_NE(transport.written.find("gridmap_service_requests_total", header),
            std::string::npos);
  EXPECT_EQ(transport.written.substr(transport.written.size() - 5), "\nend\n");
}

// ------------------------------------------ two-tier speculative mapspec (PR 10) --

TEST(WireSpec, MapspecMissPushesProvisionalThenFinalRevision) {
  using std::chrono::milliseconds;
  auto service = slow_service(milliseconds(200));
  ScriptedTransport transport({"mapspec 6x8 00 nn 6 8\n"});
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kEof);

  ASSERT_EQ(transport.written.rfind(hello_line(), 0), 0u);
  const std::string body = transport.written.substr(hello_line().size());
  // Immediate answer: a plan block whose header carries the provisional flag.
  ASSERT_EQ(body.rfind(std::string(kProvisionalHeader) + "\n", 0), 0u) << body;
  const std::size_t marker = body.find("end\nrevision\n");
  ASSERT_NE(marker, std::string::npos) << body;
  std::string provisional = body.substr(0, marker + 4);
  const std::string final_frame = body.substr(marker + 4 + std::string("revision\n").size());

  // Stripping the flag word recovers a frame parse_plan accepts.
  provisional.erase(provisional.find(" provisional"), std::string(" provisional").size());
  const MappingPlan early = parse_plan(provisional);
  EXPECT_EQ(early.mapper, "blocked");  // cold history: cheapest-first speculation

  // Determinism pin: the pushed final is bit-identical to a direct engine
  // race over the same registry and options. (SlowMapper's plan does not
  // depend on its spin time, so a 1 ms twin registry keeps the test fast.)
  EngineOptions engine_options;
  engine_options.threads = 1;
  PortfolioEngine direct(slow_registry(milliseconds(1)), engine_options);
  const auto direct_plan = direct.map(CartesianGrid({6, 8}), Stencil::nearest_neighbor(2),
                                      NodeAllocation::homogeneous(6, 8));
  EXPECT_EQ(final_frame, serialize_plan(*direct_plan));
  EXPECT_EQ(parse_plan(final_frame), *direct_plan);

  const ServiceCounters c = service->counters();
  EXPECT_EQ(c.speculated, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.failed, 0u);
}

TEST(WireSpec, MapspecOnAWarmCacheAnswersWithOneFinalFrame) {
  auto service = tiny_service();
  bool want_shutdown = false;
  const std::string warm = handle_request(*service, "map 6x8 00 nn 6 8", want_shutdown);
  const std::string response =
      handle_request(*service, "mapspec 6x8 00 nn 6 8", want_shutdown);
  EXPECT_EQ(response, warm);  // one plain block, bit-identical to the map frame
  EXPECT_EQ(response.find("provisional"), std::string::npos);
  EXPECT_EQ(response.find("revision"), std::string::npos);
  EXPECT_EQ(service->counters().cache_hits, 1u);
}

TEST(WireSpec, PeerVanishingBeforeTheRevisionOnlyLosesTheWrite) {
  using std::chrono::milliseconds;
  auto service = slow_service(milliseconds(200));
  ScriptedTransport transport({"mapspec 6x8 00 nn 6 8\n"});
  transport.fail_writes_after = 2;  // hello + provisional land, the revision fails
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kPeerGone);
  EXPECT_NE(transport.written.find(std::string(kProvisionalHeader) + "\n"),
            std::string::npos);
  EXPECT_EQ(transport.written.find("revision"), std::string::npos);

  // The background race still completed inside the service (the doomed peer
  // only lost the push) and warmed the cache: a fresh connection's mapspec
  // for the same instance is answered with one plain final frame.
  const ServiceCounters after = service->counters();
  EXPECT_EQ(after.completed, 1u);
  EXPECT_EQ(after.failed, 0u);
  ScriptedTransport retry({"mapspec 6x8 00 nn 6 8\n"});
  EXPECT_EQ(serve(retry, *service), ConnectionEnd::kEof);
  const std::string body = retry.written.substr(hello_line().size());
  EXPECT_EQ(body.rfind("gridmap-plan v1\n", 0), 0u) << body;
  EXPECT_EQ(body.find("provisional"), std::string::npos);
  EXPECT_EQ(service->counters().cache_hits, 1u);
}

TEST(WireSpec, TornRevisionWriteEndsTheConnectionNotTheShard) {
  using std::chrono::milliseconds;
  auto service = slow_service(milliseconds(200));
  ScriptedTransport transport({"mapspec 6x8 00 nn 6 8\n"});
  transport.truncate_write_at = 2;      // the revision push (hello=0, provisional=1)...
  transport.truncate_write_bytes = 12;  // ...tears mid-frame: "revision\ngri"
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kPeerGone);
  // Exactly the torn prefix went out after the provisional block's "end".
  const std::size_t end = transport.written.find("end\n");
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(transport.written.substr(end + 4), "revision\ngri");

  // The shard stayed healthy: a new connection races a fresh instance fine.
  ScriptedTransport next({"map 4x4 00 nn 4 4\n"});
  EXPECT_EQ(serve(next, *service), ConnectionEnd::kEof);
  EXPECT_NE(next.written.find("gridmap-plan"), std::string::npos);
  EXPECT_EQ(service->counters().failed, 0u);
}

// ---------------------------------------------------- encode-once serving --
// A plan's frame is encoded once, when the plan is built; every later serve
// writes those stored bytes. The pins below edit a served plan's fields
// behind the cache's back: a path that re-encoded would serve the edit, a
// path that writes the stored frame serves the committed bytes. seal_plan
// allocates a non-const MappingPlan, so these writes are well-defined; each
// happens while no other thread reads the plan, and is undone afterwards.

/// The cached plan of the instance `args` names, on a one-shard service.
std::shared_ptr<const MappingPlan> cached_plan(ShardedService& service, const std::string& args) {
  std::istringstream in(args);
  const MapRequest request = parse_map_request(in);
  const Instance& inst = request.instance;
  return service.shard(0).engine().cached(
      instance_signature(inst.grid, inst.stencil, inst.alloc, service.objective()));
}

/// `frame` with its header line rewritten as the provisional header.
std::string provisional_of(const std::string& frame) {
  return std::string(kProvisionalHeader) + frame.substr(frame.find('\n'));
}

TEST(WireEncodeOnce, MapAndMapspecHitsWriteTheCommittedPlansStoredFrame) {
  auto service = tiny_service(1);
  bool want_shutdown = false;
  const std::string miss = handle_request(*service, "map 6x8 00 nn 6 8", want_shutdown);
  const auto plan = cached_plan(*service, "6x8 00 nn 6 8");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(miss, plan->frame());
  EXPECT_EQ(plan->frame(), serialize_plan(*plan));

  MappingPlan& edited = const_cast<MappingPlan&>(*plan);
  edited.jsum += 1;
  edited.cell_of_rank.front() += 1000;
  ASSERT_NE(serialize_plan(*plan), plan->frame());
  EXPECT_EQ(handle_request(*service, "map 6x8 00 nn 6 8", want_shutdown), miss);
  EXPECT_EQ(handle_request(*service, "mapspec 6x8 00 nn 6 8", want_shutdown), miss);
  edited.jsum -= 1;
  edited.cell_of_rank.front() -= 1000;
  EXPECT_EQ(serialize_plan(*plan), miss);
  EXPECT_EQ(service->counters().cache_hits, 2u);
}

TEST(WireEncodeOnce, ThreeMapspecTwinsReceiveOneSharedEncodedFinal) {
  using std::chrono::milliseconds;
  auto service = slow_service(milliseconds(300));
  const std::string line = "mapspec 6x8 00 nn 6 8";
  std::vector<Response> responses(3);
  std::vector<std::thread> twins;
  for (Response& response : responses) {
    twins.emplace_back([&service, &line, &response] {
      bool want_shutdown = false;
      response = handle_request_ex(*service, line, want_shutdown);
    });
  }
  for (std::thread& twin : twins) twin.join();
  ASSERT_EQ(service->counters().deduped, 2u) << "the twins did not join one race";
  for (const Response& response : responses) {
    ASSERT_TRUE(response.follow_up) << "a twin was answered final before the race ended";
    EXPECT_EQ(response.immediate, responses[0].immediate);  // one shared provisional plan
    EXPECT_EQ(response.immediate.rfind(std::string(kProvisionalHeader) + "\n", 0), 0u);
  }

  // Wait for the race to be delivered (the service reads the final plan's
  // costs under its lock before counting the completion), then edit it.
  while (service->counters().completed == 0) std::this_thread::sleep_for(milliseconds(5));
  const auto plan = cached_plan(*service, "6x8 00 nn 6 8");
  ASSERT_NE(plan, nullptr);
  const std::string committed = plan->frame();
  MappingPlan& edited = const_cast<MappingPlan&>(*plan);
  edited.jmax += 1;
  for (Response& response : responses) {
    EXPECT_EQ(response.follow_up(), std::string(kRevisionLine) + "\n" + committed);
  }
  edited.jmax -= 1;
  EXPECT_EQ(serialize_plan(*plan), committed);
  EXPECT_EQ(service->counters().completed, 1u);
}

TEST(WireEncodeOnce, ConcurrentHitsAndTwinsServeDirectEngineFramesByteForByte) {
  const std::vector<std::string> instances = {"6x8 00 nn 6 8", "8x8 11 hops 8 8",
                                              "12x16 01 component 16 12",
                                              "4x6x8 000 nn 12 16"};
  // Reference frames: the reference encoder over plans a direct engine
  // computes with the service's registry and options.
  EngineOptions engine_options;
  engine_options.threads = 1;
  PortfolioEngine direct(tiny_registry(), engine_options);
  std::vector<std::string> expected;
  for (const std::string& args : instances) {
    std::istringstream in(args);
    const MapRequest request = parse_map_request(in);
    const Instance& inst = request.instance;
    expected.push_back(serialize_plan(*direct.map(inst.grid, inst.stencil, inst.alloc)));
  }

  auto service = tiny_service(2);
  constexpr int kThreads = 8;
  constexpr int kRequests = 40;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < kRequests; ++k) {
        // Every thread starts on the same instance, so the first requests
        // are single-flight twins; later ones are cache hits.
        const std::size_t i = static_cast<std::size_t>(k / 2) % instances.size();
        const bool spec = (t + k) % 2 == 0;
        bool want_shutdown = false;
        const std::string got = handle_request(
            *service, (spec ? "mapspec " : "map ") + instances[i], want_shutdown);
        const bool ok = got == expected[i] ||
                        (spec && got == provisional_of(expected[i]) +
                                            std::string(kRevisionLine) + "\n" + expected[i]);
        if (!ok) bad.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(bad.load(), 0);
  const ServiceCounters c = service->counters();
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(c.completed + c.cache_hits + c.deduped, c.submitted);
  EXPECT_GT(c.cache_hits, 0u);
}

// ----------------------------------------------- mixed-version interop (PR 6) --

TEST(WireInterop, PrePr6ClientSessionsStillInteroperate) {
  // Conformance pin: a client built before the `metrics` verb existed
  // speaks exactly hello + map/stats/shutdown. Nothing in those frames may
  // change — same hello, same plan block, same stats line shape, same ack.
  auto service = tiny_service();
  ScriptedTransport transport(
      {"map 6x8 00 nn 6 8\n", "stats\n", "shutdown\n"});
  bool shutdown_seen = false;
  EXPECT_EQ(serve(transport, *service, nullptr, [&shutdown_seen] { shutdown_seen = true; }),
            ConnectionEnd::kShutdown);
  EXPECT_TRUE(shutdown_seen);
  ASSERT_EQ(transport.written.rfind(hello_line(), 0), 0u);
  const std::string body = transport.written.substr(hello_line().size());
  EXPECT_EQ(body.rfind("gridmap-plan", 0), 0u);
  EXPECT_NE(body.find("\nok shards=2 "), std::string::npos);
  EXPECT_NE(body.find("\nok bye\n"), std::string::npos);
}

TEST(WireInterop, UnknownFutureVerbKeepsTheConnectionOpen) {
  // The kUnknownCommand contract (wire.hpp / FORMATS.md err table): the
  // command set may grow within GRIDMAP/1, so an old server answers a
  // future verb with err unknown-command and KEEPS SERVING — a new client
  // against an old server degrades gracefully instead of disconnecting.
  auto service = tiny_service();
  ScriptedTransport transport({"flux_capacitance\n", "map 4x4 00 nn 4 4\n"});
  EXPECT_EQ(serve(transport, *service), ConnectionEnd::kEof);
  const std::size_t err = transport.written.find("err unknown-command");
  ASSERT_NE(err, std::string::npos);
  // The detail names the supported verbs (now including mapspec), and the
  // next request on the same connection is still served.
  EXPECT_NE(transport.written.find("want map|mapspec|stats|metrics|shutdown"),
            std::string::npos);
  EXPECT_NE(transport.written.find("gridmap-plan", err), std::string::npos);
}

TEST(WireInterop, PrePr10MapOnlySessionIsUnaffectedBySpeculativeTraffic) {
  // Verb-growth contract for PR 10: a client that never sends mapspec sees
  // exactly the frames it always saw — plain plan blocks, no provisional
  // flag, no unsolicited revision push — even when another connection used
  // the two-tier path against the same service and warmed its caches.
  auto service = slow_service(std::chrono::milliseconds(50));
  ScriptedTransport spec({"mapspec 6x8 00 nn 6 8\n"});
  EXPECT_EQ(serve(spec, *service), ConnectionEnd::kEof);

  ScriptedTransport old({"map 6x8 00 nn 6 8\n", "map 5x4 00 nn 5 4\n"});
  EXPECT_EQ(serve(old, *service), ConnectionEnd::kEof);
  const std::string body = old.written.substr(hello_line().size());
  EXPECT_EQ(body.rfind("gridmap-plan v1\n", 0), 0u) << body;  // hit: a plain frame
  EXPECT_EQ(body.find("provisional"), std::string::npos);
  EXPECT_EQ(body.find("revision"), std::string::npos);
}

}  // namespace
}  // namespace gridmap::engine::wire
