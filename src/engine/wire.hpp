// Wire protocol of the plan service — GRIDMAP/1, a versioned line-framed
// protocol shared by plan_server, plan_client, and the in-process
// fake-transport test harness (tests/test_wire.cpp):
//
//   hello     — on connect the server sends one "GRIDMAP/1\n" line before
//               anything else, so clients can reject a version mismatch
//               instead of misparsing frames.
//   requests  — single '\n'-terminated lines ("map ...", "mapspec ...",
//               "stats", "metrics", "shutdown"), at most kMaxRequestLine
//               bytes and never containing NUL. An oversized or NUL-bearing
//               line is answered with "err too-long ..." / "err bad-byte ..."
//               and the connection is closed — the parser never buffers
//               unboundedly.
//   responses — one "ok ..." line, one "err <code> <detail>" line, or a
//               block response terminated by its "end" line: a plan block in
//               plan_io text form ("map"), or a "gridmap-metrics v1" block
//               carrying Prometheus-style text exposition ("metrics").
//               Error codes are the closed set in ErrorCode.
//   mapspec   — the two-tier speculative verb (same arguments as "map"). A
//               cache hit answers with one plain plan block. A miss answers
//               immediately with a plan block whose header carries the
//               `provisional` flag ("gridmap-plan v1 provisional"), then —
//               on the same connection, once the background race finishes —
//               pushes a revision: one "revision" marker line followed by
//               the final plain plan block. Old clients are unaffected:
//               they never send the verb, and every other frame is
//               unchanged (verb growth per the kUnknownCommand contract,
//               no version bump).
//
// The protocol logic is written against the Transport byte-stream interface
// rather than sockets, so tests drive the full server path — framing,
// request handling, fault recovery — with scripted in-memory transports:
// torn frames, garbage bytes, oversized lines, mid-race disconnects and
// half-open peers all exercise exactly the code the real server runs.
// FdTransport is the production implementation (EINTR-safe, SIGPIPE-free
// socket I/O). docs/FORMATS.md is the format spec.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "engine/sharded_service.hpp"

namespace gridmap::engine::wire {

/// Protocol name + version announced by the server's hello line. Bump the
/// suffix on any incompatible framing change.
inline constexpr std::string_view kProtocol = "GRIDMAP/1";

/// Hard cap on one request line (terminator included). Requests are tiny
/// ("map 128x96x64 111 hops 4096 64 high" is under 40 bytes); anything
/// larger is a protocol violation, not a bigger instance.
inline constexpr std::size_t kMaxRequestLine = 4096;

/// The server's first frame on every connection: "GRIDMAP/1\n".
std::string hello_line();

/// Closed set of error codes carried by "err <code> <detail>" frames.
enum class ErrorCode {
  kTooLong,         ///< request line exceeded kMaxRequestLine
  kBadByte,         ///< NUL byte inside a request line
  kBadRequest,      ///< request parsed but was malformed/invalid
  /// First word is not a known command (map|mapspec|stats|metrics|
  /// shutdown). The command set may grow in later GRIDMAP/1 revisions
  /// WITHOUT a protocol version bump: a new verb changes no existing frame,
  /// an old server answers it with this error and keeps the connection
  /// open, and an old client simply never sends it — so mixed-version
  /// deployments interoperate ("mapspec" grew this way in PR 10). The
  /// err-code table in docs/FORMATS.md mirrors this contract and must be
  /// extended together with this comment.
  kUnknownCommand,
  kBusy,            ///< admission control refused (queue-full|shutting-down)
  kInternal,        ///< the race itself failed
};

std::string_view to_string(ErrorCode code);

/// "err <code> <detail>\n" with any newlines in `detail` flattened so the
/// frame stays a single line.
std::string error_frame(ErrorCode code, std::string_view detail);

/// Byte stream the protocol runs over. Implementations must not throw.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Reads up to `max` bytes into `buffer`. Returns the count read (> 0),
  /// 0 on EOF or a dead peer, or -1 when no bytes are available right now
  /// (timeout / would-block) — the caller polls its stop flag and retries.
  virtual long read_some(char* buffer, std::size_t max) = 0;

  /// Writes all of `text`; false once the peer is gone (or writes time out,
  /// e.g. a half-open peer that stopped reading).
  virtual bool write_all(std::string_view text) = 0;
};

/// Transport over a connected socket fd (not owned). Reads/writes are
/// EINTR-safe; writes use MSG_NOSIGNAL so a vanished peer yields false
/// instead of SIGPIPE; a recv/send timeout set on the fd (SO_RCVTIMEO /
/// SO_SNDTIMEO) surfaces as read_some() == -1 / write_all() == false.
class FdTransport final : public Transport {
 public:
  explicit FdTransport(int fd) noexcept : fd_(fd) {}

  long read_some(char* buffer, std::size_t max) override;
  bool write_all(std::string_view text) override;

 private:
  int fd_;
};

/// Incremental request-line splitter with the kMaxRequestLine cap: feed()
/// raw chunks as they arrive (frames may be torn at any byte), next() yields
/// complete lines. Once a line overruns the cap or a NUL byte arrives the
/// buffer is discarded and the fault status sticks — memory stays bounded by
/// cap + one read chunk no matter what the peer sends.
class LineBuffer {
 public:
  enum class Status {
    kLine,      ///< `line` holds the next complete request line
    kNeedMore,  ///< no complete line buffered yet — feed() more bytes
    kTooLong,   ///< line cap exceeded (sticky)
    kBadByte,   ///< NUL byte in the stream (sticky)
  };

  explicit LineBuffer(std::size_t max_line = kMaxRequestLine) : max_line_(max_line) {}

  void feed(std::string_view data);

  /// Extracts the next complete line (without its '\n') or reports why it
  /// cannot. After kTooLong/kBadByte every further call repeats that fault.
  Status next(std::string& line);

  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
  std::size_t max_line_;
  Status fault_ = Status::kNeedMore;
};

/// One parsed "map" request.
struct MapRequest {
  Instance instance;
  Priority priority;
};

/// Parses the arguments after the "map" command word:
///   <e0>x<e1>[x...] <periodic-bits> <nn|hops|component> <nodes> <ppn>
///   [high|normal|low]
/// Throws std::invalid_argument on anything malformed — missing fields,
/// bad dims, periodic-bits/dimensionality mismatch, unknown stencil or
/// priority, non-positive node counts, trailing junk.
MapRequest parse_map_request(std::istream& args);

/// Header line of a provisional plan block: the plan_io header plus the
/// `provisional` flag word. Clients strip the flag to recover a frame
/// parse_plan accepts.
inline constexpr std::string_view kProvisionalHeader = "gridmap-plan v1 provisional";

/// Marker line announcing the pushed upgrade of a mapspec response; the
/// final plain plan block follows it.
inline constexpr std::string_view kRevisionLine = "revision";

/// The plan's stored frame with its header line written as
/// kProvisionalHeader — a copy, never a re-encode.
std::string provisional_plan_frame(const MappingPlan& plan);

/// A handled request: the frame to write now, plus — for mapspec misses —
/// a deferred continuation that blocks on the background race and returns
/// the revision push (or an err frame when the race fails). Null follow_up
/// means a single-frame response.
struct Response {
  std::string immediate;
  std::function<std::string()> follow_up;
};

/// Executes one request line against the service. Never throws: parse and
/// validation failures become "err bad-request", admission refusals
/// "err busy", race failures "err internal". Sets `want_shutdown` on the
/// shutdown command. The follow_up closure (mapspec only) never throws
/// either and owns every resource it needs — it may be invoked (or
/// dropped) after the Response's request line is gone.
Response handle_request_ex(ShardedService& service, const std::string& line,
                           bool& want_shutdown);

/// Single-frame convenience over handle_request_ex: immediate plus the
/// resolved follow_up concatenated — i.e. a mapspec miss blocks for the
/// final plan and returns both frames in one string.
std::string handle_request(ShardedService& service, const std::string& line,
                           bool& want_shutdown);

/// Why serve_connection returned — the fault-injection tests pin these.
enum class ConnectionEnd {
  kEof,       ///< peer closed the connection
  kPeerGone,  ///< a write failed (peer disconnected or stopped reading)
  kStop,      ///< the server-wide stop flag was observed
  kTooLong,   ///< request line exceeded the cap (err frame sent, then closed)
  kBadByte,   ///< NUL in the stream (err frame sent, then closed)
  kShutdown,  ///< the peer sent the shutdown command
};

std::string_view to_string(ConnectionEnd end);

/// Serves one connection: hello, then request lines in / response frames
/// out until EOF, a framing fault, a dead peer, `stop`, or the shutdown
/// command (which invokes `on_shutdown`, e.g. to close the listener).
/// A request already being raced when the peer vanishes still completes
/// inside the service (warming its shard's cache); only the write is lost.
ConnectionEnd serve_connection(Transport& transport, ShardedService& service,
                               const std::atomic<bool>& stop,
                               const std::function<void()>& on_shutdown);

}  // namespace gridmap::engine::wire
