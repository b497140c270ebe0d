#include "engine/wire.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <sstream>

#include "core/types.hpp"

namespace gridmap::engine::wire {

namespace {

/// Collapses newlines so an exception message can travel in a one-line frame.
std::string single_line(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == '\n' || c == '\r' || c == '\0') c = ' ';
  }
  return out;
}

/// Parses "6x8" / "16x12x8" into grid extents.
Dims parse_dims(const std::string& spec) {
  Dims dims;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t next = spec.find('x', pos);
    const std::string part = spec.substr(pos, next - pos);
    if (part.empty() || part.size() > 9 ||
        part.find_first_not_of("0123456789") != std::string::npos) {
      throw_invalid("bad dims spec (want e.g. 6x8 or 16x12x8): " + spec);
    }
    dims.push_back(std::stoi(part));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return dims;
}

Stencil parse_stencil(const std::string& kind, int ndims) {
  if (kind == "nn") return Stencil::nearest_neighbor(ndims);
  if (kind == "hops") return Stencil::nearest_neighbor_with_hops(ndims);
  if (kind == "component") return Stencil::component(ndims);
  throw_invalid("unknown stencil kind (want nn|hops|component): " + kind);
}

std::string stats_frame(const ShardedService& service) {
  const ServiceCounters c = service.counters();
  const CacheStats cache = service.cache_stats();
  std::ostringstream out;
  out << "ok shards=" << service.shards() << " submitted=" << c.submitted
      << " admitted=" << c.admitted << " rejected_full=" << c.rejected_full
      << " rejected_shutdown=" << c.rejected_shutdown << " deduped=" << c.deduped
      << " cache_hits=" << c.cache_hits << " completed=" << c.completed
      << " failed=" << c.failed << " cancelled=" << c.cancelled
      << " fully_cancelled=" << c.fully_cancelled << " speculated=" << c.speculated
      << " upgraded=" << c.upgraded
      << " queue_depth=" << c.queue_depth << " max_queue_depth=" << c.max_queue_depth
      << " cache_hit_rate=" << cache.hit_rate()
      << " mapper_runs=" << service.mapper_runs() << "\n";
  return out.str();
}

/// The metrics response block:
///   gridmap-metrics v1
///   <Prometheus-style exposition lines>
///   end
/// Exposition lines always start with a metric name or "# TYPE", so none can
/// collide with the bare "end" terminator — clients reuse their existing
/// read-until-"end" block logic from plan frames.
std::string metrics_frame(const ShardedService& service) {
  return "gridmap-metrics v1\n" + service.metrics_text() + "end\n";
}

}  // namespace

std::string hello_line() { return std::string(kProtocol) + "\n"; }

std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kTooLong:
      return "too-long";
    case ErrorCode::kBadByte:
      return "bad-byte";
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kUnknownCommand:
      return "unknown-command";
    case ErrorCode::kBusy:
      return "busy";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "internal";
}

std::string error_frame(ErrorCode code, std::string_view detail) {
  std::string frame = "err ";
  frame += to_string(code);
  if (!detail.empty()) {
    frame += ' ';
    frame += single_line(detail);
  }
  frame += '\n';
  return frame;
}

long FdTransport::read_some(char* buffer, std::size_t max) {
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, max, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;  // timeout: poll stop
    return 0;  // hard error — treat like EOF, the connection is over
  }
}

bool FdTransport::write_all(std::string_view text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(fd_, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EPIPE/ECONNRESET (peer gone) and EAGAIN (send timeout: a half-open
    // peer stopped reading and the socket buffer filled) all end the
    // connection — the caller must not retry forever.
    return false;
  }
  return true;
}

void LineBuffer::feed(std::string_view data) {
  if (fault_ != Status::kNeedMore) return;  // faulted: drop everything further
  if (data.find('\0') != std::string_view::npos) {
    fault_ = Status::kBadByte;
    buffer_.clear();
    buffer_.shrink_to_fit();
    return;
  }
  buffer_.append(data);
}

LineBuffer::Status LineBuffer::next(std::string& line) {
  if (fault_ != Status::kNeedMore) return fault_;
  const std::size_t newline = buffer_.find('\n');
  if (newline == std::string::npos) {
    if (buffer_.size() >= max_line_) {
      // No terminator within the cap: this line can never become valid.
      fault_ = Status::kTooLong;
      buffer_.clear();
      buffer_.shrink_to_fit();
      return fault_;
    }
    return Status::kNeedMore;
  }
  if (newline >= max_line_) {
    fault_ = Status::kTooLong;
    buffer_.clear();
    buffer_.shrink_to_fit();
    return fault_;
  }
  line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  return Status::kLine;
}

MapRequest parse_map_request(std::istream& args) {
  std::string dims_spec, periodic_bits, kind;
  int nodes = 0, ppn = 0;
  if (!(args >> dims_spec >> periodic_bits >> kind >> nodes >> ppn)) {
    throw_invalid(
        "map wants: <dims> <periodic-bits> <nn|hops|component> <nodes> <ppn>"
        " [high|normal|low]");
  }
  std::string prio_word;
  const Priority priority =
      (args >> prio_word) ? priority_from_string(prio_word) : Priority::kNormal;
  std::string extra;
  if (args >> extra) throw_invalid("trailing junk after map request: " + extra);

  const Dims dims = parse_dims(dims_spec);
  if (periodic_bits.size() != dims.size()) {
    throw_invalid("periodic-bits length must match dimensionality");
  }
  std::vector<bool> periodic;
  for (const char bit : periodic_bits) {
    if (bit != '0' && bit != '1') throw_invalid("periodic-bits must be 0s and 1s");
    periodic.push_back(bit == '1');
  }
  GRIDMAP_CHECK(nodes > 0 && ppn > 0, "map wants positive <nodes> and <ppn>");

  CartesianGrid grid(dims, periodic);
  Stencil stencil = parse_stencil(kind, grid.ndims());
  NodeAllocation alloc = NodeAllocation::homogeneous(nodes, ppn);
  return MapRequest{Instance{std::move(grid), std::move(stencil), std::move(alloc)},
                    priority};
}

std::string provisional_plan_frame(const MappingPlan& plan) {
  // "gridmap-plan v1\n..." -> "gridmap-plan v1 provisional\n...": the flag
  // rides the header line, so every other line (and the end terminator)
  // stays byte-identical to the plan's stored frame.
  const std::string& frame = plan.frame();
  return std::string(kProvisionalHeader).append(frame, frame.find('\n'));
}

Response handle_request_ex(ShardedService& service, const std::string& line,
                           bool& want_shutdown) {
  std::istringstream args(line);
  std::string command;
  args >> command;
  try {
    if (command == "map") {
      const MapRequest request = parse_map_request(args);
      MapTicket ticket = service.map_async(request.instance.grid, request.instance.stencil,
                                           request.instance.alloc, request.priority);
      return {ticket.get()->frame(), nullptr};
    }
    if (command == "mapspec") {
      const MapRequest request = parse_map_request(args);
      // shared_ptr: the ticket must outlive this scope inside the deferred
      // revision closure.
      auto ticket = std::make_shared<MapTicket>(
          service.map_async(request.instance.grid, request.instance.stencil,
                            request.instance.alloc, request.priority,
                            /*speculate=*/true));
      const std::shared_ptr<const MappingPlan> provisional = ticket->provisional().get();
      if (ticket->future().wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        // Cache hit, or the race beat the speculation pass: the answer is
        // already final — one plain plan block, no revision push.
        return {ticket->get()->frame(), nullptr};
      }
      Response response;
      response.immediate = provisional_plan_frame(*provisional);
      response.follow_up = [ticket]() -> std::string {
        try {
          return std::string(kRevisionLine) + "\n" + ticket->get()->frame();
        } catch (const AdmissionError& e) {
          return error_frame(ErrorCode::kBusy, to_string(e.reason()));
        } catch (const std::exception& e) {
          return error_frame(ErrorCode::kInternal, e.what());
        }
      };
      return response;
    }
    if (command == "stats") return {stats_frame(service), nullptr};
    if (command == "metrics") return {metrics_frame(service), nullptr};
    if (command == "shutdown") {
      want_shutdown = true;
      return {"ok bye\n", nullptr};
    }
    return {error_frame(ErrorCode::kUnknownCommand,
                        "want map|mapspec|stats|metrics|shutdown: " + command),
            nullptr};
  } catch (const AdmissionError& e) {
    return {error_frame(ErrorCode::kBusy, to_string(e.reason())), nullptr};
  } catch (const std::invalid_argument& e) {
    return {error_frame(ErrorCode::kBadRequest, e.what()), nullptr};
  } catch (const std::exception& e) {
    return {error_frame(ErrorCode::kInternal, e.what()), nullptr};
  }
}

std::string handle_request(ShardedService& service, const std::string& line,
                           bool& want_shutdown) {
  Response response = handle_request_ex(service, line, want_shutdown);
  if (response.follow_up) response.immediate += response.follow_up();
  return response.immediate;
}

std::string_view to_string(ConnectionEnd end) {
  switch (end) {
    case ConnectionEnd::kEof:
      return "eof";
    case ConnectionEnd::kPeerGone:
      return "peer-gone";
    case ConnectionEnd::kStop:
      return "stop";
    case ConnectionEnd::kTooLong:
      return "too-long";
    case ConnectionEnd::kBadByte:
      return "bad-byte";
    case ConnectionEnd::kShutdown:
      return "shutdown";
  }
  return "eof";
}

ConnectionEnd serve_connection(Transport& transport, ShardedService& service,
                               const std::atomic<bool>& stop,
                               const std::function<void()>& on_shutdown) {
  if (!transport.write_all(hello_line())) return ConnectionEnd::kPeerGone;
  LineBuffer lines;
  char chunk[4096];
  for (;;) {
    std::string line;
    const LineBuffer::Status status = lines.next(line);
    if (status == LineBuffer::Status::kTooLong) {
      transport.write_all(error_frame(
          ErrorCode::kTooLong,
          "request line exceeds " + std::to_string(kMaxRequestLine) + " bytes"));
      return ConnectionEnd::kTooLong;
    }
    if (status == LineBuffer::Status::kBadByte) {
      transport.write_all(error_frame(ErrorCode::kBadByte, "NUL byte in request"));
      return ConnectionEnd::kBadByte;
    }
    if (status == LineBuffer::Status::kNeedMore) {
      if (stop.load()) return ConnectionEnd::kStop;
      const long n = transport.read_some(chunk, sizeof chunk);
      if (n == 0) return ConnectionEnd::kEof;
      if (n < 0) continue;  // timeout/would-block: re-check stop, read again
      lines.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
      continue;
    }
    if (line.empty()) continue;

    bool want_shutdown = false;
    Response response = handle_request_ex(service, line, want_shutdown);
    if (!transport.write_all(response.immediate)) return ConnectionEnd::kPeerGone;
    if (response.follow_up) {
      // The revision push: blocks on the background race exactly like a
      // blocking "map" would, then writes the upgraded plan. A peer that
      // vanished in between only loses the write — the race has already
      // completed inside the service and warmed its shard's cache.
      if (!transport.write_all(response.follow_up())) return ConnectionEnd::kPeerGone;
    }
    if (want_shutdown) {
      if (on_shutdown) on_shutdown();
      return ConnectionEnd::kShutdown;
    }
    if (stop.load()) return ConnectionEnd::kStop;
  }
}

}  // namespace gridmap::engine::wire
