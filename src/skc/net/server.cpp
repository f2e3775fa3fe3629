#include "skc/net/server.h"

#include <cstdio>
#include <utility>

#include "skc/obs/flight_recorder.h"
#include "skc/obs/prometheus.h"
#include "skc/obs/trace.h"

namespace skc::net {

namespace {

constexpr int kBusyCloseTimeoutMs = 1000;

std::size_t type_index(MsgType type) {
  return static_cast<std::size_t>(static_cast<std::uint8_t>(type));
}

EngineQuery to_engine_query(const QueryRequest& request) {
  EngineQuery q;
  q.k = request.k;
  q.capacity_slack = request.capacity_slack;
  q.barrier = request.barrier;
  q.summary_only = request.summary_only;
  q.solver_restarts = request.solver_restarts;
  return q;
}

}  // namespace

QueryReply to_query_reply(const EngineQueryResult& result) {
  QueryReply out;
  out.ok = result.ok;
  out.error = result.error;
  out.net_points = result.net_points;
  out.summary_points = static_cast<std::uint64_t>(result.summary.points.size());
  out.capacity = result.capacity;
  out.cost = result.solution.cost;
  out.feasible = result.solution.feasible;
  out.merge_millis = result.merge_millis;
  out.solve_millis = result.solve_millis;
  out.dim = result.solution.centers.dim();
  for (PointIndex c = 0; c < result.solution.centers.size(); ++c) {
    const auto p = result.solution.centers[c];
    out.center_coords.insert(out.center_coords.end(), p.begin(), p.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// FrameServer — the protocol-generic transport.

FrameServer::FrameServer(const ServerOptions& options) : options_(options) {}

FrameServer::~FrameServer() { stop(); }

bool FrameServer::start(std::string& error) {
  SKC_CHECK_MSG(!started_, "FrameServer::start called twice");
  port_ = options_.port;
  listener_ = listen_on(port_, options_.backlog, error);
  if (!listener_.valid()) return false;
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void FrameServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const IoResult ready = wait_readable(listener_, /*timeout_ms=*/-1, &stopping_);
    if (ready != IoResult::kOk) break;  // cancelled or listener error
    Socket sock = accept_on(listener_);
    if (!sock.valid()) continue;
    reap_finished_conns();

    if (counters_.connections_active.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Admission control: one explicit BUSY frame, then close.  The peer
      // backs off and retries instead of queueing invisibly in the accept
      // backlog.
      counters_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
      const std::string frame =
          encode_frame(MsgType::kPing, Status::kBusy, std::string_view{});
      send_exact(sock, frame.data(), frame.size(), kBusyCloseTimeoutMs,
                 &stopping_);
      counters_.bytes_out.fetch_add(static_cast<std::int64_t>(frame.size()),
                                    std::memory_order_relaxed);
      continue;
    }

    counters_.connections_total.fetch_add(1, std::memory_order_relaxed);
    counters_.connections_active.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(sock);
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      serve_connection(*raw);
      // Signal EOF at once (the descriptor closes when the connection is
      // reaped).  Half-close only: a full close with unread request bytes
      // resets the connection and can discard the diagnostic reply.
      raw->sock.shutdown_write();
      counters_.connections_active.fetch_add(-1, std::memory_order_relaxed);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void FrameServer::reap_finished_conns() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void FrameServer::serve_connection(Conn& conn) {
  std::string header_buf(kFrameHeaderBytes, '\0');
  while (!stopping_.load(std::memory_order_acquire)) {
    // Idle wait first (its own, longer deadline), then the frame must
    // arrive within read_timeout_ms.
    const IoResult idle =
        wait_readable(conn.sock, options_.idle_timeout_ms, &stopping_);
    if (idle != IoResult::kOk) break;
    IoResult io = recv_exact(conn.sock, header_buf.data(), kFrameHeaderBytes,
                             options_.read_timeout_ms, &stopping_);
    if (io == IoResult::kClosed) break;  // clean disconnect between frames
    if (io != IoResult::kOk) {
      // Partial header: a truncated frame, not a clean goodbye.
      counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    FrameHeader header;
    const Status header_status = decode_header(header_buf, header);
    if (header_status != Status::kOk) {
      counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
      // Best-effort diagnostic, then drop the connection: after a bad
      // header the stream offset is unrecoverable.
      send_reply(conn, MsgType::kPing, header_status,
                 encode_text(status_name(header_status)));
      break;
    }
    std::string body(header.payload_bytes, '\0');
    if (header.payload_bytes > 0) {
      io = recv_exact(conn.sock, body.data(), body.size(),
                      options_.read_timeout_ms, &stopping_);
      if (io != IoResult::kOk) {  // mid-frame disconnect or stall
        counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    counters_.bytes_in.fetch_add(
        static_cast<std::int64_t>(frame_wire_bytes(body.size())),
        std::memory_order_relaxed);
    counters_.requests_by_type[type_index(header.type)].fetch_add(
        1, std::memory_order_relaxed);

    // Version-3 frames open with a wire trace context.  Strip it here and
    // rewrite the header to version 2: dispatch code is version-gated on
    // the tenant prefix only and never sees the extension.
    obs::TraceContext wire_ctx;
    std::string_view body_view = body;
    if (header.version == kWireVersionTraced) {
      std::string_view rest;
      if (!split_trace_prefix(body_view, wire_ctx, rest)) {
        counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        send_reply(conn, header.type, Status::kMalformed,
                   encode_text("truncated trace context"));
        break;
      }
      body_view = rest;
      header.version = kWireVersionTenant;
    }

    std::string reply;
    Status status;
    {
      // The request histogram (and span) covers decode + subclass work +
      // reply encoding, but not the idle wait for the frame to arrive.
      // The wire context (if any) is ambient for the dispatch, so server
      // spans parent under the caller's RPC span and share its trace_id.
      obs::ScopedTraceContext trace_scope(wire_ctx);
      obs::ScopedSpan request_span("request");
      obs::LatencyRecorder latency(counters_.request_latency);
      status = dispatch(header, body_view, reply);
      if (request_span.active()) {
        request_span.set_wire_bytes(static_cast<std::int64_t>(
            frame_wire_bytes(header.payload_bytes) +
            frame_wire_bytes(reply.size())));
      }
    }
    if (!send_reply(conn, header.type, status, reply)) break;
    if (status == Status::kMalformed) break;  // stream integrity is gone
    if (header.type == MsgType::kShutdown && status == Status::kOk) {
      request_shutdown();
      break;
    }
  }
}

bool FrameServer::send_reply(Conn& conn, MsgType type, Status status,
                             std::string_view body) {
  const std::string frame = encode_frame(type, status, body);
  const IoResult io = send_exact(conn.sock, frame.data(), frame.size(),
                                 options_.write_timeout_ms, &stopping_);
  counters_.bytes_out.fetch_add(static_cast<std::int64_t>(frame.size()),
                                std::memory_order_relaxed);
  return io == IoResult::kOk;
}

void FrameServer::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();
}

void FrameServer::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [&] { return stopping_.load(std::memory_order_acquire); });
}

void FrameServer::stop() {
  request_shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    drain = started_ && !drained_;
    drained_ = true;
  }
  if (drain) on_drain();
}

// ---------------------------------------------------------------------------
// The request table: one decode -> hook -> encode path for every front door.

Status FrameServer::admit_tenant(std::string_view tenant,
                                 std::string& diag) const {
  if (tenant.empty()) return Status::kOk;
  // Never a drop: the frame was length-delimited, the stream is intact.
  diag = "this front door hosts only the default tenant";
  return Status::kUnknownTenant;
}

Status FrameServer::dispatch(const FrameHeader& header, std::string_view body,
                             std::string& reply) {
  std::string diag;
  const Status status = dispatch_request(header, body, reply, diag);
  if (status == Status::kMalformed) {
    counters_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
  }
  if (status != Status::kOk && !diag.empty()) reply = encode_text(diag);
  return status;
}

Status FrameServer::dispatch_request(const FrameHeader& header,
                                     std::string_view body, std::string& reply,
                                     std::string& diag) {
  // Version-1 frames address the default tenant; version-2 frames carry the
  // prefix.  An unparseable or illegal id is a typed kUnknownTenant.
  std::string_view tenant;
  if (header.version != kWireVersion) {
    std::string_view inner;
    if (!split_tenant_prefix(body, tenant, inner)) {
      diag = "truncated tenant prefix";
      return Status::kUnknownTenant;
    }
    if (!tenant.empty() && !valid_tenant_id(tenant)) {
      diag = "illegal tenant id (want [A-Za-z0-9._-], <= 64 bytes)";
      return Status::kUnknownTenant;
    }
    body = inner;
  }
  if (const Status s = admit_tenant(tenant, diag); s != Status::kOk) return s;

  // Text-reply hooks leave the payload in `text`, or the reason on refusal.
  std::string text;
  const auto as_text = [&](Status status) {
    if (status == Status::kOk) {
      reply = encode_text(text);
    } else {
      diag = std::move(text);
    }
    return status;
  };
  switch (header.type) {
    case MsgType::kPing:
      reply.assign(body);  // echo
      return Status::kOk;

    case MsgType::kInsertBatch:
    case MsgType::kDeleteBatch:
      return dispatch_ingest(header.type, tenant, body, reply, diag);

    case MsgType::kQuery: {
      QueryRequest request;
      if (!request.decode(body)) {
        diag = "undecodable query";
        return Status::kMalformed;
      }
      EngineQueryResult res;
      const Status s = handle_query(tenant, to_engine_query(request), res,
                                    diag);
      if (s != Status::kOk) return s;
      // A query-level miss travels in the reply's ok/error, not the status.
      reply = to_query_reply(res).encode();
      return Status::kOk;
    }

    case MsgType::kMetrics:
      return as_text(handle_metrics_json(text));

    case MsgType::kCheckpoint: {
      CheckpointRequest request;
      if (!request.decode(body)) {
        diag = "undecodable checkpoint request";
        return Status::kMalformed;
      }
      return handle_checkpoint(tenant, request.path, diag);
    }

    case MsgType::kShutdown:
      return Status::kOk;  // serve_connection requests the drain after replying

    case MsgType::kTraceDump:
      text = obs::Tracer::instance().dump_chrome_json();
      return as_text(Status::kOk);

    case MsgType::kPrometheus:
      return as_text(handle_prometheus(text));

    case MsgType::kWorkerHello:
    case MsgType::kHeartbeat:
    case MsgType::kMergeSketch:
    case MsgType::kFetchCoreset:
    case MsgType::kShipSnapshot:
      return handle_worker_rpc(header.type, body, reply, diag);

    case MsgType::kTenantStats:
      return as_text(handle_tenant_stats(tenant, text));

    case MsgType::kClusterTraceDump:
      return as_text(handle_cluster_trace(text));

    case MsgType::kWorkerStats: {
      WorkerStatsReply out;
      const Status s = handle_worker_stats(out);
      if (s != Status::kOk) return s;
      out.net_request =
          HistogramWire::from(counters_.request_latency.snapshot());
      out.trace_dropped_spans = obs::Tracer::instance().total_dropped();
      reply = out.encode();
      return Status::kOk;
    }

    case MsgType::kFlightRecorder:
      text = obs::FlightRecorder::instance().dump_json();
      return as_text(Status::kOk);
  }
  diag = "unknown message type";
  return Status::kUnsupported;
}

Status FrameServer::dispatch_ingest(MsgType type, std::string_view tenant,
                                    std::string_view body, std::string& reply,
                                    std::string& diag) {
  PointBatch batch;
  if (!batch.decode(body)) {
    diag = "undecodable point batch";
    return Status::kMalformed;
  }
  if (batch.dim != dim()) {
    diag = "batch dimension does not match the server";
    return Status::kEngineError;
  }
  const Coord max_coord = Coord{1} << log_delta();
  for (const Coord c : batch.coords) {
    if (c < 1 || c > max_coord) {
      diag = "coordinate outside [1, Delta]";
      return Status::kEngineError;
    }
  }
  if (draining()) return Status::kShuttingDown;
  if (options_.busy_backlog > 0 && queue_backlog() > options_.busy_backlog) {
    counters_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
    return Status::kBusy;
  }
  const std::size_t d = static_cast<std::size_t>(batch.dim);
  const std::uint64_t count = batch.count();
  Stream events(static_cast<std::size_t>(count));
  const StreamOp op =
      type == MsgType::kInsertBatch ? StreamOp::kInsert : StreamOp::kDelete;
  for (std::uint64_t i = 0; i < count; ++i) {
    events[i].op = op;
    const Coord* first = batch.coords.data() + i * d;
    events[i].point.assign(first, first + d);
  }
  if (const Status s = handle_ingest(tenant, events, diag); s != Status::kOk) {
    return s;
  }
  BatchReply ack;
  ack.accepted = count;
  ack.backlog = queue_backlog();
  reply = ack.encode();
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// EngineServer — one ClusteringEngine behind the frame transport.

EngineServer::EngineServer(ClusteringEngine& engine, const ServerOptions& options)
    : FrameServer(options), engine_(engine) {}

// The base destructor also calls stop(), but by then this subclass (and the
// engine reference the hooks use) is gone — drain here, while it is alive.
EngineServer::~EngineServer() { stop(); }

Status EngineServer::handle_query(std::string_view, const EngineQuery& q,
                                  EngineQueryResult& result, std::string&) {
  char capture_detail[64];
  std::snprintf(capture_detail, sizeof(capture_detail), "engine shards=%d",
                engine_.num_shards());
  obs::QueryCapture capture("query", capture_detail);
  result = engine_.query(q);
  return Status::kOk;
}

Status EngineServer::handle_checkpoint(std::string_view,
                                       const std::string& path,
                                       std::string& diag) {
  if (engine_.checkpoint(path)) return Status::kOk;
  diag = "checkpoint write failed";
  return Status::kEngineError;
}

Status EngineServer::handle_prometheus(std::string& text) {
  text = obs::prometheus_text(metrics());
  return Status::kOk;
}

Status EngineServer::handle_worker_stats(WorkerStatsReply& out) {
  const EngineMetrics m = engine_.metrics();
  out.submit = HistogramWire::from(m.submit_latency);
  out.query = HistogramWire::from(m.query_latency);
  out.checkpoint = HistogramWire::from(m.checkpoint_latency);
  TenantEventsRow row;  // single-tenant node: one default-namespace row
  row.events = m.events_submitted;
  out.tenants.push_back(std::move(row));
  return Status::kOk;
}

Status EngineServer::handle_worker_rpc(MsgType type, std::string_view body,
                                       std::string& reply, std::string& diag) {
  switch (type) {
    case MsgType::kWorkerHello: {
      WorkerHello hello;
      if (!hello.decode(body)) {
        diag = "undecodable worker hello";
        return Status::kMalformed;
      }
      WorkerHelloReply out;
      const std::uint64_t fp = engine_config_fingerprint(
          engine_.dim(), engine_.params(), engine_.options().streaming);
      out.ok = hello.fingerprint == fp;
      if (!out.ok) {
        out.message =
            "engine configuration fingerprint mismatch (dim/k/log_delta and "
            "every sketch knob must match the coordinator exactly)";
      }
      out.num_shards = engine_.num_shards();
      out.net_points = engine_.net_count();
      reply = out.encode();
      return Status::kOk;  // a refusal travels in out.ok/message
    }

    case MsgType::kHeartbeat: {
      HeartbeatReply out;
      const EngineMetrics m = engine_.metrics();
      out.backlog = engine_.queue_backlog();
      out.net_points = m.net_points;
      out.events_applied = m.events_applied;
      out.tracer_now_micros = obs::Tracer::instance().now_micros();
      reply = out.encode();
      return Status::kOk;
    }

    case MsgType::kMergeSketch: {
      if (draining()) return Status::kShuttingDown;
      EngineSketchExport ex = engine_.export_sketch();
      SketchSnapshot out;
      out.net_points = ex.net_points;
      out.events_applied = ex.events_applied;
      out.blob = std::move(ex.blob);
      reply = out.encode();
      return Status::kOk;
    }

    case MsgType::kFetchCoreset: {
      if (draining()) return Status::kShuttingDown;
      EngineQuery q;
      q.summary_only = true;  // barrier defaults to true: a clean epoch
      const EngineQueryResult res = engine_.query(q);
      CoresetReply out;
      out.ok = res.ok;
      out.error = res.error;
      out.net_points = res.net_points;
      out.o = res.summary.o;
      out.dim = res.summary.points.dim();
      const WeightedPointSet& pts = res.summary.points;
      out.weights.assign(pts.weights().begin(), pts.weights().end());
      out.coords.reserve(static_cast<std::size_t>(pts.size()) *
                         static_cast<std::size_t>(engine_.dim()));
      for (PointIndex i = 0; i < pts.size(); ++i) {
        const auto p = pts.point(i);
        out.coords.insert(out.coords.end(), p.begin(), p.end());
      }
      reply = out.encode();
      return Status::kOk;
    }

    case MsgType::kShipSnapshot: {
      SketchSnapshot in;
      if (!in.decode(body)) {
        diag = "undecodable sketch snapshot";
        return Status::kMalformed;
      }
      if (draining()) return Status::kShuttingDown;
      if (!engine_.import_sketch(in.blob)) {
        diag = "sketch blob rejected (configuration mismatch or corruption)";
        return Status::kEngineError;
      }
      return Status::kOk;
    }

    default:
      return FrameServer::handle_worker_rpc(type, body, reply, diag);
  }
}

void EngineServer::on_drain() {
  // Everything accepted has been submitted; settle it into the builders so
  // the post-drain engine (and the optional checkpoint) is a clean epoch of
  // all acknowledged events.
  engine_.flush();
  if (!server_options().drain_checkpoint_path.empty()) {
    engine_.checkpoint(server_options().drain_checkpoint_path);
  }
}

EngineMetrics EngineServer::metrics() const {
  EngineMetrics m = engine_.metrics();
  fill_transport_metrics(m);
  return m;
}

}  // namespace skc::net
