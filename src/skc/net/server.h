// Frame transport servers — FrameServer (reusable base) and EngineServer
// (hosts one ClusteringEngine on a TCP socket).
//
// Topology: one listener thread accepts loopback connections and hands each
// to its own connection thread (frames are small and the real work is
// serialized behind the engine's shard queues or the coordinator's worker
// links, so thread-per-connection is the right amount of machinery — the
// fan-in bottleneck is the sketch update, not the transport).  Every read
// and write runs under a per-connection deadline, and every blocking wait
// tests the server's stop flag each poll tick, so a draining server never
// waits out a silent peer.
//
// FrameServer owns everything protocol-generic: the accept loop, admission
// control over `max_connections`, frame read/decode/reply with the
// malformed-peer policy below, per-request latency + per-type counters, the
// graceful drain, and the ONE request table (dispatch): tenant split, batch
// decode with the dimension and [1, Delta] checks, BUSY shedding, the
// QueryRequest -> EngineQuery -> QueryReply conversion, and the generic
// RPCs (ping, shutdown, trace dump, flight recorder).  A front door only
// overrides the per-operation hooks below — each answers kUnsupported by
// default — plus on_drain() (post-join cleanup).  EngineServer,
// tenant::TenantServer and cluster::ClusterCoordinator are the three front
// doors; skc_cli's in-process REPL calls the same hooks, so the wire and
// the REPL cannot drift apart.
//
// Admission control is explicit, never buffering:
//   * over `max_connections`, a fresh connection gets one BUSY frame and is
//     closed;
//   * while queue_backlog() exceeds `busy_backlog`, ingest batches are
//     answered BUSY *without* being enqueued — the client retries with
//     backoff instead of the server absorbing unbounded state (submit()
//     would otherwise block the connection thread on engine backpressure,
//     which is the hidden-buffer failure mode);
//   * malformed, truncated, or oversized frames produce a diagnostic error
//     reply (when the transport still works) and a closed connection —
//     never a crash; the server keeps serving other clients.
//
// Shutdown (stop(), the destructor, or a SHUTDOWN frame) drains gracefully:
// stop accepting, let in-flight requests finish, then run the subclass
// on_drain() hook (EngineServer: flush the engine to a clean epoch, then
// optionally checkpoint via `drain_checkpoint_path`).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "skc/engine/engine.h"
#include "skc/net/frame.h"
#include "skc/net/socket.h"
#include "skc/obs/histogram.h"

namespace skc::net {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; see FrameServer::port()
  int backlog = 64;
  int max_connections = 64;
  /// Deadline for reading one frame (header or payload) once it starts.
  int read_timeout_ms = 30'000;
  /// Deadline for writing one reply frame.
  int write_timeout_ms = 10'000;
  /// How long a connection may sit idle between requests.
  int idle_timeout_ms = 300'000;
  /// Load shedding: ingest batches get BUSY while the engine backlog
  /// exceeds this many events.  <= 0 disables (connection threads then
  /// block on engine backpressure).
  std::int64_t busy_backlog = 1 << 15;
  /// Graceful drain writes a checkpoint here after the final flush
  /// (EngineServer only; empty = skip).
  std::string drain_checkpoint_path;
};

/// The QUERY reply the request table sends for an engine query result.
QueryReply to_query_reply(const EngineQueryResult& result);

namespace detail {

/// Transport counter block (relaxed atomics, advisory only — same contract
/// as the engine's MetricCounters).
struct NetCounters {
  std::atomic<std::int64_t> connections_active{0};
  std::atomic<std::int64_t> connections_total{0};
  std::atomic<std::int64_t> bytes_in{0};
  std::atomic<std::int64_t> bytes_out{0};
  std::atomic<std::int64_t> busy_rejections{0};
  std::atomic<std::int64_t> malformed_frames{0};
  std::atomic<std::int64_t> requests_by_type[kNumMsgTypes] = {};
  /// Wall time per request, read-to-reply (EngineMetrics.net_request_latency).
  obs::LatencyHistogram request_latency;
};

}  // namespace detail

/// Protocol-generic framed TCP server holding the request table; front
/// doors override the operation hooks.
class FrameServer {
 public:
  explicit FrameServer(const ServerOptions& options);
  virtual ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens, and starts the acceptor.  False (with `error` set) on
  /// bind failure; the server object is then inert.
  bool start(std::string& error);

  /// Bound port (resolves option port 0 after start()).
  std::uint16_t port() const { return port_; }

  bool running() const { return started_ && !stopping_.load(); }

  /// Blocks until shutdown is requested (SHUTDOWN frame or stop()).
  void wait();

  /// Graceful drain: stop accepting, finish in-flight requests, join all
  /// threads, then run on_drain().  Idempotent; the destructor calls it
  /// (subclasses whose hooks touch subclass state MUST also call it from
  /// their own destructor, before that state is destroyed).  Must not be
  /// called from a connection thread (the SHUTDOWN handler only *requests*
  /// shutdown for this reason).
  void stop();

  // --- Operation hooks ----------------------------------------------------
  // The request table and the skc_cli REPL call these with decoded,
  // validated arguments: ingest points have dim() coordinates in
  // [1, 2^log_delta()], and `tenant` passed admit_tenant().  Each returns the
  // reply status; on a refusal `diag` (for the text-reply hooks, the text
  // output) names the reason, sent as the reply's text.  The defaults
  // answer kUnsupported.

  /// Shape of the points this front door accepts.
  virtual int dim() const = 0;
  virtual int log_delta() const = 0;
  /// Events queued but not yet applied: BUSY shedding compares it with
  /// `busy_backlog`, and ingest acks report it.  0 for front doors that
  /// apply (or forward) a batch before acknowledging it.
  virtual std::int64_t queue_backlog() const { return 0; }
  /// kOk, or the typed kUnknownTenant refusal of a stream id without
  /// storage behind it: by default every non-empty one (single-tenant).
  virtual Status admit_tenant(std::string_view tenant, std::string& diag) const;

  virtual Status handle_ingest(std::string_view /*tenant*/,
                               const Stream& /*events*/, std::string& diag) {
    return unsupported(diag);
  }
  virtual Status handle_query(std::string_view /*tenant*/,
                              const EngineQuery& /*q*/,
                              EngineQueryResult& /*result*/,
                              std::string& diag) {
    return unsupported(diag);
  }
  virtual Status handle_checkpoint(std::string_view /*tenant*/,
                                   const std::string& /*path*/,
                                   std::string& diag) {
    return unsupported(diag);
  }
  /// Settles accepted events (REPL `flush`; no wire message).
  virtual Status handle_flush(std::string& diag) { return unsupported(diag); }
  virtual Status handle_metrics_json(std::string& json) {
    return unsupported(json);
  }
  virtual Status handle_prometheus(std::string& text) {
    return unsupported(text);
  }
  /// Operation histograms and per-tenant rows of a WORKER_STATS reply (the
  /// table adds the request histogram and the trace-drop count).
  virtual Status handle_worker_stats(WorkerStatsReply& /*out*/) {
    return Status::kUnsupported;
  }
  /// Per-tenant stats JSON: one tenant's object, or the whole registry for
  /// the default tenant.
  virtual Status handle_tenant_stats(std::string_view /*tenant*/,
                                     std::string& json) {
    return unsupported(json);
  }
  /// Fleet timeline; by default a single node is a cluster of one and
  /// answers with its local trace rings.
  virtual Status handle_cluster_trace(std::string& json) {
    json = obs::Tracer::instance().dump_chrome_json();
    return Status::kOk;
  }
  /// The cluster worker RPCs (WORKER_HELLO, HEARTBEAT, MERGE_SKETCH,
  /// FETCH_CORESET, SHIP_SNAPSHOT) on the raw body; kMalformed for an
  /// undecodable one.
  virtual Status handle_worker_rpc(MsgType /*type*/,
                                   std::string_view /*body*/,
                                   std::string& /*reply*/, std::string& diag) {
    return unsupported(diag);
  }

 protected:
  static Status unsupported(std::string& diag) {
    diag = "unsupported by this front door";
    return Status::kUnsupported;
  }

  /// Runs once inside stop(), after every connection thread has joined.
  virtual void on_drain() {}

  /// True once a drain has been requested (hooks can shed work).
  bool draining() const { return stopping_.load(std::memory_order_acquire); }

  const ServerOptions& server_options() const { return options_; }

  /// Fills the transport fields (net_*, and trace_dropped_spans where the
  /// snapshot has one) of an EngineMetrics or ClusterMetrics snapshot.
  template <class Metrics>
  void fill_transport_metrics(Metrics& m) const;

 private:
  struct Conn {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Runs the request table on one decoded frame and returns the reply
  /// status + body (a refusal's body is its diagnostic text).  Runs on a
  /// connection thread; kShutdown (answered kOk) triggers the drain after
  /// the reply is written.  `header.version` says whether the body starts
  /// with a tenant prefix; replies are always written as version-1 frames.
  Status dispatch(const FrameHeader& header, std::string_view body,
                  std::string& reply);
  /// The request table: tenant split, then decode -> hook -> encode.
  Status dispatch_request(const FrameHeader& header, std::string_view body,
                          std::string& reply, std::string& diag);
  Status dispatch_ingest(MsgType type, std::string_view tenant,
                         std::string_view body, std::string& reply,
                         std::string& diag);

  void accept_loop();
  void serve_connection(Conn& conn);
  bool send_reply(Conn& conn, MsgType type, Status status,
                  std::string_view body);
  void request_shutdown();
  void reap_finished_conns();

  ServerOptions options_;
  mutable detail::NetCounters counters_;
  Socket listener_;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::thread acceptor_;

  std::atomic<bool> stopping_{false};
  bool drained_ = false;  // guarded by stop_mu_
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

template <class Metrics>
void FrameServer::fill_transport_metrics(Metrics& m) const {
  constexpr auto relaxed = std::memory_order_relaxed;
  m.net_connections_active = counters_.connections_active.load(relaxed);
  m.net_connections_total = counters_.connections_total.load(relaxed);
  m.net_bytes_in = counters_.bytes_in.load(relaxed);
  m.net_bytes_out = counters_.bytes_out.load(relaxed);
  m.net_busy_rejections = counters_.busy_rejections.load(relaxed);
  m.net_malformed_frames = counters_.malformed_frames.load(relaxed);
  m.net_requests_by_type.resize(kNumMsgTypes);
  for (std::size_t t = 0; t < m.net_requests_by_type.size(); ++t) {
    m.net_requests_by_type[t] = counters_.requests_by_type[t].load(relaxed);
  }
  m.net_request_latency = counters_.request_latency.snapshot();
  if constexpr (requires { m.trace_dropped_spans; }) {
    m.trace_dropped_spans = obs::Tracer::instance().total_dropped();
  }
}

class EngineServer : public FrameServer {
 public:
  /// The engine must outlive the server; the server never owns it (the
  /// embedder may keep querying in-process after the server drains).
  EngineServer(ClusteringEngine& engine, const ServerOptions& options);
  ~EngineServer() override;

  /// Engine snapshot with the transport counters filled in — what the
  /// METRICS RPC returns as JSON.
  EngineMetrics metrics() const;

  int dim() const override { return engine_.dim(); }
  int log_delta() const override {
    return engine_.options().streaming.log_delta;
  }
  std::int64_t queue_backlog() const override {
    return engine_.queue_backlog();
  }
  Status handle_ingest(std::string_view, const Stream& events,
                       std::string&) override {
    engine_.submit(events);
    return Status::kOk;
  }
  /// Arms the flight-recorder capture, so REPL queries are captured too.
  Status handle_query(std::string_view tenant, const EngineQuery& q,
                      EngineQueryResult& result, std::string& diag) override;
  Status handle_checkpoint(std::string_view tenant, const std::string& path,
                           std::string& diag) override;
  Status handle_flush(std::string&) override {
    engine_.flush();
    return Status::kOk;
  }
  Status handle_metrics_json(std::string& json) override {
    json = metrics_json(metrics());
    return Status::kOk;
  }
  Status handle_prometheus(std::string& text) override;
  Status handle_worker_stats(WorkerStatsReply& out) override;
  Status handle_worker_rpc(MsgType type, std::string_view body,
                           std::string& reply, std::string& diag) override;

 protected:
  void on_drain() override;

 private:
  ClusteringEngine& engine_;
};

}  // namespace skc::net
