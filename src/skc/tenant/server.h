// TenantServer — the multi-tenant front door: a FrameServer whose operation
// hooks route every request to a TenantRegistry namespace (the request
// table itself lives in net::FrameServer).
//
// Protocol surface:
//   * version-1 frames address the default tenant ("") and stay
//     byte-compatible with pre-tenant clients — an old SkcClient works
//     against a TenantServer unchanged (pinned by test);
//   * version-2 frames carry the stream id prefix; an unparseable or
//     illegal prefix is answered with the typed UNKNOWN_TENANT error and
//     the connection is KEPT (frames are length-delimited, so the stream
//     stays in sync) — only an undecodable body drops, as everywhere else;
//   * quota refusals surface as the typed QUOTA_EXCEEDED error with the
//     violated quota named in the body; clients treat it like BUSY with
//     caller-controlled backoff (nothing was enqueued server-side);
//   * TENANT_STATS returns the registry's per-tenant JSON (one tenant when
//     the request names one, the whole registry for the default tenant);
//   * METRICS wraps the transport counters and the registry stats into one
//     JSON object; PROMETHEUS appends per-tenant series (skc_tenant_*) to
//     the standard exposition.
#pragma once

#include <string>

#include "skc/net/server.h"
#include "skc/tenant/registry.h"

namespace skc::tenant {

class TenantServer : public net::FrameServer {
 public:
  /// The registry must outlive the server (the embedder may keep using it
  /// in-process after the server drains).
  TenantServer(TenantRegistry& registry, const net::ServerOptions& options);
  ~TenantServer() override;

  int dim() const override { return registry_.options().dim; }
  int log_delta() const override {
    return registry_.options().engine.streaming.log_delta;
  }
  net::Status admit_tenant(std::string_view, std::string&) const override {
    return net::Status::kOk;  // every stream id owns a namespace
  }
  net::Status handle_ingest(std::string_view tenant, const Stream& events,
                            std::string& diag) override;
  /// Arms the flight-recorder capture, so REPL queries are captured too.
  net::Status handle_query(std::string_view tenant, const EngineQuery& q,
                           EngineQueryResult& result,
                           std::string& diag) override;
  net::Status handle_checkpoint(std::string_view tenant,
                                const std::string& path,
                                std::string& diag) override;
  net::Status handle_flush(std::string&) override {
    registry_.flush();
    return net::Status::kOk;
  }
  net::Status handle_metrics_json(std::string& json) override;
  net::Status handle_prometheus(std::string& text) override;
  net::Status handle_worker_stats(net::WorkerStatsReply& out) override;
  net::Status handle_tenant_stats(std::string_view tenant,
                                  std::string& json) override;

 protected:
  void on_drain() override;

 private:
  TenantRegistry& registry_;
};

/// The PROMETHEUS exposition: the standard transport rendering plus
/// per-tenant series (skc_tenant_events_total{tenant=...}, rung, sketch
/// bytes, quota rejections, evictions/restores, and the
/// skc_tenant_op_latency_seconds{tenant=...,op=ingest|query} histogram
/// family).  Exposed for tests.
std::string tenant_prometheus_text(const EngineMetrics& transport,
                                   const RegistryStats& stats);

}  // namespace skc::tenant
