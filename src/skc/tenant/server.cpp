#include "skc/tenant/server.h"

#include <utility>

#include "skc/obs/flight_recorder.h"
#include "skc/obs/prom_format.h"
#include "skc/obs/prometheus.h"
#include "skc/obs/trace.h"

namespace skc::tenant {

namespace {

using net::Status;

/// Admit -> wire status, with the refusal named in `diag`.
Status admit_status(Admit a, std::string& diag) {
  switch (a) {
    case Admit::kOk:
      return Status::kOk;
    case Admit::kQuota:
      diag = "tenant quota exceeded (events/s, sketch bytes, or queued "
             "events)";
      return Status::kQuotaExceeded;
    case Admit::kInvalidId:
    case Admit::kTooManyTenants:
    case Admit::kUnknownTenant:
      diag = admit_name(a);
      return Status::kUnknownTenant;
    case Admit::kError:
      diag = "tenant engine error (spill restore failed?)";
      return Status::kEngineError;
  }
  diag = "unknown admit verdict";
  return Status::kEngineError;
}

}  // namespace

TenantServer::TenantServer(TenantRegistry& registry,
                           const net::ServerOptions& options)
    : net::FrameServer(options), registry_(registry) {}

// The base destructor also calls stop(), but by then this subclass (and the
// registry reference the hooks use) is gone — drain here, while alive.
TenantServer::~TenantServer() { stop(); }

Status TenantServer::handle_ingest(std::string_view tenant,
                                   const Stream& events, std::string& diag) {
  return admit_status(registry_.submit(tenant, events), diag);
}

Status TenantServer::handle_query(std::string_view tenant, const EngineQuery& q,
                                  EngineQueryResult& result,
                                  std::string& diag) {
  // Flight-recorder arm with the tenant in the metadata: a slow query
  // names who ran it without tracing pre-enabled.
  obs::QueryCapture capture("tenant_query",
                            tenant.empty()
                                ? std::string("tenant=<default>")
                                : "tenant=" + std::string(tenant));
  return admit_status(registry_.query(tenant, q, result), diag);
}

Status TenantServer::handle_checkpoint(std::string_view tenant,
                                       const std::string& path,
                                       std::string& diag) {
  return admit_status(registry_.checkpoint(tenant, path), diag);
}

Status TenantServer::handle_metrics_json(std::string& json) {
  // One JSON object: transport counters plus the registry's per-tenant
  // stats (per-tenant latency histograms included).
  EngineMetrics transport;
  fill_transport_metrics(transport);
  json = "{\"transport\":";
  json += metrics_json(transport);
  json += ",\"tenants\":";
  json += registry_.stats_json();
  json += '}';
  return Status::kOk;
}

Status TenantServer::handle_prometheus(std::string& text) {
  EngineMetrics transport;
  fill_transport_metrics(transport);
  text = tenant_prometheus_text(transport, registry_.stats());
  return Status::kOk;
}

Status TenantServer::handle_tenant_stats(std::string_view tenant,
                                         std::string& json) {
  // A named tenant gets its own object; the default tenant address reads
  // the whole registry.
  if (tenant.empty()) {
    json = registry_.stats_json();
    return Status::kOk;
  }
  if (registry_.tenant_stats_json(tenant, json)) return Status::kOk;
  json = "unknown tenant";
  return Status::kUnknownTenant;
}

Status TenantServer::handle_worker_stats(net::WorkerStatsReply& out) {
  // Fleet-scrape lane: registry-wide ingest/query distributions merged
  // bucket-wise across tenants, plus one per-tenant event row each.
  const RegistryStats stats = registry_.stats();
  obs::HistogramSnapshot ingest, query;
  out.tenants.reserve(stats.per_tenant.size());
  for (const TenantStats& t : stats.per_tenant) {
    ingest.merge(t.ingest_latency);
    query.merge(t.query_latency);
    out.tenants.push_back({t.id, t.events});
  }
  out.submit = net::HistogramWire::from(ingest);
  out.query = net::HistogramWire::from(query);
  return Status::kOk;
}

void TenantServer::on_drain() {
  // Settle every accepted event into the resident builders so post-drain
  // spills and in-process reads see a clean epoch (spilled tenants are
  // already quiescent by construction).
  registry_.flush();
}

std::string tenant_prometheus_text(const EngineMetrics& transport,
                                   const RegistryStats& stats) {
  using obs::prom::line;
  std::string out = obs::prometheus_text(transport);

  obs::prom::gauge_i(out, "skc_tenants", "Known tenants (resident + spilled).",
                     stats.tenants);
  obs::prom::gauge_i(out, "skc_tenants_resident",
                     "Tenants with a live engine.", stats.resident);
  obs::prom::counter(out, "skc_tenant_evictions_total",
                     "Cold tenants spilled to disk.", stats.evictions);
  obs::prom::counter(out, "skc_tenant_restores_total",
                     "Spilled tenants restored on touch.", stats.restores);

  line(out, "# HELP skc_tenant_events_total Events admitted per tenant.");
  line(out, "# TYPE skc_tenant_events_total counter");
  for (const TenantStats& t : stats.per_tenant) {
    line(out, "skc_tenant_events_total{tenant=\"%s\"} %lld", t.id.c_str(),
         static_cast<long long>(t.events));
  }
  line(out, "# HELP skc_tenant_rung Sketch-ladder rung per tenant.");
  line(out, "# TYPE skc_tenant_rung gauge");
  for (const TenantStats& t : stats.per_tenant) {
    line(out, "skc_tenant_rung{tenant=\"%s\"} %d", t.id.c_str(), t.rung);
  }
  line(out,
       "# HELP skc_tenant_sketch_bytes Resident sketch footprint per tenant.");
  line(out, "# TYPE skc_tenant_sketch_bytes gauge");
  for (const TenantStats& t : stats.per_tenant) {
    line(out, "skc_tenant_sketch_bytes{tenant=\"%s\"} %lld", t.id.c_str(),
         static_cast<long long>(t.sketch_bytes));
  }
  line(out,
       "# HELP skc_tenant_quota_rejections_total Typed QUOTA_EXCEEDED "
       "refusals per tenant.");
  line(out, "# TYPE skc_tenant_quota_rejections_total counter");
  for (const TenantStats& t : stats.per_tenant) {
    line(out, "skc_tenant_quota_rejections_total{tenant=\"%s\"} %lld",
         t.id.c_str(), static_cast<long long>(t.quota_rejections));
  }
  line(out,
       "# HELP skc_tenant_op_latency_seconds Per-tenant operation latency "
       "(ingest, query).");
  line(out, "# TYPE skc_tenant_op_latency_seconds histogram");
  for (const TenantStats& t : stats.per_tenant) {
    obs::prom::histogram_series(
        out, "skc_tenant_op_latency_seconds",
        "tenant=\"" + t.id + "\",op=\"ingest\"", t.ingest_latency);
    obs::prom::histogram_series(
        out, "skc_tenant_op_latency_seconds",
        "tenant=\"" + t.id + "\",op=\"query\"", t.query_latency);
  }
  return out;
}

}  // namespace skc::tenant
