// skc_cli — command-line front end for the streamkc pipeline.
//
//   skc_cli coreset  <points.csv> <k> [out.csv]    build a strong coreset
//   skc_cli solve    <points.csv> <k> [slack]      balanced k-means end to end
//   skc_cli assign   <points.csv> <k> [slack]      ... plus the full-data
//                                                  assignment (§3.3), printed
//                                                  as one center index per line
//   skc_cli generate <n> <k> <dim> <log_delta> [skew]   synthetic workload CSV
//   skc_cli serve    <dim> <k> [shards] [log_delta]     interactive engine REPL
//   skc_cli serve    ... --tcp <port>                   host the engine on TCP
//   skc_cli serve    ... --trace                        start with tracing on
//   skc_cli serve    ... --tenants                      multi-tenant mode: each
//                                                       stream id gets its own
//                                                       namespace; tune with
//                                                       --spill <dir>,
//                                                       --max-resident <n>,
//                                                       --rate <events/s>
//   skc_cli client   <host> <port>                      REPL against a remote
//                                                       server (same commands)
//   skc_cli client   ... --tenant <id>                  address one namespace
//                                                       of a --tenants server
//                                                       (switch with `tenant`)
//   skc_cli trace-dump <host> <port> [out.json]         fetch the server's
//                                                       chrome://tracing JSON
//   skc_cli cluster-trace <host> <port> [out.json]      fetch a coordinator's
//                                                       fleet-merged timeline
//                                                       (one process lane per
//                                                       node, offsets applied)
//   skc_cli flight   <host> <port> [out.json]           fetch the slow-query
//                                                       flight recorder ring
//   skc_cli worker   <dim> <k> [shards] [log_delta] [--port N] [--trace]
//                    [--slow-ms <t>]                    cluster worker: engine
//                                                       on TCP, prints PORT <n>
//   skc_cli coordinator <dim> <k> [log_delta] --worker host:port ...
//                    [--tcp N] [--compose] [--trace] [--slow-ms <t>]
//                                                       cluster front end over
//                                                       the given workers
//
// Points are integer CSV rows; see src/skc/geometry/io.h for the format.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "skc/geometry/io.h"
#include "skc/skc.h"

namespace {

using namespace skc;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  skc_cli coreset  <points.csv> <k> [out.csv]\n"
               "  skc_cli solve    <points.csv> <k> [capacity_slack=1.1]\n"
               "  skc_cli assign   <points.csv> <k> [capacity_slack=1.1]\n"
               "  skc_cli generate <n> <k> <dim> <log_delta> [skew=1.0]\n"
               "  skc_cli serve    <dim> <k> [shards=4] [log_delta=12] "
               "[--tcp <port>] [--trace] [--slow-ms <t>]\n"
               "                   [--tenants] [--spill <dir>] "
               "[--max-resident <n>] [--rate <events/s>]\n"
               "  skc_cli client   <host> <port> [--tenant <id>]\n"
               "  skc_cli trace-dump <host> <port> [out.json]\n"
               "  skc_cli cluster-trace <host> <port> [out.json]\n"
               "  skc_cli flight   <host> <port> [out.json]\n"
               "  skc_cli worker   <dim> <k> [shards=4] [log_delta=12] "
               "[--port N] [--trace] [--slow-ms <t>]\n"
               "  skc_cli coordinator <dim> <k> [log_delta=12] "
               "--worker host:port [--worker ...] [--tcp N] [--compose]\n"
               "                   [--trace] [--slow-ms <t>]\n");
  return 2;
}

struct Loaded {
  PointSet points;
  int log_delta = 0;
};

/// Writes `text` to `path` ("-" = stdout).  Diagnostics on stderr.
bool write_text_file(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "error: short write to %s\n", path.c_str());
  return ok;
}

bool load(const std::string& path, Loaded& out) {
  PointsParseResult parsed = read_points_file(path);
  if (parsed.error) {
    std::fprintf(stderr, "error: %s:%zu: %s\n", path.c_str(), parsed.error->line,
                 parsed.error->message.c_str());
    return false;
  }
  if (parsed.points.empty()) {
    std::fprintf(stderr, "error: %s holds no points\n", path.c_str());
    return false;
  }
  if (parsed.points.min_coord() < 1) {
    std::fprintf(stderr, "error: coordinates must be >= 1 (grid [1, Delta]^d)\n");
    return false;
  }
  out.points = std::move(parsed.points);
  out.log_delta = grid_log_delta(out.points.max_coord());
  return true;
}

int cmd_coreset(int argc, char** argv) {
  if (argc < 4) return usage();
  Loaded data;
  if (!load(argv[2], data)) return 1;
  const int k = std::atoi(argv[3]);
  if (k < 1) return usage();

  const CoresetParams params = CoresetParams::practical(k, LrOrder{2.0}, 0.2, 0.2);
  Timer timer;
  const OfflineBuildResult built =
      build_offline_coreset(data.points, params, data.log_delta);
  if (!built.ok) {
    std::fprintf(stderr, "coreset construction failed\n");
    return 1;
  }
  std::fprintf(stderr,
               "coreset: %lld points (of %lld) in %.0f ms, total weight %.0f, o=%g\n",
               static_cast<long long>(built.coreset.points.size()),
               static_cast<long long>(data.points.size()), timer.millis(),
               built.coreset.total_weight(), built.coreset.o);
  if (argc >= 5) {
    if (!write_coreset_file(argv[4], built.coreset)) {
      std::fprintf(stderr, "error: cannot write %s\n", argv[4]);
      return 1;
    }
  } else {
    write_coreset(std::cout, built.coreset);
  }
  return 0;
}

int solve_common(int argc, char** argv, bool with_assignment) {
  if (argc < 4) return usage();
  Loaded data;
  if (!load(argv[2], data)) return 1;
  const int k = std::atoi(argv[3]);
  const double slack = argc >= 5 ? std::atof(argv[4]) : 1.1;
  if (k < 1 || slack < 1.0) return usage();

  const CoresetParams params = CoresetParams::practical(k, LrOrder{2.0}, 0.2, 0.2);
  const OfflineBuildResult built =
      build_offline_coreset(data.points, params, data.log_delta);
  if (!built.ok) {
    std::fprintf(stderr, "coreset construction failed\n");
    return 1;
  }
  const double n = static_cast<double>(data.points.size());
  const double t = tight_capacity(n, k) * slack;
  Rng rng(1);
  CapacitatedSolverOptions opts;
  opts.restarts = 2;
  opts.delta = Coord{1} << data.log_delta;
  const CapacitatedSolution sol = capacitated_kmeans(
      built.coreset.points, k, t * built.coreset.total_weight() / n, LrOrder{2.0},
      opts, rng);
  if (!sol.feasible) {
    std::fprintf(stderr, "no feasible balanced clustering at capacity %.0f\n", t);
    return 1;
  }
  std::fprintf(stderr, "balanced k-means: coreset cost %.6g, capacity %.0f\n",
               sol.cost, t);
  for (PointIndex c = 0; c < sol.centers.size(); ++c) {
    std::fprintf(stderr, "  center %lld: %s\n", static_cast<long long>(c),
                 to_string(sol.centers[c]).c_str());
  }
  if (!with_assignment) {
    write_points(std::cout, sol.centers);
    return 0;
  }
  const FullAssignment full = assign_via_coreset(
      data.points, params, data.log_delta, built.coreset, sol.centers, t);
  if (!full.feasible) {
    std::fprintf(stderr, "assignment construction failed\n");
    return 1;
  }
  std::fprintf(stderr, "assignment: cost %.6g, max load %.0f (%.0f%% of capacity)\n",
               full.cost, full.max_load, 100.0 * full.max_load / t);
  for (CenterIndex c : full.assignment) std::printf("%d\n", c);
  return 0;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 6) return usage();
  MixtureConfig cfg;
  cfg.n = std::atoll(argv[2]);
  cfg.clusters = std::atoi(argv[3]);
  cfg.dim = std::atoi(argv[4]);
  cfg.log_delta = std::atoi(argv[5]);
  cfg.skew = argc >= 7 ? std::atof(argv[6]) : 1.0;
  cfg.spread = 0.015;
  if (cfg.n < 1 || cfg.clusters < 1 || cfg.dim < 1 || cfg.log_delta < 2) {
    return usage();
  }
  Rng rng(42);
  write_points(std::cout, gaussian_mixture(cfg, rng));
  return 0;
}

/// Parses one port in [lo, 65535]; false on anything else.
bool parse_port(const std::string& text, long lo, std::uint16_t& port) {
  const long value = std::atol(text.c_str());
  if (value < lo || value > 65535) return false;
  port = static_cast<std::uint16_t>(value);
  return true;
}

// Command line shared by `serve`, `worker` and `coordinator`: the
// `<dim> <k> [shards] [log_delta]` positionals (`coordinator` takes no
// shards), --trace and --slow-ms applied on the spot, and every other flag
// the command declares kept by name, in command-line order.
struct NodeArgs {
  int dim = 0;
  int k = 0;
  int shards = 4;
  int log_delta = 12;
  std::vector<std::pair<std::string, std::string>> flags;
};

/// False on a malformed command line (the caller answers with usage()).
/// `valued` lists the command's flags that take a value, `bare` the rest.
bool parse_node_args(int argc, char** argv, bool with_shards,
                     std::initializer_list<std::string_view> valued,
                     std::initializer_list<std::string_view> bare,
                     NodeArgs& out) {
  const auto listed = [](std::initializer_list<std::string_view> names,
                         std::string_view arg) {
    return std::find(names.begin(), names.end(), arg) != names.end();
  };
  std::vector<const char*> pos;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace") {
      obs::Tracer::instance().set_enabled(true);
    } else if (arg == "--slow-ms") {
      if (i + 1 >= argc) return false;
      const double threshold = std::atof(argv[++i]);
      if (threshold < 0) return false;
      obs::FlightRecorder::instance().set_threshold_millis(threshold);
    } else if (listed(valued, arg)) {
      if (i + 1 >= argc) return false;
      out.flags.emplace_back(arg, argv[++i]);
    } else if (listed(bare, arg)) {
      out.flags.emplace_back(arg, "");
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.size() < 2 || pos.size() > (with_shards ? 4u : 3u)) return false;
  out.dim = std::atoi(pos[0]);
  out.k = std::atoi(pos[1]);
  std::size_t next = 2;
  if (with_shards && pos.size() > next) out.shards = std::atoi(pos[next++]);
  if (pos.size() > next) out.log_delta = std::atoi(pos[next]);
  // The grid needs log_delta in [1, kMaxLogDelta]; the REPLs need >= 2.
  return out.dim >= 1 && out.k >= 1 && out.shards >= 1 &&
         out.log_delta >= 2 && out.log_delta <= kMaxLogDelta;
}

/// The sketch configuration every node command derives from its arguments
/// (workers and coordinators must agree on it: WORKER_HELLO compares
/// fingerprints).
CoresetParams node_params(const NodeArgs& a) {
  return CoresetParams::practical(a.k, LrOrder{2.0}, 0.2, 0.2);
}

std::string node_shape(const NodeArgs& a) {
  char shape[128];
  std::snprintf(shape, sizeof(shape), "(dim=%d k=%d shards=%d log_delta=%d)",
                a.dim, a.k, a.shards, a.log_delta);
  return shape;
}

EngineOptions node_engine_options(const NodeArgs& a) {
  EngineOptions opts;
  opts.num_shards = a.shards;
  opts.streaming.log_delta = a.log_delta;
  return opts;
}

/// Reads the rest of a REPL line as one point: integer coordinates in
/// [lo, hi], exactly `dim` of them (`dim` 0: any positive count).  A value
/// outside the range — Coord's included — is refused, never wrapped.
bool parse_point(std::istream& in, const std::string& cmd, int dim,
                 long long lo, long long hi, std::vector<Coord>& point,
                 std::string& err) {
  point.clear();
  bool ok = true;
  for (std::string token; in >> token;) {
    long long value = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    ok = ok && ec == std::errc() && end == token.data() + token.size() &&
         value >= lo && value <= hi;
    if (ok) point.push_back(static_cast<Coord>(value));
  }
  if (ok && (dim > 0 ? point.size() == static_cast<std::size_t>(dim)
                     : !point.empty())) {
    return true;
  }
  err = cmd + " needs " + (dim > 0 ? std::to_string(dim) + " " : "") +
        "coordinates in [" + std::to_string(lo) + ", " + std::to_string(hi) +
        "]";
  return false;
}

/// Writes a fetched text to the path named next on the line ("-" or none =
/// stdout), answering `ok <path>` for a file.
void write_text_reply(std::istream& in, const std::string& text) {
  std::string path = "-";
  in >> path;
  if (!write_text_file(path, text)) {
    std::printf("err cannot write %s\n", path.c_str());
  } else if (path != "-") {
    std::printf("ok %s\n", path.c_str());
  }
}

/// A query answer as REPL lines: `ok n=...` plus one `center` line per
/// center, or `err <reason>` for a query-level miss.
void print_query(const net::QueryReply& res) {
  if (!res.ok) {
    std::printf("err %s\n", res.error.c_str());
    return;
  }
  std::printf("ok n=%lld summary=%llu capacity=%.0f cost=%.6g "
              "merge_ms=%.1f solve_ms=%.1f\n",
              static_cast<long long>(res.net_points),
              static_cast<unsigned long long>(res.summary_points), res.capacity,
              res.cost, res.merge_millis, res.solve_millis);
  const std::size_t dim = static_cast<std::size_t>(res.dim);
  for (std::size_t c = 0; dim > 0 && c + dim <= res.center_coords.size();
       c += dim) {
    std::printf("center");
    for (std::size_t i = 0; i < dim; ++i) {
      std::printf(" %d", res.center_coords[c + i]);
    }
    std::printf("\n");
  }
}

/// A front door's closing metrics JSON, on stderr.
void print_metrics(net::FrameServer& door) {
  std::string json;
  if (door.handle_metrics_json(json) == net::Status::kOk) {
    std::fprintf(stderr, "%s\n", json.c_str());
  }
}

// One line-oriented REPL over any in-process front door (`serve`, `serve
// --tenants`, `coordinator`).  Every command calls the operation hook the
// wire request table calls, so an operation the front door lacks answers
// `err unsupported`.  Reads commands from stdin, answers on stdout ("ok ..."
// / "err ..."), diagnostics on stderr — scriptable with a pipe, usable by
// hand.  Ends on `quit` or end of input with the metrics JSON on stderr.
// `extra` runs front-door-specific commands (false: not one of them).
int run_repl(
    net::FrameServer& door, const std::string& banner,
    const std::function<bool(const std::string&, std::istream&)>& extra = {}) {
  const int dim = door.dim();
  const long long max_coord = 1LL << door.log_delta();
  std::fprintf(stderr,
               "%s\n"
               "commands:  insert c1 .. c%d | delete c1 .. c%d | "
               "query [slack] | flush\n"
               "           metrics | prom | checkpoint <path> | "
               "cluster-trace [path]\n"
               "           tenant [id] | tenants | stats [id]\n"
               "           trace on|off|dump [path] | slow [ms] | "
               "flight [path] | quit\n",
               banner.c_str(), dim, dim);

  std::string current;  // addressed tenant ("" = default)
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    // A hook's text: its payload on success, the reason on a refusal.
    std::string text;
    net::Status status = net::Status::kOk;
    if (cmd == "insert" || cmd == "delete") {
      std::vector<Coord> p;
      if (!parse_point(in, cmd, dim, 1, max_coord, p, text)) {
        std::printf("err %s\n", text.c_str());
      } else {
        const Stream batch{StreamEvent{
            cmd == "insert" ? StreamOp::kInsert : StreamOp::kDelete,
            std::move(p)}};
        status = door.handle_ingest(current, batch, text);
        if (status == net::Status::kOk) std::printf("ok\n");
      }
    } else if (cmd == "query") {
      EngineQuery q;
      if (double slack = 0; in >> slack) q.capacity_slack = slack;
      EngineQueryResult res;
      status = door.handle_query(current, q, res, text);
      if (status == net::Status::kOk) print_query(net::to_query_reply(res));
    } else if (cmd == "flush") {
      status = door.handle_flush(text);
      if (status == net::Status::kOk) std::printf("ok\n");
    } else if (cmd == "metrics") {
      status = door.handle_metrics_json(text);
      if (status == net::Status::kOk) std::printf("%s\n", text.c_str());
    } else if (cmd == "prom") {
      status = door.handle_prometheus(text);
      if (status == net::Status::kOk) std::printf("%s", text.c_str());
    } else if (cmd == "checkpoint") {
      std::string path;
      in >> path;
      status = door.handle_checkpoint(current, path, text);
      if (status == net::Status::kOk) {
        std::printf("ok%s%s\n", path.empty() ? "" : " ", path.c_str());
      }
    } else if (cmd == "cluster-trace") {
      status = door.handle_cluster_trace(text);
      if (status == net::Status::kOk) write_text_reply(in, text);
    } else if (cmd == "tenant") {
      std::string id;
      in >> id;  // no argument = back to the default tenant
      if (!net::valid_tenant_id(id)) {
        std::printf("err invalid tenant id '%s'\n", id.c_str());
      } else {
        status = door.admit_tenant(id, text);
        if (status == net::Status::kOk) {
          current = id;
          std::printf("ok tenant '%s'\n", current.c_str());
        }
      }
    } else if (cmd == "tenants" || cmd == "stats") {
      std::string id = cmd == "stats" ? current : "";
      in >> id;
      status = door.handle_tenant_stats(id, text);
      if (status == net::Status::kOk) std::printf("%s\n", text.c_str());
    } else if (cmd == "trace") {
      std::string sub;
      in >> sub;
      if (sub == "on" || sub == "off") {
        obs::Tracer::instance().set_enabled(sub == "on");
        std::printf("ok tracing %s\n", sub.c_str());
      } else if (sub == "dump") {
        write_text_reply(in, obs::Tracer::instance().dump_chrome_json());
      } else {
        std::printf("err trace needs on|off|dump [path]\n");
      }
    } else if (cmd == "slow") {
      double threshold = 0;
      const bool set = static_cast<bool>(in >> threshold);
      if (set && threshold < 0) {
        std::printf("err slow threshold must be >= 0 ms\n");
      } else {
        if (set) obs::FlightRecorder::instance().set_threshold_millis(threshold);
        std::printf("ok slow threshold %.3f ms\n",
                    obs::FlightRecorder::instance().threshold_millis());
      }
    } else if (cmd == "flight") {
      write_text_reply(in, obs::FlightRecorder::instance().dump_json());
    } else if (!extra || !extra(cmd, in)) {
      std::printf("err unknown command '%s'\n", cmd.c_str());
    }
    if (status != net::Status::kOk) {
      std::printf("err %s%s%s\n", net::status_name(status),
                  text.empty() ? "" : ": ", text.c_str());
    }
    std::fflush(stdout);
  }
  print_metrics(door);
  return 0;
}

/// `serve --tcp` and `worker`: hosts `door` on 127.0.0.1 until a client
/// sends SHUTDOWN (or the process is killed), then prints its metrics JSON
/// on stderr.  Prints "PORT <n>" on stdout first, so spawners (and humans)
/// learn the kernel-assigned port of port 0.
int host_tcp(net::FrameServer& door, const std::string& what,
             const char* client_hint) {
  std::string error;
  if (!door.start(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("PORT %u\n", door.port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "%s listening on 127.0.0.1:%u\n"
               "drive it with: skc_cli client 127.0.0.1 %u%s\n",
               what.c_str(), door.port(), door.port(), client_hint);
  door.wait();
  door.stop();
  print_metrics(door);
  return 0;
}

// `serve`: one ClusteringEngine (or, with --tenants, a TenantRegistry where
// every stream id owns an independent namespace) behind the shared REPL, or
// with --tcp <port> behind a TCP front door (drive it with `skc_cli
// client`; port 0 picks an ephemeral port, printed to stderr).
int cmd_serve(int argc, char** argv) {
  NodeArgs a;
  if (!parse_node_args(argc, argv, /*with_shards=*/true,
                       {"--tcp", "--spill", "--max-resident", "--rate"},
                       {"--tenants"}, a)) {
    return usage();
  }
  bool tcp = false, tenants = false;
  net::ServerOptions sopts;
  tenant::TenantRegistryOptions topts;
  topts.max_resident = 256;
  for (const auto& [flag, value] : a.flags) {
    if (flag == "--tcp") {
      tcp = true;
      if (!parse_port(value, 0, sopts.port)) return usage();
    } else if (flag == "--tenants") {
      tenants = true;
    } else if (flag == "--spill") {
      topts.spill_dir = value;
    } else if (flag == "--max-resident") {
      topts.max_resident = std::atoi(value.c_str());
      if (topts.max_resident < 1) return usage();
    } else if (flag == "--rate") {
      topts.quotas.max_events_per_second = std::atof(value.c_str());
      if (topts.quotas.max_events_per_second < 0) return usage();
    }
  }
  if (tenants) {
    topts.dim = a.dim;
    topts.params = node_params(a);
    topts.engine = node_engine_options(a);
    tenant::TenantRegistry registry(topts);
    tenant::TenantServer door(registry, sopts);
    const std::string what = "tenant registry " + node_shape(a);
    return tcp ? host_tcp(door, what, " --tenant <id>") : run_repl(door, what);
  }

  ClusteringEngine engine(a.dim, node_params(a), node_engine_options(a));
  int rc = 0;
  {
    net::EngineServer door(engine, sopts);
    const std::string what = "engine " + node_shape(a);
    // Engine-only: restore a checkpoint written by `checkpoint <path>`.
    const auto restore = [&](const std::string& cmd, std::istream& in) {
      if (cmd != "restore") return false;
      std::string path;
      if (!(in >> path)) {
        std::printf("err restore needs a path\n");
      } else {
        std::printf(engine.restore(path) ? "ok %s\n" : "err %s failed\n",
                    path.c_str());
      }
      return true;
    };
    rc = tcp ? host_tcp(door, what, "") : run_repl(door, what, restore);
  }
  engine.shutdown();
  return rc;
}

/// Connects `client` to `<host> <port>`: 0 when connected, the usage exit
/// code for a bad port, 1 (reason on stderr) when the connect fails.
int connect_client(net::SkcClient& client, const std::string& host,
                   const std::string& port_text) {
  std::uint16_t port = 0;
  if (!parse_port(port_text, 1, port)) return usage();
  if (client.connect(host, port)) return 0;
  std::fprintf(stderr, "error: connect %s:%u: %s\n", host.c_str(), port,
               client.last_error().c_str());
  return 1;
}

/// The JSON-fetching RPCs, by command name: `trace-dump`, `cluster-trace`
/// or `flight`.
bool fetch_json(net::SkcClient& client, std::string_view what,
                std::string& json) {
  return what == "trace-dump"      ? client.trace_json(json)
         : what == "cluster-trace" ? client.cluster_trace_json(json)
                                   : client.flight_recorder_json(json);
}

// REPL against a remote front door — the network twin of run_repl,
// speaking the same commands over SkcClient.  The point dimension lives
// server-side, so insert/delete take however many coordinates appear on the
// line (each must fit a Coord; the server checks dimension and [1, Delta]).
int cmd_client(int argc, char** argv) {
  std::vector<const char*> pos;
  std::string tenant_id;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--tenant")) {
      if (i + 1 >= argc) return usage();
      tenant_id = argv[++i];
      if (!net::valid_tenant_id(tenant_id)) {
        std::fprintf(stderr, "error: invalid tenant id '%s'\n",
                     tenant_id.c_str());
        return 2;
      }
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.size() < 2) return usage();
  net::SkcClient client;
  client.set_tenant(tenant_id);
  if (const int rc = connect_client(client, pos[0], pos[1]); rc != 0) {
    return rc;
  }
  std::fprintf(stderr,
               "connected to %s:%s (tenant '%s')\n"
               "commands:  insert c1 c2 .. | delete c1 c2 .. | query [slack]\n"
               "           ping | metrics | prom | trace-dump [path]\n"
               "           cluster-trace [path] | flight [path]\n"
               "           tenant [id] | tenant-stats\n"
               "           checkpoint <path> | shutdown | quit\n",
               pos[0], pos[1], tenant_id.c_str());

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    std::string text;
    // One RPC's outcome: `done` on success, the client's error otherwise.
    const auto answer = [&](bool ok, const std::string& done) {
      if (ok) {
        std::printf("%s", done.c_str());
      } else {
        std::printf("err %s\n", client.last_error().c_str());
      }
    };
    if (cmd == "insert" || cmd == "delete") {
      std::vector<Coord> p;
      if (!parse_point(in, cmd, /*dim=*/0, std::numeric_limits<Coord>::min(),
                       std::numeric_limits<Coord>::max(), p, text)) {
        std::printf("err %s\n", text.c_str());
      } else {
        answer(cmd == "insert" ? client.insert(p) : client.erase(p), "ok\n");
      }
    } else if (cmd == "query") {
      net::QueryRequest req;
      if (double slack = 0; in >> slack) req.capacity_slack = slack;
      net::QueryReply res;
      if (client.query(req, res)) {
        print_query(res);
      } else {
        answer(false, "");
      }
    } else if (cmd == "ping") {
      answer(client.ping(), "ok\n");
    } else if (cmd == "metrics") {
      answer(client.metrics_json(text), text + "\n");
    } else if (cmd == "prom") {
      answer(client.prometheus_text(text), text);
    } else if (cmd == "tenant") {
      std::string id;
      in >> id;  // no argument = back to the default tenant
      if (!net::valid_tenant_id(id)) {
        std::printf("err invalid tenant id '%s'\n", id.c_str());
      } else {
        client.set_tenant(id);
        std::printf("ok tenant '%s'\n", id.c_str());
      }
    } else if (cmd == "tenant-stats") {
      answer(client.tenant_stats(text), text + "\n");
    } else if (cmd == "trace-dump" || cmd == "cluster-trace" ||
               cmd == "flight") {
      if (fetch_json(client, cmd, text)) {
        write_text_reply(in, text);
      } else {
        answer(false, "");
      }
    } else if (cmd == "checkpoint") {
      std::string path;
      if (!(in >> path)) {
        std::printf("err checkpoint needs a server-side path\n");
      } else {
        std::printf(client.checkpoint(path) ? "ok %s\n" : "err %s failed\n",
                    path.c_str());
      }
    } else if (cmd == "shutdown") {
      answer(client.shutdown_server(), "ok server draining\n");
      if (client.last_status() == net::Status::kOk) break;
    } else {
      std::printf("err unknown command '%s'\n", cmd.c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

// Cluster worker: one engine behind an EngineServer, configured exactly
// like `skc_cli coordinator` configures itself (node_params — the
// WORKER_HELLO fingerprint handshake refuses a drifted pairing).
int cmd_worker(int argc, char** argv) {
  NodeArgs a;
  if (!parse_node_args(argc, argv, /*with_shards=*/true, {"--port"}, {}, a)) {
    return usage();
  }
  net::ServerOptions sopts;
  for (const auto& [flag, value] : a.flags) {
    if (!parse_port(value, 0, sopts.port)) return usage();
  }
  ClusteringEngine engine(a.dim, node_params(a), node_engine_options(a));
  int rc = 0;
  {
    net::EngineServer door(engine, sopts);
    rc = host_tcp(door, "worker " + node_shape(a), "");
  }
  engine.shutdown();
  return rc;
}

// Cluster coordinator: dials the given workers, serves the same wire
// protocol on its own TCP port (drive it with `skc_cli client`), and runs
// the shared REPL locally.
int cmd_coordinator(int argc, char** argv) {
  NodeArgs a;
  if (!parse_node_args(argc, argv, /*with_shards=*/false,
                       {"--worker", "--tcp"}, {"--compose"}, a)) {
    return usage();
  }
  cluster::CoordinatorOptions copts;
  for (const auto& [flag, value] : a.flags) {
    if (flag == "--worker") {
      const std::size_t colon = value.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "error: --worker needs host:port, got %s\n",
                     value.c_str());
        return 2;
      }
      cluster::WorkerAddress w{value.substr(0, colon), 0};
      if (!parse_port(value.substr(colon + 1), 1, w.port)) return usage();
      copts.workers.push_back(std::move(w));
    } else if (flag == "--tcp") {
      if (!parse_port(value, 0, copts.server.port)) return usage();
    } else if (flag == "--compose") {
      copts.merge_mode = MergeMode::kCompose;
    }
  }
  if (copts.workers.empty()) return usage();
  copts.dim = a.dim;
  copts.params = node_params(a);
  copts.streaming.log_delta = a.log_delta;

  cluster::ClusterCoordinator coordinator(copts);
  std::string error;
  if (!coordinator.connect(error) || !coordinator.start(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  char banner[128];
  std::snprintf(banner, sizeof(banner),
                "coordinator on 127.0.0.1:%u over %d worker(s)",
                coordinator.port(), coordinator.workers());
  const auto shutdown_workers = [&](const std::string& cmd, std::istream&) {
    if (cmd != "shutdown-workers") return false;
    coordinator.shutdown_workers();
    std::printf("ok\n");
    return true;
  };
  const int rc = run_repl(coordinator, banner, shutdown_workers);
  coordinator.stop();
  return rc;
}

// One-shot TRACE_DUMP / CLUSTER_TRACE_DUMP RPC: fetch the server's span
// rings as chrome://tracing JSON and write them to a file (or stdout) —
// load the result at chrome://tracing or https://ui.perfetto.dev.  The
// cluster variant asks a coordinator for the fleet-merged timeline: every
// worker's ring pulled, clock-offset corrected, one process lane per node.
int cmd_trace_dump(int argc, char** argv) {
  if (argc < 4) return usage();
  net::SkcClient client;
  if (const int rc = connect_client(client, argv[2], argv[3]); rc != 0) {
    return rc;
  }
  const std::string path = argc >= 5 ? argv[4] : "-";
  std::string json;
  if (!fetch_json(client, argv[1], json)) {
    std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
    return 1;
  }
  return write_text_file(path, json) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (!std::strcmp(argv[1], "coreset")) return cmd_coreset(argc, argv);
  if (!std::strcmp(argv[1], "solve")) return solve_common(argc, argv, false);
  if (!std::strcmp(argv[1], "assign")) return solve_common(argc, argv, true);
  if (!std::strcmp(argv[1], "generate")) return cmd_generate(argc, argv);
  if (!std::strcmp(argv[1], "serve")) return cmd_serve(argc, argv);
  if (!std::strcmp(argv[1], "worker")) return cmd_worker(argc, argv);
  if (!std::strcmp(argv[1], "coordinator")) return cmd_coordinator(argc, argv);
  if (!std::strcmp(argv[1], "client")) return cmd_client(argc, argv);
  if (!std::strcmp(argv[1], "trace-dump") ||
      !std::strcmp(argv[1], "cluster-trace") ||
      !std::strcmp(argv[1], "flight")) {
    return cmd_trace_dump(argc, argv);
  }
  return usage();
}
