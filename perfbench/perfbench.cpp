// perfbench — the measuring program behind perfbench/run.py.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out RAW.json --harness PATH --tmp DIR
//
// Runs one workload against the library's public API and writes the raw
// observations to RAW.json: timing samples, single values, correctness
// checks, operation counts, and (with --trace 1) the spans recorded around
// every public call.  run.py turns them into the reported metrics; the
// workloads, metrics and the layer each metric belongs to are described in
// perfbench/README.md.
//
// With --trace 0 only the workload's own phase runs (end-to-end numbers).
// With --trace 1 the phase runs twice, untraced then traced (the ingest
// rate ratio is the tracing overhead), followed by the layer pass: every
// layer's public calls timed on this workload's events and configuration.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "skc/skc.h"

namespace {

using namespace skc;
using Clock = std::chrono::steady_clock;

constexpr int kDim = 2;
constexpr int kK = 4;
constexpr std::size_t kEngineBatch = 256;
constexpr std::size_t kWireBatch = 512;
// Every percentile the benchmark reports needs ten samples beyond it, so
// latency loops run at least this many operations (p90 of 110 samples).
constexpr int kMinQueries = 110;
// Tenant and cluster data live on a 2^8 grid: on 2^6 the mixture piles its
// duplicates onto a few cells, which saturates the small CountMin and puts
// OPT far below the o-range hint (a summary can then hold fewer than k
// points, and a full solve on it aborts).
constexpr int kTenantLogDelta = 8;
constexpr int kClusterLogDelta = 8;

const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

double since_ms(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Spans: recorded by this program around calls into the library, kept in
// memory, written with the observations.  A span's parent is the span open
// on the same thread when it started; a root span starts a new trace id.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  int tid = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

class SpanLog {
 public:
  static SpanLog& get() {
    static SpanLog log;
    return log;
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  void add(const SpanRecord& r) {
    std::lock_guard<std::mutex> lock(mu_);
    if (records_.size() < kMaxSpans) {
      records_.push_back(r);
    } else {
      ++dropped_;
    }
  }
  std::vector<SpanRecord> records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }
  std::int64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  static constexpr std::size_t kMaxSpans = 400'000;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  std::int64_t dropped_ = 0;
};

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

struct OpenSpan {
  std::uint64_t id;
  std::uint64_t trace;
};
thread_local std::vector<OpenSpan> t_open_spans;

class Span {
 public:
  explicit Span(const char* name) {
    SpanLog& log = SpanLog::get();
    if (!log.enabled()) return;
    active_ = true;
    rec_.name = name;
    rec_.id = log.next_id();
    if (t_open_spans.empty()) {
      rec_.trace = rec_.id;
    } else {
      rec_.parent = t_open_spans.back().id;
      rec_.trace = t_open_spans.back().trace;
    }
    rec_.tid = thread_index();
    t_open_spans.push_back({rec_.id, rec_.trace});
    rec_.start_us = now_us();
  }
  ~Span() {
    if (!active_) return;
    rec_.end_us = now_us();
    t_open_spans.pop_back();
    SpanLog::get().add(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord rec_;
};

// ---------------------------------------------------------------------------
// Observations: everything run.py needs, thread-safe.
// ---------------------------------------------------------------------------

class Observations {
 public:
  void sample(const std::string& series, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    series_[series].push_back(v);
  }
  void samples(const std::string& series, const std::vector<double>& vs) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& dst = series_[series];
    dst.insert(dst.end(), vs.begin(), vs.end());
  }
  void set(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] = v;
  }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    std::lock_guard<std::mutex> lock(mu_);
    checks_.push_back({name, ok, detail});
    if (!ok) std::fprintf(stderr, "perfbench: CHECK FAILED: %s %s\n", name.c_str(), detail.c_str());
  }
  /// One client operation attempted; `ok` false counts it as failed.
  void op(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  void meta(const std::string& key, const std::string& value) {
    std::lock_guard<std::mutex> lock(mu_);
    meta_[key] = value;
  }
  std::size_t count(const std::string& series) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = series_.find(series);
    return it == series_.end() ? 0 : it->second.size();
  }

  bool write(const std::string& path, bool with_spans) const;

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> values_;
  std::vector<Check> checks_;
  std::map<std::string, std::string> meta_;
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool Observations::write(const std::string& path, bool with_spans) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"series\":{";
  bool first = true;
  for (const auto& [name, vs] : series_) {
    out << (first ? "" : ",") << json_string(name) << ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out << (i ? "," : "") << json_number(vs[i]);
    }
    out << "]";
    first = false;
  }
  out << "},\"values\":{";
  first = true;
  for (const auto& [name, v] : values_) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  out << "},\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    out << (i ? "," : "") << "{\"name\":" << json_string(checks_[i].name)
        << ",\"ok\":" << (checks_[i].ok ? "true" : "false")
        << ",\"detail\":" << json_string(checks_[i].detail) << "}";
  }
  out << "],\"ops\":{\"attempted\":" << attempted_.load()
      << ",\"failed\":" << failed_.load() << "},\"meta\":{";
  first = true;
  for (const auto& [k, v] : meta_) {
    out << (first ? "" : ",") << json_string(k) << ":" << json_string(v);
    first = false;
  }
  out << "},\"spans\":[";
  if (with_spans) {
    const std::vector<SpanRecord> spans = SpanLog::get().records();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      out << (i ? "," : "") << "[" << json_string(s.name) << "," << s.tid
          << "," << json_number(s.start_us) << "," << json_number(s.end_us)
          << "," << s.id << "," << s.parent << "," << s.trace << "]";
    }
  }
  out << "],\"spans_dropped\":" << SpanLog::get().dropped() << "}\n";
  out.flush();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Configuration and inputs.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out;
  std::string harness;
  std::string tmp;
};

CoresetParams bench_params() {
  return CoresetParams::practical(kK, LrOrder{2.0}, 0.3, 0.3);
}

/// The churn configuration of ingest_churn and query_under_ingest: the full
/// theoretical o-range (every guess live, so per-guess ingest work
/// dominates) on a 2^8 grid with the small E14 CountMin.
StreamingOptions churn_streaming(std::int64_t max_points) {
  StreamingOptions opt;
  opt.log_delta = 8;
  opt.max_points = static_cast<PointIndex>(max_points);
  opt.counting_samples = 16.0;
  opt.countmin_width = 128;
  opt.countmin_depth = 2;
  return opt;
}

/// The E14 serving configuration of tenant_wire: an o-range hint (~8
/// guesses) and the small CountMin, so each tenant sketch is small.
StreamingOptions tenant_streaming() {
  StreamingOptions opt;
  opt.log_delta = kTenantLogDelta;
  opt.max_points = PointIndex{1} << 16;
  opt.o_min = 1e6;
  opt.o_max = 2.56e8;
  opt.counting_samples = 16.0;
  opt.countmin_width = 128;
  opt.countmin_depth = 2;
  return opt;
}

/// The cluster configuration: E16's default sketch sizes with an o-range
/// hint.  cluster_harness derives the same options from the flags in
/// worker_args(); the WORKER_HELLO fingerprint refuses any drift.
StreamingOptions cluster_streaming() {
  StreamingOptions opt;
  opt.log_delta = kClusterLogDelta;
  opt.o_min = 1e5;
  opt.o_max = 2.56e8;
  return opt;
}

std::vector<std::string> worker_args(bool exact) {
  if (exact) return {"worker", "--log-delta", "6", "--exact"};
  return {"worker", "--log-delta", std::to_string(kClusterLogDelta),
          "--o-min", "1e5", "--o-max", "2.56e8"};
}

/// Skewed Gaussian mixture: n points around k planted centers fixed by
/// `shape`, with cluster sizes ~ (i+1)^-1.3.
PointSet mixture(PointIndex n, int log_delta, std::uint64_t shape, Rng& rng) {
  const double delta = static_cast<double>(Coord{1} << log_delta);
  Rng crng(shape);
  std::array<std::array<double, kDim>, kK> centers{};
  std::array<double, kK> share{};
  double total = 0.0;
  for (int c = 0; c < kK; ++c) {
    for (double& x : centers[static_cast<std::size_t>(c)]) {
      x = crng.uniform(0.15 * delta, 0.85 * delta);
    }
    share[static_cast<std::size_t>(c)] = std::pow(c + 1.0, -1.3);
    total += share[static_cast<std::size_t>(c)];
  }
  PointSet out(kDim);
  out.reserve(n);
  for (PointIndex i = 0; i < n; ++i) {
    double u = rng.uniform() * total;
    std::size_t c = 0;
    while (c + 1 < kK && u > share[c]) u -= share[c++];
    std::array<Coord, kDim> p{};
    for (std::size_t d = 0; d < kDim; ++d) {
      const double x = std::round(rng.gaussian(centers[c][d], 0.015 * delta));
      p[d] = static_cast<Coord>(std::clamp(x, 1.0, delta));
    }
    out.push_back(std::span<const Coord>(p.data(), p.size()));
  }
  return out;
}

/// Dynamic stream whose survivors are `n` mixture points: extras (n/4) are
/// inserted and deleted again at random later positions.
///
/// The surviving set is fixed by (shape, set); the workload seed (`rng`)
/// draws the churned extras and the event order.  The accepted o-guess, and
/// with it the coreset size, query time and cost, is a discrete function of
/// the survivors, so survivors drawn from the seed would make those metrics
/// jump between seeds; a fixed set keeps every seed the same workload.
PointSet survivor_set(PointIndex n, int log_delta, std::uint64_t shape,
                      std::uint64_t set) {
  Rng survivor_rng(shape * 0x100000001B3ULL + set);
  return mixture(n, log_delta, shape, survivor_rng);
}

Stream churn_events(PointIndex n, int log_delta, std::uint64_t shape,
                    std::uint64_t set, Rng& rng) {
  const PointSet survivors = survivor_set(n, log_delta, shape, set);
  const PointSet extra = mixture(n / 4, log_delta, shape, rng);
  return churn_stream(survivors, extra, ChurnConfig{}, rng);
}

/// Insert every point, deleting each one again kChurnWindow insertions
/// later (the tail is deleted at the end).
Stream windowed_churn(const PointSet& points) {
  constexpr PointIndex kChurnWindow = 256;
  Stream out;
  out.reserve(static_cast<std::size_t>(2 * points.size()));
  auto point = [&](PointIndex i) {
    const auto p = points[i];
    return Point(p.begin(), p.end());
  };
  for (PointIndex i = 0; i < points.size(); ++i) {
    out.push_back({StreamOp::kInsert, point(i)});
    if (i >= kChurnWindow) out.push_back({StreamOp::kDelete, point(i - kChurnWindow)});
  }
  for (PointIndex i = std::max<PointIndex>(0, points.size() - kChurnWindow);
       i < points.size(); ++i) {
    out.push_back({StreamOp::kDelete, point(i)});
  }
  return out;
}

std::int64_t net_of(const Stream& s, std::size_t end) {
  std::int64_t net = 0;
  for (std::size_t i = 0; i < std::min(end, s.size()); ++i) {
    net += s[i].op == StreamOp::kInsert ? 1 : -1;
  }
  return net;
}

std::vector<Stream> split_batches(const Stream& s, std::size_t batch) {
  std::vector<Stream> out;
  for (std::size_t at = 0; at < s.size(); at += batch) {
    const std::size_t end = std::min(s.size(), at + batch);
    out.emplace_back(s.begin() + static_cast<long>(at),
                     s.begin() + static_cast<long>(end));
  }
  return out;
}

/// Median of the samples (0 when empty).
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  struct rusage self{};
  struct rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is KiB on Linux; reaped worker processes count too.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

bool valid_answer(const EngineQueryResult& r, std::int64_t expected_net) {
  return r.ok && r.solution.feasible &&
         r.solution.centers.size() == static_cast<PointIndex>(kK) &&
         (expected_net < 0 || r.net_points == expected_net);
}

/// Mean capacitated cost per surviving point of a query's solution.
double cost_per_point(const EngineQueryResult& r) {
  return r.net_points > 0 ? r.solution.cost / static_cast<double>(r.net_points)
                          : 0.0;
}

/// The query behind solution_cost: best of several solver restarts, so the
/// number describes the summary rather than one k-means++ draw.
EngineQuery quality_query() {
  EngineQuery q;
  q.solver_restarts = 4;
  return q;
}

void quality_cost(Observations& obs, const EngineQueryResult& r) {
  obs.check("quality_query_valid", valid_answer(r, -1), r.error);
  obs.sample("query_cost_per_point", cost_per_point(r));
}

/// solution_cost for an in-process engine workload: a quality query on a
/// 1-shard engine fed the same batches.  One builder's summary does not
/// depend on how a shard split interleaved the stream, so the number is the
/// same for every seed of a workload.
void reference_cost(Observations& obs, const std::vector<Stream>& batches,
                    EngineOptions eo) {
  eo.num_shards = 1;
  ClusteringEngine engine(kDim, bench_params(), eo);
  for (const Stream& b : batches) engine.submit(b);
  quality_cost(obs, engine.query(quality_query()));
}

struct Deadline {
  Clock::time_point end;
  explicit Deadline(double seconds)
      : end(Clock::now() + std::chrono::microseconds(
                               static_cast<std::int64_t>(seconds * 1e6))) {}
  bool passed() const { return Clock::now() >= end; }
};

// ---------------------------------------------------------------------------
// Shared measurements.
// ---------------------------------------------------------------------------

/// Two-sided coreset envelope on a fixed small stream (n = 1500, the same
/// for every seed): slack = min((1+eps) - q_upper, q_lower - 1/(1+eps)).
/// Negative slack breaks the strong-coreset guarantee.
void measure_envelope(Observations& obs) {
  Span span("check.envelope");
  const int log_delta = 10;
  const CoresetParams params = bench_params();
  Rng rng(20230614);
  const PointSet full = mixture(1500, log_delta, 0xE7E1, rng);
  const PointSet extra = mixture(375, log_delta, 0xE7E1, rng);
  const Stream stream = churn_stream(full, extra, ChurnConfig{}, rng);
  StreamingOptions opt;  // default options, as a deployment would run them
  opt.log_delta = log_delta;
  StreamingCoresetBuilder builder(kDim, params, opt);
  builder.consume(stream);
  const StreamingResult built = builder.finalize();
  if (!built.ok) {
    obs.check("envelope.finalize", false, "streaming coreset FAILed");
    return;
  }
  const WeightedPointSet& summary = built.coreset.points;
  const double n = static_cast<double>(full.size());
  const double w = summary.total_weight();
  const double relax = 1.0 + params.eta;
  double upper = 0.0, lower = 1e30;
  int infeasible = 0;
  // One good (k-means++) and one bad (uniform) center set, each at a tight
  // and a loose capacity.
  for (int probe = 0; probe < 2; ++probe) {
    Rng prng(77 + static_cast<std::uint64_t>(probe));
    const PointSet centers =
        probe % 2 == 0 ? kmeanspp_seed(WeightedPointSet::unit(full), kK,
                                       params.r, prng)
                       : uniform_points(kDim, log_delta, kK, prng);
    for (const double slack : {1.05, 1.4}) {
      const double t = tight_capacity(n, kK) * slack;
      const double full_t = capacitated_cost(full, centers, t, params.r);
      const double full_relaxed =
          capacitated_cost(full, centers, t * relax * relax, params.r);
      const double s_cost =
          capacitated_cost(summary, centers, (t * w / n) * relax, params.r);
      if (s_cost >= kInfCost) {
        ++infeasible;
        continue;
      }
      if (full_t > 0) upper = std::max(upper, s_cost / full_t);
      if (full_relaxed > 0) lower = std::min(lower, s_cost / full_relaxed);
    }
  }
  const double eps = params.epsilon;
  const double slack = std::min((1.0 + eps) - upper, lower - 1.0 / (1.0 + eps));
  obs.set("envelope_slack", slack);
  obs.set("envelope_q_upper", upper);
  obs.set("envelope_q_lower", lower);
  char detail[128];
  std::snprintf(detail, sizeof(detail), "q_upper=%.4f q_lower=%.4f infeasible=%d",
                upper, lower, infeasible);
  obs.check("envelope_slack_nonnegative", slack >= 0.0 && infeasible == 0, detail);
}

/// Order-insensitive exact comparison of two coresets (coordinates and
/// weights, bit for bit).
bool same_coreset(const WeightedPointSet& a, const WeightedPointSet& b) {
  if (a.size() != b.size() || a.dim() != b.dim()) return false;
  auto rows = [](const WeightedPointSet& s) {
    std::vector<std::pair<std::vector<Coord>, double>> out;
    for (PointIndex i = 0; i < s.size(); ++i) {
      const auto p = s.point(i);
      out.emplace_back(std::vector<Coord>(p.begin(), p.end()), s.weight(i));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  return rows(a) == rows(b);
}

/// Small exact-mode stream for the bit-identity checks.
Stream exact_stream(std::uint64_t seed) {
  Rng rng(seed ^ 0xE8AC7ULL);
  return churn_events(1200, 6, 0xE8AC7, seed, rng);
}

StreamingOptions exact_streaming() {
  StreamingOptions opt;
  opt.log_delta = 6;
  opt.exact_storing = true;
  return opt;
}

WeightedPointSet single_builder_coreset(const Stream& s, const CoresetParams& params,
                                        const StreamingOptions& opt) {
  StreamingCoresetBuilder b(kDim, params, opt);
  b.consume(s);
  const StreamingResult r = b.finalize();
  return r.ok ? r.coreset.points : WeightedPointSet(kDim);
}

void check_exact_engine(Observations& obs, std::uint64_t seed) {
  Span span("check.exact_engine");
  const Stream s = exact_stream(seed);
  EngineOptions eo;
  eo.num_shards = 3;
  eo.streaming = exact_streaming();
  ClusteringEngine engine(kDim, bench_params(), eo);
  for (const Stream& b : split_batches(s, kEngineBatch)) engine.submit(b);
  EngineQuery q;
  q.summary_only = true;
  const EngineQueryResult r = engine.query(q);
  const WeightedPointSet ref = single_builder_coreset(s, bench_params(), eo.streaming);
  obs.check("exact_identity.engine_3_shards",
            r.ok && ref.size() > 0 && same_coreset(r.summary.points, ref));
}

/// The registry derives each tenant's hash seed from the registry seed and
/// the stream id (TenantRegistry::make_engine); the reference builder has
/// to use the same seed to be comparable.
std::uint64_t tenant_seed(std::uint64_t registry_seed, const std::string& id) {
  std::uint64_t h = 0x746e74696431ULL;  // "tntid1"
  for (const char ch : id) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    h = splitmix64(h);
  }
  std::uint64_t state = registry_seed ^ h;
  return splitmix64(state);
}

void check_exact_tenant(Observations& obs, std::uint64_t seed,
                        const std::string& tmp) {
  Span span("check.exact_tenant");
  const Stream s = exact_stream(seed);
  const Stream other = exact_stream(seed + 1);
  const std::string spill = tmp + "/exact_spill";
  std::filesystem::create_directories(spill);
  tenant::TenantRegistryOptions ro;
  ro.dim = kDim;
  ro.params = bench_params();
  ro.engine.num_shards = 2;
  ro.engine.streaming = exact_streaming();
  ro.num_rungs = 1;
  ro.pool_threads = 0;
  ro.max_resident = 1;  // alternate two tenants: every touch spills/restores
  ro.spill_dir = spill;
  bool ok = true;
  EngineQueryResult r;
  {
    tenant::TenantRegistry registry(ro);
    const std::vector<Stream> a = split_batches(s, kEngineBatch);
    const std::vector<Stream> b = split_batches(other, kEngineBatch);
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      if (i < a.size()) ok &= registry.submit("exact-a", a[i]) == tenant::Admit::kOk;
      if (i < b.size()) ok &= registry.submit("exact-b", b[i]) == tenant::Admit::kOk;
    }
    EngineQuery q;
    q.summary_only = true;
    ok &= registry.query("exact-a", q, r) == tenant::Admit::kOk;
    ok &= registry.stats().restores > 0;
  }
  CoresetParams p = bench_params();
  p.seed = tenant_seed(p.seed, "exact-a");
  const WeightedPointSet ref = single_builder_coreset(s, p, ro.engine.streaming);
  obs.check("exact_identity.tenant_spill_restore",
            ok && r.ok && ref.size() > 0 && same_coreset(r.summary.points, ref));
  std::filesystem::remove_all(spill);
}

bool spawn_workers(const std::string& harness, bool exact,
                   std::vector<std::unique_ptr<cluster::WorkerProcess>>& ws,
                   std::string& error) {
  ws.clear();
  for (int i = 0; i < 2; ++i) {
    auto w = std::make_unique<cluster::WorkerProcess>();
    cluster::WorkerProcessOptions wo;
    wo.binary = harness;
    wo.args = worker_args(exact);
    if (!w->spawn(wo)) {
      error = w->error();
      return false;
    }
    ws.push_back(std::move(w));
  }
  return true;
}

cluster::CoordinatorOptions coordinator_options(
    const std::vector<std::unique_ptr<cluster::WorkerProcess>>& ws,
    const StreamingOptions& streaming) {
  cluster::CoordinatorOptions co;
  co.dim = kDim;
  co.params = bench_params();
  co.streaming = streaming;
  for (const auto& w : ws) co.workers.push_back({"127.0.0.1", w->port()});
  return co;
}

void check_exact_cluster(Observations& obs, const Args& args) {
  Span span("check.exact_cluster");
  const Stream s = exact_stream(args.seed);
  std::vector<std::unique_ptr<cluster::WorkerProcess>> ws;
  std::string error;
  bool ok = spawn_workers(args.harness, true, ws, error);
  EngineQueryResult r;
  StreamingOptions opt = exact_streaming();
  if (ok) {
    cluster::ClusterCoordinator coord(coordinator_options(ws, opt));
    ok = coord.connect(error);
    if (ok) {
      for (const Stream& b : split_batches(s, kWireBatch)) ok &= coord.submit(b);
      EngineQuery q;
      q.summary_only = true;
      r = coord.query(q);
      coord.shutdown_workers();
    }
  }
  for (auto& w : ws) w->wait();
  const WeightedPointSet ref = single_builder_coreset(s, bench_params(), opt);
  obs.check("exact_identity.cluster_2_workers",
            ok && r.ok && ref.size() > 0 && same_coreset(r.summary.points, ref),
            error);
}

/// Failover for an in-process engine: the time for a replacement engine to
/// restore the last checkpoint (`path`) and answer a summary query (the
/// solver's share is measured by the query metrics).
void engine_restore_trial(Observations& obs, const std::string& path,
                          const EngineOptions& eo, std::int64_t expected) {
  Span span("engine.restore_and_query");
  const auto t0 = Clock::now();
  auto engine = std::make_unique<ClusteringEngine>(kDim, bench_params(), eo);
  bool ok = engine->restore(path);
  EngineQuery q;
  q.summary_only = true;
  if (ok) {
    const EngineQueryResult r = engine->query(q);
    ok = r.ok && r.net_points == expected && r.summary.points.size() > 0;
  }
  const double ms = since_ms(t0);
  obs.op(ok);
  obs.check("engine_restore_answers", ok);
  obs.sample("failover_s", ms / 1e3);
}

struct FeedResult {
  double seconds = 0.0;
  std::int64_t backlog_max = 0;
  double flush_ms = 0.0;
};

/// Closed-loop single producer: submit every batch, then take the epoch
/// barrier.  Per-batch submit latency is the closed-loop ingest lag.
FeedResult feed_engine(ClusteringEngine& engine, const std::vector<Stream>& batches,
                       Observations& obs, const char* lag_series) {
  FeedResult fr;
  std::vector<double> lag;
  lag.reserve(batches.size());
  const auto t0 = Clock::now();
  for (const Stream& b : batches) {
    const auto s0 = Clock::now();
    {
      Span span("engine.submit");
      engine.submit(b);
    }
    lag.push_back(since_ms(s0));
    fr.backlog_max = std::max(fr.backlog_max, engine.queue_backlog());
    obs.op(true);
  }
  const auto f0 = Clock::now();
  {
    Span span("engine.flush");
    engine.flush();
  }
  fr.flush_ms = since_ms(f0);
  fr.seconds = since_ms(t0) / 1e3;
  obs.samples(lag_series, lag);
  return fr;
}

EngineQueryResult timed_query(ClusteringEngine& engine, const EngineQuery& q,
                              double& ms) {
  Span span("engine.query");
  const auto t0 = Clock::now();
  EngineQueryResult r = engine.query(q);
  ms = since_ms(t0);
  return r;
}

// ---------------------------------------------------------------------------
// Workload phases.  Each records its end-to-end observations into `obs` and
// returns the ingest rate it achieved (the traced/untraced comparison).
// ---------------------------------------------------------------------------

struct PhaseContext {
  const Args& args;
  double seconds;  ///< this phase's measuring window
  bool full;       ///< false: the smaller run the layer pass makes
};

EngineOptions churn_engine_options(std::int64_t max_points) {
  EngineOptions eo;
  eo.num_shards = 2;
  eo.queue_capacity = 8192;
  eo.streaming = churn_streaming(max_points);
  return eo;
}

/// `count` barrier summary queries, back to back.
void summary_queries(Observations& obs, ClusteringEngine& engine,
                     PointIndex expected_net, int count) {
  EngineQuery summary;
  summary.summary_only = true;
  for (int q = 0; q < count; ++q) {
    double ms = 0.0;
    const EngineQueryResult r = timed_query(engine, summary, ms);
    const bool ok = r.ok && r.net_points == expected_net && r.summary.points.size() >= kK;
    obs.op(ok);
    if (!ok) obs.check("query_answer_valid", false, r.error);
    obs.sample("query_ms", ms);
  }
}

/// The churn workload's reference stream: the same for every seed.  Queries,
/// the cost and the failover restore run on the state it leaves, because the
/// summary a query works on (and so its cost) depends on the whole stream
/// history, churn and order included.
Stream reference_churn(PointIndex survivors) {
  Rng rng(0x13C4);
  return churn_events(survivors, 8, 0x13C4, 0, rng);
}

double phase_ingest_churn(Observations& obs, const PhaseContext& ctx) {
  // kStreams streams with the same survivors; the seed draws their churn
  // and order.  Each ingest round feeds the next one to a fresh engine.
  constexpr std::size_t kStreams = 5;
  const PointIndex survivors = 20000;
  std::vector<std::vector<Stream>> streams;
  std::size_t events = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    Rng rng(ctx.args.seed * 0x9E3779B97F4A7C15ULL + s);
    const Stream stream = churn_events(survivors, 8, 0x13C4, 0, rng);
    events = stream.size();
    streams.push_back(split_batches(stream, kEngineBatch));
  }
  const EngineOptions eo = churn_engine_options(static_cast<std::int64_t>(events));

  // Queries, the cost and the failover restores run on the reference state
  // (snapshot, merge, finalize; the solver stays idle in this workload).
  const std::vector<Stream> reference = split_batches(reference_churn(survivors), kEngineBatch);
  ClusteringEngine reference_engine(kDim, bench_params(), eo);
  for (const Stream& b : reference) reference_engine.submit(b);
  reference_engine.flush();
  const std::string ckpt = ctx.args.tmp + "/engine.ckpt";
  const bool saved = reference_engine.checkpoint(ckpt);
  obs.check("engine_checkpoint_written", saved);

  // Rounds until the deadline.  Each round ingests a whole stream into a
  // fresh engine (its construction is the set-up sample), fed by one
  // closed-loop producer, then runs a slice of barrier summary queries and
  // one failover restore on the reference state, with no concurrent
  // ingest.  Interleaving spreads every metric's samples over the whole
  // window: the host's speed drifts over seconds, and a block of queries at
  // the end would see only its own part of that drift.
  constexpr int kQueriesPerRound = 12;
  const Deadline end(ctx.seconds);
  std::vector<double> round_eps;
  int queries = 0;
  for (std::size_t round = 0;
       round < kStreams || queries < kMinQueries || !end.passed(); ++round) {
    {
      Span span("workload.ingest_round");
      const auto s0 = Clock::now();
      ClusteringEngine engine(kDim, bench_params(), eo);
      obs.sample("setup_s", since_ms(s0) / 1e3);
      const FeedResult fr = feed_engine(engine, streams[round % kStreams], obs,
                                        "ingest_lag_ms");
      round_eps.push_back(static_cast<double>(events) / fr.seconds);
      obs.check("net_points_match_generator", engine.net_count() == survivors);
    }
    summary_queries(obs, reference_engine, survivors, kQueriesPerRound);
    queries += kQueriesPerRound;
    if (saved) engine_restore_trial(obs, ckpt, eo, survivors);
  }
  std::filesystem::remove(ckpt);
  obs.samples("ingest_eps_round", round_eps);
  const double eps = median_of(round_eps);
  obs.set("ingest_eps", eps);
  reference_cost(obs, reference, eo);
  obs.set("query_wire_kb",
          static_cast<double>(reference_engine.export_sketch().blob.size()) / 1024.0);
  return eps;
}

double phase_query_under_ingest(Observations& obs, const PhaseContext& ctx) {
  // The warm stream is the reference stream, the same for every seed: the
  // summary a query works on is decided by it.  The seed draws the live
  // churn.
  const PointIndex warm_survivors = 20000;
  const Stream warm = reference_churn(warm_survivors);
  Rng rng(ctx.args.seed);
  // Open-loop churn at a fixed rate far below ingest_churn's closed-loop
  // rate: transient points, each deleted again kChurnWindow events after
  // its insertion.  The surviving set stays that of the warm stream, and
  // few transient points are alive at once, so the summary a query works
  // on stays close to the warm one.
  const double rate = 16000.0;  // events/s
  const double window = ctx.seconds * 0.9;
  const auto live_points = static_cast<PointIndex>(rate * (window + 2.0) / 2);
  const Stream live = windowed_churn(mixture(live_points, 8, 0x13C4, rng));
  const std::vector<Stream> warm_batches = split_batches(warm, kEngineBatch);
  const std::vector<Stream> live_batches = split_batches(live, kEngineBatch);
  const EngineOptions eo =
      churn_engine_options(static_cast<std::int64_t>(warm.size() + live.size()));

  // Set-up: construct and warm with the full stream, five times here and
  // four more after the window, so the set-up samples span the run too.
  std::unique_ptr<ClusteringEngine> engine;
  auto set_up = [&] {
    Span span("workload.setup");
    engine.reset();
    const auto s0 = Clock::now();
    engine = std::make_unique<ClusteringEngine>(kDim, bench_params(), eo);
    for (const Stream& b : warm_batches) engine->submit(b);
    engine->flush();
    obs.sample("setup_s", since_ms(s0) / 1e3);
  };
  for (int rep = 0; rep < 5; ++rep) set_up();
  obs.check("net_points_match_generator", engine->net_count() == warm_survivors);
  reference_cost(obs, warm_batches, eo);
  // Failover restores this warm checkpoint, between queries all through the
  // window (see phase_ingest_churn for why samples are spread out).
  const std::string ckpt = ctx.args.tmp + "/engine.ckpt";
  const bool saved = engine->checkpoint(ckpt);
  obs.check("engine_checkpoint_written", saved);

  // Open-loop producer: batch i is due at t0 + i * 256 / rate and is sent
  // then, however late the previous one was.  Its lag runs from the due
  // time until the engine's queues no longer hold it (a monitor thread
  // compares the events submitted so far minus queue_backlog() with the
  // batch's end).  A drain pops the events it then applies, so the lag
  // ends while the batch's last chunk is being applied.
  std::atomic<bool> stop{false};
  std::size_t sent_events = 0;
  const std::size_t max_batches = live_batches.size();
  std::vector<Clock::time_point> due_at(max_batches);
  std::vector<std::int64_t> applied_target(max_batches);
  std::atomic<std::size_t> published{0};
  std::atomic<std::int64_t> submitted{0};
  const auto t0 = Clock::now();
  std::thread producer([&] {
    const double per_batch_s = static_cast<double>(kEngineBatch) / rate;
    for (std::size_t i = 0; i < max_batches; ++i) {
      const auto due = t0 + std::chrono::microseconds(static_cast<std::int64_t>(
                                static_cast<double>(i) * per_batch_s * 1e6));
      if (due >= t0 + std::chrono::microseconds(
                          static_cast<std::int64_t>(window * 1e6))) {
        break;
      }
      std::this_thread::sleep_until(due);
      {
        Span span("engine.submit");
        engine->submit(live_batches[i]);
      }
      sent_events += live_batches[i].size();
      due_at[i] = due;
      applied_target[i] = static_cast<std::int64_t>(sent_events);
      submitted.store(static_cast<std::int64_t>(sent_events));
      published.store(i + 1);
      obs.op(true);
    }
    stop = true;
  });
  std::thread monitor([&] {
    std::vector<double> lag;
    std::size_t next = 0;
    for (;;) {
      const bool done = stop.load();
      const std::size_t pub = published.load();
      const std::int64_t applied = submitted.load() - engine->queue_backlog();
      const auto now = Clock::now();
      while (next < pub && applied >= applied_target[next]) {
        lag.push_back(std::chrono::duration<double, std::milli>(now - due_at[next]).count());
        ++next;
      }
      if (done && next == pub) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    obs.samples("ingest_lag_ms", lag);
  });
  // One closed-loop client: barrier queries with a full solve, and a
  // failover restore after every kQueriesPerRestore of them.
  constexpr int kQueriesPerRestore = 8;
  int queries = 0;
  while (!stop.load() || queries < kMinQueries) {
    double ms = 0.0;
    const EngineQueryResult r = timed_query(*engine, EngineQuery{}, ms);
    const bool ok = valid_answer(r, -1);
    obs.op(ok);
    if (!ok) obs.check("query_answer_valid", false, r.error);
    obs.sample("query_ms", ms);
    ++queries;
    if (saved && queries % kQueriesPerRestore == 0) {
      engine_restore_trial(obs, ckpt, eo, warm_survivors);
    }
  }
  std::filesystem::remove(ckpt);
  producer.join();
  monitor.join();
  {
    Span span("engine.flush");
    engine->flush();
  }
  const double eps = static_cast<double>(sent_events) / (since_ms(t0) / 1e3);
  obs.set("ingest_eps", eps);
  const std::int64_t expected = warm_survivors + net_of(live, sent_events);
  obs.check("net_points_match_generator", engine->net_count() == expected);
  double ms = 0.0;
  const EngineQueryResult final_answer = timed_query(*engine, EngineQuery{}, ms);
  obs.check("final_query_valid", valid_answer(final_answer, expected),
            final_answer.error);
  obs.set("query_wire_kb",
          static_cast<double>(engine->export_sketch().blob.size()) / 1024.0);
  for (int rep = 0; rep < 4; ++rep) set_up();
  return eps;
}

// --- tenant_wire -----------------------------------------------------------

constexpr int kTenants = 40;
constexpr int kMaxResident = 20;

std::string tenant_id(int rank) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%03d", rank);
  return buf;
}

struct TenantOp {
  int rank = 0;
  bool query = false;
  std::vector<Coord> coords;  ///< insert payload, row-major
};

/// Batch `index` of tenant `rank`: fixed by (rank, index), independent of
/// the seed, which only draws the Zipf request sequence.
PointSet tenant_batch(int rank, std::uint64_t index) {
  const std::uint64_t shape = 0x7E4A0000ULL + static_cast<std::uint64_t>(rank);
  Rng rng(shape * 0x100000001B3ULL + index);
  return mixture(static_cast<PointIndex>(kWireBatch), kTenantLogDelta, shape, rng);
}

/// Zipf(1.1) tenant ranks; client c owns the ranks r with r % 2 == c, so
/// each tenant's batches come from one connection.  One request in five is
/// a query.
std::vector<std::vector<TenantOp>> tenant_ops(int ops_per_client, Rng& rng) {
  std::vector<double> cdf(kTenants);
  double total = 0.0;
  for (int r = 0; r < kTenants; ++r) {
    total += std::pow(r + 1.0, -1.1);
    cdf[static_cast<std::size_t>(r)] = total;
  }
  std::vector<std::vector<TenantOp>> per_client(2);
  std::array<int, 2> counts{0, 0};
  std::vector<std::uint64_t> batches_of(kTenants, 0);
  while (counts[0] < ops_per_client || counts[1] < ops_per_client) {
    const double u = rng.uniform() * total;
    const int rank = static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const std::size_t c = static_cast<std::size_t>(rank % 2);
    if (counts[c] >= ops_per_client) continue;
    TenantOp op;
    op.rank = std::min(rank, kTenants - 1);
    op.query = counts[c] % 5 == 4;
    if (!op.query) {
      const PointSet pts = tenant_batch(op.rank, batches_of[static_cast<std::size_t>(op.rank)]++);
      for (PointIndex i = 0; i < pts.size(); ++i) {
        op.coords.insert(op.coords.end(), pts[i].begin(), pts[i].end());
      }
    }
    per_client[c].push_back(std::move(op));
    ++counts[c];
  }
  return per_client;
}

tenant::TenantRegistryOptions tenant_registry_options(const std::string& spill,
                                                      const StreamingOptions& so,
                                                      int max_resident) {
  tenant::TenantRegistryOptions ro;
  ro.dim = kDim;
  ro.params = bench_params();
  ro.engine.num_shards = 1;
  ro.engine.streaming = so;
  ro.num_rungs = 1;
  ro.pool_threads = 2;
  ro.max_resident = max_resident;
  ro.spill_dir = spill;
  // Quotas sit far above the offered load: any refusal is a failure.
  ro.quotas.max_events_per_second = 1e9;
  ro.quotas.burst_events = 1e9;
  return ro;
}

double phase_tenant_wire(Observations& obs, const PhaseContext& ctx) {
  const int ops_per_client = 150;
  std::vector<std::vector<TenantOp>> ops;
  std::vector<std::int64_t> expected;
  // Set-up warms every tenant with one batch, so a query never meets a
  // tenant holding fewer than k points.
  std::vector<Stream> warm(kTenants);
  for (int r = 0; r < kTenants; ++r) {
    warm[static_cast<std::size_t>(r)] = insertion_stream(tenant_batch(r, ~0ULL));
  }
  const std::string spill = ctx.args.tmp + "/tenant_spill";
  const Deadline end(ctx.seconds);
  std::vector<double> round_eps;
  int queries = 0;
  int rounds = 0;
  struct {
    std::unique_ptr<tenant::TenantRegistry> registry;
    std::unique_ptr<tenant::TenantServer> server;
  } live;
  double query_bytes = 0.0;
  while (rounds < 1 || !end.passed() || queries < kMinQueries) {
    Span round_span("workload.tenant_round");
    // Every round sends the same Zipf request multiset (fixed, so every
    // round does the same work); the seed shuffles the order each client
    // sends them in.
    Rng multiset_rng(0x7E4A5EEDULL);
    ops = tenant_ops(ops_per_client, multiset_rng);
    Rng order(ctx.args.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(rounds));
    for (auto& client_ops : ops) order.shuffle(client_ops);
    expected.assign(kTenants, 0);
    for (const auto& client : ops) {
      for (const TenantOp& op : client) {
        if (!op.query) expected[static_cast<std::size_t>(op.rank)] += kWireBatch;
      }
    }
    live.server.reset();
    live.registry.reset();
    std::filesystem::remove_all(spill);
    std::filesystem::create_directories(spill);
    const auto s0 = Clock::now();
    live.registry = std::make_unique<tenant::TenantRegistry>(
        tenant_registry_options(spill, tenant_streaming(), kMaxResident));
    for (int r = 0; r < kTenants; ++r) {
      obs.check("warm_submit_admitted",
                live.registry->submit(tenant_id(r), warm[static_cast<std::size_t>(r)]) ==
                    tenant::Admit::kOk);
    }
    live.registry->flush();
    live.server = std::make_unique<tenant::TenantServer>(*live.registry,
                                                         net::ServerOptions{});
    std::string error;
    const bool started = live.server->start(error);
    obs.sample("setup_s", since_ms(s0) / 1e3);
    obs.check("tenant_server_started", started, error);
    if (!started) return 0.0;
    const std::uint16_t port = live.server->port();

    std::atomic<std::int64_t> inserted{0};
    std::atomic<int> round_queries{0};
    std::mutex bytes_mu;
    double round_query_bytes = 0.0;
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < ops.size(); ++c) {
      clients.emplace_back([&, c] {
        net::SkcClient cl;
        const bool connected = cl.connect("127.0.0.1", port);
        obs.op(connected);
        if (!connected) return;
        std::vector<double> insert_ms, query_ms;
        double bytes = 0.0;
        for (const TenantOp& op : ops[c]) {
          cl.set_tenant(tenant_id(op.rank));
          const auto q0 = Clock::now();
          if (op.query) {
            const std::int64_t before = cl.wire_bytes_sent() + cl.wire_bytes_received();
            net::QueryRequest req;
            net::QueryReply reply;
            bool ok = false;
            {
              Span span("net.query_rpc");
              ok = cl.query(req, reply);
            }
            query_ms.push_back(since_ms(q0));
            bytes += static_cast<double>(cl.wire_bytes_sent() +
                                         cl.wire_bytes_received() - before);
            ok = ok && reply.ok && reply.feasible &&
                 reply.center_coords.size() == static_cast<std::size_t>(kK * kDim);
            obs.op(ok);
            if (!ok) obs.check("tenant_query_valid", false, reply.error + cl.last_error());
            round_queries.fetch_add(1);
          } else {
            bool ok = false;
            {
              Span span("net.insert_rpc");
              ok = cl.insert_batch(kDim, op.coords);
            }
            insert_ms.push_back(since_ms(q0));
            obs.op(ok);
            if (!ok) obs.check("tenant_insert_accepted", false, cl.last_error());
            if (ok) inserted.fetch_add(static_cast<std::int64_t>(kWireBatch));
          }
        }
        obs.samples("ingest_lag_ms", insert_ms);
        obs.samples("query_ms", query_ms);
        std::lock_guard<std::mutex> lock(bytes_mu);
        round_query_bytes += bytes;
      });
    }
    for (std::thread& t : clients) t.join();
    {
      Span span("tenant.flush");
      live.registry->flush();
    }
    const double round_s = since_ms(t0) / 1e3;
    round_eps.push_back(static_cast<double>(inserted.load()) / round_s);
    queries += round_queries.load();
    query_bytes = round_query_bytes / std::max(1, round_queries.load());
    ++rounds;
  }
  obs.samples("ingest_eps_round", round_eps);
  const double eps = median_of(round_eps);
  obs.set("ingest_eps", eps);
  obs.set("query_wire_kb", query_bytes / 1024.0);

  // Every tenant holds exactly what the generator sent it.
  const tenant::RegistryStats stats = live.registry->stats();
  bool counts_ok = stats.per_tenant.size() == static_cast<std::size_t>(kTenants);
  for (const tenant::TenantStats& t : stats.per_tenant) {
    const int rank = std::atoi(t.id.c_str() + 1);
    counts_ok &= t.events == expected[static_cast<std::size_t>(rank)] +
                                 static_cast<std::int64_t>(kWireBatch);
  }
  obs.check("net_points_match_generator", counts_ok);
  obs.check("spill_restore_active", stats.evictions > 0 && stats.restores > 0);
  obs.check("no_quota_refusals", stats.quota_rejections == 0);
  EngineQueryResult hot;
  const bool hot_ok =
      live.registry->query(tenant_id(0), EngineQuery{}, hot) == tenant::Admit::kOk;
  obs.check("final_query_valid",
            hot_ok && valid_answer(hot, expected[0] + static_cast<std::int64_t>(kWireBatch)),
            hot.error);
  for (int rank = 0; rank < 8; ++rank) {
    EngineQueryResult r;
    live.registry->query(tenant_id(rank), quality_query(), r);
    quality_cost(obs, r);
  }

  // Failover for a tenant: a spilled tenant's first query after the
  // registry dropped it from memory (restore from the spill file, then a
  // summary answer).
  int trials = 0;
  EngineQuery summary;
  summary.summary_only = true;
  for (const tenant::TenantStats& t : live.registry->stats().per_tenant) {
    if (t.resident || trials >= 16) continue;
    Span span("tenant.cold_query");
    const auto c0 = Clock::now();
    EngineQueryResult r;
    const bool ok = live.registry->query(t.id, summary, r) ==
                        tenant::Admit::kOk &&
                    r.ok && r.net_points == t.events;
    obs.sample("failover_s", since_ms(c0) / 1e3);
    obs.op(ok);
    obs.check("cold_tenant_answers", ok, r.error);
    ++trials;
  }
  obs.check("cold_tenants_available", trials == 16);
  live.server->stop();
  live.server.reset();
  live.registry.reset();
  std::filesystem::remove_all(spill);
  return eps;
}

// --- cluster_fanout --------------------------------------------------------

/// A 2-worker cluster: the worker processes and the coordinator connected
/// to them.  Shutting down reaps the workers.
struct Cluster {
  std::vector<std::unique_ptr<cluster::WorkerProcess>> workers;
  std::unique_ptr<cluster::ClusterCoordinator> coord;

  bool start(const std::string& harness, const StreamingOptions& so,
             std::string& error) {
    if (!spawn_workers(harness, false, workers, error)) return false;
    coord = std::make_unique<cluster::ClusterCoordinator>(
        coordinator_options(workers, so));
    return coord->connect(error);
  }
  void stop() {
    if (coord) coord->shutdown_workers();
    coord.reset();
    for (auto& w : workers) w->wait();
    workers.clear();
  }
};

double phase_cluster_fanout(Observations& obs, const PhaseContext& ctx) {
  const StreamingOptions so = cluster_streaming();
  const Stream tail = insertion_stream(survivor_set(2000, kClusterLogDelta, 0xC1F0, 99));
  constexpr PointIndex kSurvivors = 40000;
  constexpr int kQueriesPerRound = 8;
  EngineQuery summary;
  summary.summary_only = true;
  constexpr int kFailoverRounds = 5;

  // Rounds: bring up a fresh cluster (the set-up sample); one producer
  // forwards a churn stream (40k survivors) in 512-event batches up to the
  // cluster barrier; then a burst of summary queries runs, each one
  // MERGE_SKETCH round plus finalize (the solver is query_under_ingest's
  // subject), and each must cover exactly the survivors.  In the first
  // rounds a worker is then SIGKILLed after member checkpoints and a tail
  // of inserts, and the next summary query is timed.
  const Deadline end(ctx.seconds);
  std::vector<double> round_eps;
  double protocol_bytes = 0.0, merge_rounds = 0.0;
  int queries = 0;
  for (std::uint64_t round = 0; round < 1 || !end.passed() || queries < kMinQueries;
       ++round) {
    Span round_span("workload.cluster_round");
    Rng rng(ctx.args.seed * 0x9E3779B97F4A7C15ULL + round);
    const Stream stream =
        churn_events(kSurvivors, kClusterLogDelta, 0xC1F0, 0, rng);
    Cluster c;
    std::string error;
    const auto s0 = Clock::now();
    const bool up = c.start(ctx.args.harness, so, error);
    obs.sample("setup_s", since_ms(s0) / 1e3);
    obs.check("cluster_connected", up, error);
    if (!up) {
      c.stop();
      return 0.0;
    }
    std::vector<double> lag;
    const auto t0 = Clock::now();
    for (const Stream& b : split_batches(stream, kWireBatch)) {
      const auto b0 = Clock::now();
      bool ok = false;
      {
        Span span("cluster.submit");
        ok = c.coord->submit(b);
      }
      lag.push_back(since_ms(b0));
      obs.op(ok);
      if (!ok) obs.check("cluster_submit_accepted", false);
    }
    {
      Span span("cluster.flush");
      c.coord->flush();
    }
    round_eps.push_back(static_cast<double>(stream.size()) / (since_ms(t0) / 1e3));
    obs.samples("ingest_lag_ms", lag);

    const cluster::ClusterMetrics before = c.coord->metrics();
    for (int q = 0; q < kQueriesPerRound; ++q, ++queries) {
      const auto q0 = Clock::now();
      EngineQueryResult r;
      {
        Span span("cluster.query");
        r = c.coord->query(summary);
      }
      obs.sample("query_ms", since_ms(q0));
      const bool ok = r.ok && r.net_points == kSurvivors && r.summary.points.size() >= kK;
      obs.op(ok);
      if (!ok) obs.check("cluster_query_valid", false, r.error);
    }
    const cluster::ClusterMetrics after = c.coord->metrics();
    protocol_bytes += static_cast<double>(after.protocol_bytes - before.protocol_bytes);
    merge_rounds += static_cast<double>(after.queries - before.queries);
    if (round % 4 == 0) quality_cost(obs, c.coord->query(quality_query()));

    if (round < (ctx.full ? kFailoverRounds : 1)) {
      obs.check("member_checkpoints", c.coord->checkpoint_members());
      for (const Stream& b : split_batches(tail, kWireBatch)) {
        obs.op(c.coord->submit(b));
      }
      c.coord->flush();
      c.workers[1]->kill_hard();
      const auto k0 = Clock::now();
      EngineQueryResult recovered;
      {
        Span span("cluster.failover_query");
        recovered = c.coord->query(summary);
      }
      obs.sample("failover_s", since_ms(k0) / 1e3);
      const bool ok = recovered.ok &&
                      recovered.net_points ==
                          kSurvivors + static_cast<std::int64_t>(tail.size());
      obs.op(ok);
      obs.check("post_failover_query_covers_all_points", ok, recovered.error);
      const cluster::ClusterMetrics fm = c.coord->metrics();
      obs.check("failover_happened", fm.failovers == 1);
      obs.sample("cluster.replayed_events", static_cast<double>(fm.replayed_events));
    }
    // Per-layer cluster numbers from the coordinator's own metrics.
    const cluster::ClusterMetrics m = c.coord->metrics();
    obs.sample("cluster.forward_p50_us", m.forward_latency.percentile_micros(0.5));
    for (const auto& h : m.worker_merge_latency) {
      if (h.count > 0) obs.sample("cluster.merge_rpc_ms", h.p50_millis());
    }
    obs.sample("cluster.ingest_bytes_per_event",
               static_cast<double>(m.ingest_bytes) /
                   static_cast<double>(std::max<std::int64_t>(1, m.events_forwarded)));
    c.stop();
  }
  obs.samples("ingest_eps_round", round_eps);
  const double eps = median_of(round_eps);
  obs.set("ingest_eps", eps);
  obs.set("query_wire_kb", protocol_bytes / std::max(1.0, merge_rounds) / 1024.0);
  obs.set("cluster.protocol_bytes_per_query", protocol_bytes / std::max(1.0, merge_rounds));
  return eps;
}

// ---------------------------------------------------------------------------
// Layer pass (--trace 1): each layer's public calls timed on the workload's
// events and configuration.
// ---------------------------------------------------------------------------

struct LayerInput {
  Stream events;
  StreamingOptions streaming;
};

template <class F>
double median_ms(int reps, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    ms.push_back(since_ms(t0));
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

void layer_coreset(Observations& obs, const LayerInput& in) {
  Span pass("pass.coreset");
  const CoresetParams params = bench_params();
  const std::vector<Stream> batches = split_batches(in.events, kEngineBatch);
  StreamingCoresetBuilder builder(kDim, params, in.streaming);
  const auto u0 = Clock::now();
  for (const Stream& b : batches) {
    Span span("coreset.update_batch");
    builder.update_batch(b);
  }
  obs.set("coreset.update_us_per_event",
          since_ms(u0) * 1e3 / static_cast<double>(in.events.size()));
  obs.set("coreset.guesses", builder.num_guesses());
  obs.set("coreset.sketch_mb", static_cast<double>(builder.memory_bytes()) / 1e6);

  StreamingResult result;
  obs.set("coreset.finalize_ms", median_ms(3, [&] {
            Span span("coreset.finalize");
            result = builder.finalize();
          }));
  obs.check("layer_finalize_ok", result.ok);
  int failed = 0;
  for (const std::string& outcome : result.diagnostics.guess_outcomes) {
    failed += outcome != "ok";
  }
  obs.set("coreset.guesses_failed", failed);
  obs.set("coreset.points", static_cast<double>(result.coreset.points.size()));

  std::string blob;
  obs.set("coreset.save_ms", median_ms(3, [&] {
            Span span("coreset.save");
            std::ostringstream out;
            builder.save(out);
            blob = out.str();
          }));
  obs.set("coreset.blob_mb", static_cast<double>(blob.size()) / 1e6);
  obs.set("coreset.load_ms", median_ms(3, [&] {
            Span span("coreset.load");
            StreamingCoresetBuilder copy(kDim, params, in.streaming);
            std::istringstream is(blob);
            obs.check("layer_load_ok", copy.load(is));
          }));
  // merge_from: two halves of the stream (split by point, so deletions
  // meet their insertions), folded into a fresh copy of the first half.
  StreamingCoresetBuilder half_a(kDim, params, in.streaming);
  StreamingCoresetBuilder half_b(kDim, params, in.streaming);
  Stream a, b;
  for (const StreamEvent& e : in.events) {
    ((e.point[0] ^ e.point[1]) & 1 ? a : b).push_back(e);
  }
  half_a.consume(a);
  half_b.consume(b);
  std::ostringstream a_out;
  half_a.save(a_out);
  const std::string a_blob = a_out.str();
  std::vector<double> merge_ms;
  for (int rep = 0; rep < 3; ++rep) {
    StreamingCoresetBuilder target(kDim, params, in.streaming);
    std::istringstream is(a_blob);
    target.load(is);
    const auto m0 = Clock::now();
    {
      Span span("coreset.merge_from");
      target.merge_from(half_b);
    }
    merge_ms.push_back(since_ms(m0));
  }
  std::sort(merge_ms.begin(), merge_ms.end());
  obs.set("coreset.merge_from_ms", merge_ms[1]);

  // Solver and flow on the returned summary.
  if (result.ok) {
    const WeightedPointSet& summary = result.coreset.points;
    const double n = static_cast<double>(builder.net_count());
    const double t = tight_capacity(n, kK) * 1.1 * summary.total_weight() / n;
    CapacitatedSolverOptions sopts;
    sopts.delta = Coord{1} << in.streaming.log_delta;
    CapacitatedSolution sol;
    obs.set("solve.kmeans_ms", median_ms(3, [&] {
              Span span("solve.capacitated_kmeans");
              Rng srng(params.seed);
              sol = capacitated_kmeans(summary, kK, t, params.r, sopts, srng);
            }));
    obs.set("solve.lloyd_iters", sol.iterations);
    obs.set("flow.assign_ms", median_ms(1, [&] {
              Span span("flow.optimal_capacitated_assignment");
              const CapacitatedAssignment as =
                  optimal_capacitated_assignment(summary, sol.centers, t, params.r);
              obs.check("layer_assignment_feasible", as.feasible);
            }));
  }
}

void layer_kernels(Observations& obs, const LayerInput& in) {
  Span pass("pass.kernels");
  const std::size_t n = in.events.size();
  std::vector<Coord> pts;
  pts.reserve(n * kDim);
  std::vector<std::int64_t> deltas;
  for (const StreamEvent& e : in.events) {
    pts.insert(pts.end(), e.point.begin(), e.point.end());
    deltas.push_back(e.op == StreamOp::kInsert ? 1 : -1);
  }
  Rng rng(bench_params().seed);
  const KWiseHash hash(bench_params().hash_independence, rng);
  std::vector<std::uint64_t> hashed(n);
  const int reps = 5;
  const auto h0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    Span span("hash.hash_batch");
    hash.hash_batch(pts.data(), kDim, n, hashed.data());
  }
  obs.set("hash.ns_per_key", since_ms(h0) * 1e6 / static_cast<double>(reps * n));

  const HierarchicalGrid grid(kDim, in.streaming.log_delta, rng);
  const int levels = in.streaming.log_delta + 1;
  std::vector<std::int32_t> idx(n * kDim);
  const auto g0 = Clock::now();
  for (int level = 0; level < levels; ++level) {
    Span span("grid.cell_index_of_batch");
    grid.cell_index_of_batch(pts.data(), n, level, idx.data());
  }
  obs.set("grid.ns_per_point",
          since_ms(g0) * 1e6 / static_cast<double>(static_cast<std::size_t>(levels) * n));

  // Sketch structures at the middle level, fed the same rows update_batch
  // would feed them.
  const int level = levels / 2;
  grid.cell_index_of_batch(pts.data(), n, level, idx.data());
  CellCountMinConfig cmc;
  cmc.width = in.streaming.countmin_width;
  cmc.depth = in.streaming.countmin_depth;
  CellCountMin cm(grid, level, cmc, 7);
  const auto c0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    Span span("sketch.countmin_update_cells");
    cm.update_cells(idx.data(), deltas.data(), n);
  }
  obs.set("sketch.countmin_ns_per_update",
          since_ms(c0) * 1e6 / static_cast<double>(reps * n));
  PointStoreConfig psc;
  psc.watermark = in.streaming.point_watermark;
  psc.max_live_points = in.streaming.max_live_points;
  const auto s0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    CellPointStore store(grid, level, psc);
    Span span("sketch.store_update_batch");
    store.update_batch(pts.data(), idx.data(), deltas.data(), n);
  }
  obs.set("sketch.store_ns_per_update",
          since_ms(s0) * 1e6 / static_cast<double>(reps * n));
}


void layer_engine(Observations& obs, const LayerInput& in) {
  Span pass("pass.engine");
  EngineOptions eo;
  eo.num_shards = 2;
  eo.queue_capacity = 8192;
  eo.streaming = in.streaming;
  const std::vector<Stream> batches = split_batches(in.events, kEngineBatch);
  std::vector<double> flush_ms;
  std::int64_t backlog = 0;
  std::unique_ptr<ClusteringEngine> engine;
  // Rounds until the submit series supports its p99 (ten samples beyond).
  while (obs.count("engine.submit_ms") < 1000) {
    engine = std::make_unique<ClusteringEngine>(kDim, bench_params(), eo);
    const FeedResult fr = feed_engine(*engine, batches, obs, "engine.submit_ms");
    flush_ms.push_back(fr.flush_ms);
    backlog = std::max(backlog, fr.backlog_max);
  }
  std::sort(flush_ms.begin(), flush_ms.end());
  obs.set("engine.flush_ms", flush_ms[flush_ms.size() / 2]);
  obs.set("engine.backlog_max", static_cast<double>(backlog));
  for (int i = 0; i < 20; ++i) {
    double ms = 0.0;
    const EngineQueryResult r = timed_query(*engine, EngineQuery{}, ms);
    obs.check("layer_engine_query_valid", valid_answer(r, -1), r.error);
    obs.sample("engine.merge_ms", r.merge_millis);
    obs.sample("engine.solve_ms", r.solve_millis);
    obs.sample("engine.query_rest_ms", ms - r.merge_millis - r.solve_millis);
  }
}

/// Insert payloads (row-major coordinates) cut from the workload's inserts.
std::vector<std::vector<Coord>> insert_payloads(const Stream& events,
                                                std::size_t batch) {
  std::vector<std::vector<Coord>> out(1);
  for (const StreamEvent& e : events) {
    if (e.op != StreamOp::kInsert) continue;
    if (out.back().size() == batch * kDim) out.emplace_back();
    out.back().insert(out.back().end(), e.point.begin(), e.point.end());
  }
  if (out.back().size() < batch * kDim) out.pop_back();
  return out;
}

void layer_net(Observations& obs, const LayerInput& in) {
  Span pass("pass.net");
  const std::size_t batch = 128;
  const std::vector<std::vector<Coord>> payloads = insert_payloads(in.events, batch);
  EngineOptions eo;
  eo.num_shards = 2;
  eo.queue_capacity = 8192;
  eo.streaming = in.streaming;
  ClusteringEngine engine(kDim, bench_params(), eo);
  net::EngineServer server(engine, net::ServerOptions{});
  std::string error;
  if (!server.start(error) || payloads.empty()) {
    obs.check("layer_net_server_started", false, error);
    return;
  }
  net::SkcClient client;
  obs.check("layer_net_connected", client.connect("127.0.0.1", server.port()));
  std::int64_t events = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::vector<Coord>& p = payloads[i % payloads.size()];
    const auto t0 = Clock::now();
    bool ok = false;
    {
      Span span("net.insert_rpc");
      ok = client.insert_batch(kDim, p);
    }
    obs.sample("net.insert_rpc_ms", since_ms(t0));
    obs.op(ok);
    events += static_cast<std::int64_t>(p.size() / kDim);
  }
  const std::int64_t sent_bytes = client.wire_bytes_sent();
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    net::QueryRequest req;
    net::QueryReply reply;
    bool ok = false;
    {
      Span span("net.query_rpc");
      ok = client.query(req, reply) && reply.ok && reply.feasible;
    }
    obs.sample("net.query_rpc_ms", since_ms(t0));
    obs.op(ok);
    obs.check("layer_net_query_valid", ok, reply.error);
  }
  const EngineMetrics m = server.metrics();
  obs.set("net.server_request_p50_us", m.net_request_latency.percentile_micros(0.5));
  obs.set("net.bytes_per_event",
          static_cast<double>(sent_bytes) / static_cast<double>(events));
  obs.set("net.busy_rejections", static_cast<double>(m.net_busy_rejections));
  client.close();
  server.stop();
  engine.shutdown();
}

void layer_tenant(Observations& obs, const LayerInput& in, const std::string& tmp) {
  Span pass("pass.tenant");
  const int tenants = 8;
  const std::string spill = tmp + "/layer_spill";
  std::filesystem::remove_all(spill);
  std::filesystem::create_directories(spill);
  {
    tenant::TenantRegistry registry(tenant_registry_options(spill, in.streaming, 2));
    // Route by point so each deletion reaches the tenant holding its insert.
    std::vector<Stream> per_tenant(tenants);
    for (const StreamEvent& e : in.events) {
      const auto key = static_cast<std::uint32_t>(e.point[0] * 31 + e.point[1]);
      per_tenant[key % tenants].push_back(e);
    }
    std::vector<std::vector<Stream>> batches;
    std::size_t most = 0;
    for (const Stream& s : per_tenant) {
      batches.push_back(split_batches(s, kEngineBatch));
      most = std::max(most, batches.back().size());
    }
    for (std::size_t i = 0; i < most; ++i) {
      for (int t = 0; t < tenants; ++t) {
        if (i >= batches[static_cast<std::size_t>(t)].size()) continue;
        Span span("tenant.submit");
        const bool ok = registry.submit(tenant_id(t), batches[static_cast<std::size_t>(t)][i]) ==
                        tenant::Admit::kOk;
        obs.op(ok);
      }
    }
    registry.flush();
    Stream probe;
    for (const StreamEvent& e : in.events) {
      if (e.op == StreamOp::kInsert && probe.size() < 16) probe.push_back(e);
    }
    std::vector<double> cold_ms, warm_us;
    for (int trial = 0; trial < 5; ++trial) {
      std::string cold;
      for (const tenant::TenantStats& t : registry.stats().per_tenant) {
        if (!t.resident) cold = t.id;
      }
      if (cold.empty()) break;
      auto t0 = Clock::now();
      {
        Span span("tenant.cold_submit");
        obs.op(registry.submit(cold, probe) == tenant::Admit::kOk);
      }
      cold_ms.push_back(since_ms(t0));
      for (int w = 0; w < 4; ++w) {
        t0 = Clock::now();
        {
          Span span("tenant.warm_submit");
          obs.op(registry.submit(cold, probe) == tenant::Admit::kOk);
        }
        warm_us.push_back(since_ms(t0) * 1e3);
      }
    }
    registry.flush();
    obs.check("layer_tenant_cold_trials", cold_ms.size() == 5);
    obs.samples("tenant.cold_submit_ms", cold_ms);
    obs.samples("tenant.warm_submit_us", warm_us);
    const tenant::RegistryStats stats = registry.stats();
    obs.set("tenant.evictions", static_cast<double>(stats.evictions));
    obs.set("tenant.restores", static_cast<double>(stats.restores));
    obs.set("tenant.quota_rejections", static_cast<double>(stats.quota_rejections));
    obs.set("tenant.resident_sketch_mb",
            static_cast<double>(stats.resident_sketch_bytes) / 1e6);
  }
  std::filesystem::remove_all(spill);
}

LayerInput layer_input(const std::string& workload, std::uint64_t seed) {
  Rng rng(seed ^ 0x1A7E5ULL);
  LayerInput in;
  if (workload == "tenant_wire") {
    in.events = insertion_stream(mixture(20000, kTenantLogDelta, 0x7E4A0000ULL, rng));
    in.streaming = tenant_streaming();
  } else if (workload == "cluster_fanout") {
    in.events = churn_events(20000, kClusterLogDelta, 0xC1F0, 0, rng);
    in.streaming = cluster_streaming();
  } else {
    in.events = churn_events(20000, 8, 0x13C4, 0, rng);
    in.streaming = churn_streaming(static_cast<std::int64_t>(in.events.size()));
  }
  return in;
}

using Phase = double (*)(Observations&, const PhaseContext&);

Phase phase_of(const std::string& workload) {
  if (workload == "ingest_churn") return phase_ingest_churn;
  if (workload == "query_under_ingest") return phase_query_under_ingest;
  if (workload == "tenant_wire") return phase_tenant_wire;
  if (workload == "cluster_fanout") return phase_cluster_fanout;
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out RAW.json --harness PATH --tmp DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (flag == "--out") {
      args.out = v;
    } else if (flag == "--harness") {
      args.harness = v;
    } else if (flag == "--tmp") {
      args.tmp = v;
    } else {
      return usage();
    }
  }
  const Phase phase = phase_of(args.workload);
  if (!phase || args.seconds <= 0 || args.out.empty() || args.harness.empty() ||
      args.tmp.empty()) {
    return usage();
  }
  std::filesystem::create_directories(args.tmp);

  Observations obs;
  obs.meta("workload", args.workload);
  obs.meta("seed", std::to_string(args.seed));
  obs.meta("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  obs.meta("build_type", PERFBENCH_BUILD_TYPE);
  obs.meta("skc_simd", PERFBENCH_SIMD ? "ON" : "OFF");

  if (!args.trace) {
    phase(obs, PhaseContext{args, args.seconds, true});
  } else {
    // Same phase, half the window each: untraced, then traced.  Their
    // ingest rates give the tracing overhead.
    const double untraced = phase(obs, PhaseContext{args, args.seconds / 2, true});
    SpanLog::get().set_enabled(true);
    const double traced = phase(obs, PhaseContext{args, args.seconds / 2, true});
    obs.set("obs.trace_overhead_frac", untraced > 0 ? 1.0 - traced / untraced : 0.0);
    const LayerInput in = layer_input(args.workload, args.seed);
    layer_coreset(obs, in);
    layer_kernels(obs, in);
    layer_engine(obs, in);
    layer_net(obs, in);
    layer_tenant(obs, in, args.tmp);
    if (args.workload != "cluster_fanout") {
      Span pass("pass.cluster");
      phase_cluster_fanout(obs, PhaseContext{args, 2.0, false});
    }
  }

  if (args.workload == "tenant_wire") {
    check_exact_tenant(obs, args.seed, args.tmp);
  } else if (args.workload == "cluster_fanout") {
    check_exact_cluster(obs, args);
  } else {
    check_exact_engine(obs, args.seed);
  }
  measure_envelope(obs);
  obs.set("peak_rss_mb", peak_rss_mb());
  if (!obs.write(args.out, args.trace)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
