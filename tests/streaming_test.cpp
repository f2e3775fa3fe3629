#include "skc/coreset/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "skc/common/serial.h"
#include "skc/coreset/offline.h"
#include "skc/stream/generators.h"
#include "test_util.h"

namespace skc {
namespace {

MixtureConfig mixture(int n, int log_delta = 9) {
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = log_delta;
  cfg.clusters = 3;
  cfg.n = n;
  cfg.spread = 0.02;
  cfg.skew = 1.0;
  return cfg;
}

/// Options that make the streaming path information-lossless: sampling
/// rates psi/psi' forced to 1 and sketch capacities large enough to decode
/// everything, so streamed estimates equal exact counts.
StreamingOptions lossless_options(int log_delta, PointIndex n) {
  StreamingOptions opt;
  opt.log_delta = log_delta;
  opt.max_points = n;
  opt.counting_samples = 1e18;  // psi = psi' = 1
  opt.exact_storing = true;     // plain-map reference structures
  return opt;
}

TEST(StreamingCoreset, InsertionOnlyEqualsOffline) {
  Rng rng(1);
  PointSet pts = gaussian_mixture(mixture(700), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);

  const OfflineBuildResult offline = build_offline_coreset(pts, params, 9);
  ASSERT_TRUE(offline.ok);

  StreamingCoresetBuilder builder(2, params, lossless_options(9, pts.size()));
  builder.consume(insertion_stream(pts));
  const StreamingResult streamed = builder.finalize();
  ASSERT_TRUE(streamed.ok);

  EXPECT_DOUBLE_EQ(streamed.coreset.o, offline.coreset.o);
  EXPECT_EQ(testutil::canonical_multiset(streamed.coreset.points),
            testutil::canonical_multiset(offline.coreset.points));
}

TEST(StreamingCoreset, DynamicStreamEqualsOfflineOnSurvivors) {
  Rng rng(2);
  PointSet base = gaussian_mixture(mixture(500), rng);
  PointSet extra = gaussian_mixture(mixture(400), rng);
  Rng srng(3);
  const Stream stream = churn_stream(base, extra, ChurnConfig{}, srng);
  const PointSet survivors = surviving_points(stream, 2);
  ASSERT_EQ(testutil::canonical_multiset(survivors), testutil::canonical_multiset(base));

  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const OfflineBuildResult offline = build_offline_coreset(base, params, 9);
  ASSERT_TRUE(offline.ok);

  StreamingCoresetBuilder builder(2, params, lossless_options(9, base.size() + extra.size()));
  builder.consume(stream);
  EXPECT_EQ(builder.net_count(), base.size());
  const StreamingResult streamed = builder.finalize();
  ASSERT_TRUE(streamed.ok);
  EXPECT_DOUBLE_EQ(streamed.coreset.o, offline.coreset.o);
  EXPECT_EQ(testutil::canonical_multiset(streamed.coreset.points),
            testutil::canonical_multiset(offline.coreset.points));
}

TEST(StreamingCoreset, AdversarialChurnStillMatchesOffline) {
  Rng rng(4);
  PointSet base = gaussian_mixture(mixture(400), rng);
  PointSet extra = gaussian_mixture(mixture(400), rng);
  ChurnConfig churn;
  churn.adversarial = true;
  Rng srng(5);
  const Stream stream = churn_stream(base, extra, churn, srng);

  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const OfflineBuildResult offline = build_offline_coreset(base, params, 9);
  ASSERT_TRUE(offline.ok);

  StreamingCoresetBuilder builder(2, params, lossless_options(9, 800));
  builder.consume(stream);
  const StreamingResult streamed = builder.finalize();
  ASSERT_TRUE(streamed.ok);
  EXPECT_EQ(testutil::canonical_multiset(streamed.coreset.points),
            testutil::canonical_multiset(offline.coreset.points));
}

TEST(StreamingCoreset, SampledRatesStillProduceUsableCoreset) {
  // Realistic (sampled, small-sketch) configuration: the result will not be
  // identical to offline, but must build and approximate the total weight.
  Rng rng(6);
  PointSet pts = gaussian_mixture(mixture(4000, 10), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);

  StreamingOptions opt;
  opt.log_delta = 10;
  opt.max_points = pts.size();
  StreamingCoresetBuilder builder(2, params, opt);
  builder.consume(insertion_stream(pts));
  const StreamingResult streamed = builder.finalize();
  ASSERT_TRUE(streamed.ok);
  EXPECT_GT(streamed.coreset.points.size(), 50);
  EXPECT_NEAR(streamed.coreset.total_weight(), 4000.0, 2000.0);
  EXPECT_TRUE(streamed.coreset.points.integral_weights());
}

TEST(StreamingCoreset, MemorySublinearInStreamLength) {
  // E5's claim: sketch state is bounded by configuration caps, not by n.
  // Feed 4x the data and require far less than 4x the memory (point buckets
  // allocate lazily, so some growth up to the caps is expected).
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingOptions opt;
  opt.log_delta = 10;
  opt.max_points = 1 << 20;

  auto run = [&](int n, std::uint64_t seed) {
    StreamingCoresetBuilder builder(2, params, opt);
    Rng rng(seed);
    builder.consume(insertion_stream(gaussian_mixture(mixture(n, 10), rng)));
    return builder.memory_bytes();
  };
  const std::size_t small = run(3000, 7);
  const std::size_t large = run(12000, 7);
  EXPECT_LT(static_cast<double>(large), 2.0 * static_cast<double>(small));

  StreamingCoresetBuilder builder(2, params, opt);
  EXPECT_GT(builder.memory_bytes_per_guess(), 0u);
  EXPECT_LT(builder.memory_bytes_per_guess(), builder.memory_bytes());
}

TEST(StreamingCoreset, ORangeHintShrinksGuessCount) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingOptions full;
  full.log_delta = 10;
  full.max_points = 1 << 16;
  StreamingOptions hinted = full;
  hinted.o_min = 1e5;
  hinted.o_max = 1e7;
  StreamingCoresetBuilder a(2, params, full);
  StreamingCoresetBuilder b(2, params, hinted);
  EXPECT_GT(a.num_guesses(), b.num_guesses());
  EXPECT_LT(b.memory_bytes(), a.memory_bytes());
}

TEST(StreamingCoreset, NetCountTracksInsertMinusDelete) {
  const CoresetParams params = CoresetParams::practical(2, LrOrder{2.0}, 0.3, 0.3);
  StreamingOptions opt;
  opt.log_delta = 6;
  opt.max_points = 100;
  StreamingCoresetBuilder builder(2, params, opt);
  const std::vector<Coord> p = {5, 5};
  builder.insert(p);
  builder.insert(p);
  builder.erase(p);
  EXPECT_EQ(builder.net_count(), 1);
  EXPECT_EQ(builder.events(), 3);
}

TEST(StreamingCoreset, DiagnosticsExplainEveryGuess) {
  Rng rng(8);
  PointSet pts = gaussian_mixture(mixture(600), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingCoresetBuilder builder(2, params, lossless_options(9, pts.size()));
  builder.consume(insertion_stream(pts));
  const StreamingResult result = builder.finalize();
  ASSERT_TRUE(result.ok);
  // Outcomes are recorded up to and including the accepted guess.
  EXPECT_EQ(result.diagnostics.guess_outcomes.back(), "ok");
  EXPECT_EQ(result.diagnostics.guesses_tried.size(),
            result.diagnostics.guess_outcomes.size());
}

TEST(StreamingCoreset, BuildStreamingConvenienceWrapper) {
  Rng rng(9);
  PointSet pts = gaussian_mixture(mixture(500), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  const StreamingResult result = build_streaming_coreset(
      insertion_stream(pts), 2, params, lossless_options(9, pts.size()));
  EXPECT_TRUE(result.ok);
}


// ---------------------------------------------------------------------------
// Shared per-level sketches (DESIGN.md §12): guesses with the same rounded
// rate at a level share one CountMin and one point store.  Pruning, merging
// and checkpointing must leave what every live guess reads untouched.
// ---------------------------------------------------------------------------

/// The benchmark's churn configuration at test size: the full o-range on a
/// 2^8 grid with small CountMins.  Mid-stream pruning drops the smallest
/// guesses (o = 1, 2, 4, ...), whose rate-1 sketches are shared with live
/// guesses up to o ~ 1e6.
StreamingOptions churn_options(PointIndex max_points) {
  StreamingOptions opt;
  opt.log_delta = 8;
  opt.max_points = max_points;
  opt.counting_samples = 16.0;
  opt.countmin_width = 128;
  opt.countmin_depth = 2;
  opt.prune_interval = 1024;
  return opt;
}

/// Skewed four-cluster churn: n survivors plus n/4 extras inserted and
/// deleted again.
Stream skewed_churn(PointIndex n, std::uint64_t seed) {
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 8;
  cfg.clusters = 4;
  cfg.n = n;
  cfg.spread = 0.015;
  cfg.skew = 1.3;
  Rng rng(seed);
  const PointSet survivors = gaussian_mixture(cfg, rng);
  cfg.n = n / 4;
  const PointSet extra = gaussian_mixture(cfg, rng);
  return churn_stream(survivors, extra, ChurnConfig{}, rng);
}

int pruned_mid_stream(const StreamingResult& r) {
  return static_cast<int>(std::count(r.diagnostics.guess_outcomes.begin(),
                                     r.diagnostics.guess_outcomes.end(),
                                     "pruned mid-stream (below OPT lower bound)"));
}

/// The coreset's accepted o, points, weights and levels in order, as bytes:
/// equal strings mean identical coresets, not just equal multisets.
std::string coreset_bytes(const Coreset& c) {
  std::ostringstream out;
  serial::put(out, c.o);
  for (PointIndex i = 0; i < c.points.size(); ++i) {
    for (const Coord x : c.points.point(i)) serial::put(out, x);
    serial::put(out, c.points.weight(i));
  }
  serial::put_vector(out, c.levels);
  serial::put_vector(out, c.level_weights);
  return out.str();
}

TEST(StreamingCoreset, PruningKeepsSharedSketchesOfLiveGuesses) {
  const Stream stream = skewed_churn(6000, 21);
  const CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.3, 0.3);
  const StreamingOptions prune = churn_options(static_cast<PointIndex>(stream.size()));
  StreamingOptions no_prune = prune;
  no_prune.prune_interval = 0;
  StreamingCoresetBuilder pruned(2, params, prune);
  StreamingCoresetBuilder kept(2, params, no_prune);
  pruned.consume(stream);
  kept.consume(stream);
  const StreamingResult a = pruned.finalize();
  const StreamingResult b = kept.finalize();
  EXPECT_GE(pruned_mid_stream(a), 3);
  EXPECT_EQ(pruned_mid_stream(b), 0);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_DOUBLE_EQ(a.coreset.o, b.coreset.o);
  EXPECT_EQ(coreset_bytes(a.coreset), coreset_bytes(b.coreset));
}

TEST(StreamingCoreset, MergeAfterOneSidedPruningMatchesUnpruned) {
  // Route events by point (as the engine shards do) so that one side gets
  // ~90% of the stream and prunes, while the other stays below one prune
  // interval and keeps every guess.
  const Stream stream = skewed_churn(6000, 22);
  Stream big, small;
  for (const StreamEvent& e : stream) {
    ((e.point[0] + 7 * e.point[1]) % 10 == 0 ? small : big).push_back(e);
  }
  ASSERT_LT(small.size(), 1024u);
  const CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.3, 0.3);
  const StreamingOptions prune = churn_options(static_cast<PointIndex>(stream.size()));
  StreamingOptions no_prune = prune;
  no_prune.prune_interval = 0;
  auto build = [&](const Stream& s, const StreamingOptions& opt) {
    auto b = std::make_unique<StreamingCoresetBuilder>(2, params, opt);
    b->consume(s);
    return b;
  };
  // Both merge directions: the pruned side receiving, and the unpruned side
  // receiving (it must drop its references to the shared sketches without
  // releasing the ones live guesses still read).
  for (const bool pruned_side_receives : {true, false}) {
    auto pb = build(big, prune), ps = build(small, prune);
    auto kb = build(big, no_prune), ks = build(small, no_prune);
    if (pruned_side_receives) {
      pb->merge_from(*ps);
      kb->merge_from(*ks);
    } else {
      ps->merge_from(*pb);
      ks->merge_from(*kb);
    }
    const StreamingResult a = (pruned_side_receives ? pb : ps)->finalize();
    const StreamingResult b = (pruned_side_receives ? kb : ks)->finalize();
    EXPECT_GE(pruned_mid_stream(a), 3) << pruned_side_receives;
    ASSERT_TRUE(a.ok) << pruned_side_receives;
    ASSERT_TRUE(b.ok) << pruned_side_receives;
    EXPECT_DOUBLE_EQ(a.coreset.o, b.coreset.o) << pruned_side_receives;
    EXPECT_EQ(coreset_bytes(a.coreset), coreset_bytes(b.coreset))
        << pruned_side_receives;
  }
}

TEST(StreamingCoreset, SaveLoadSaveIdenticalWithPrunedGuesses) {
  const Stream stream = skewed_churn(6000, 23);
  const CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.3, 0.3);
  const StreamingOptions opt = churn_options(static_cast<PointIndex>(stream.size()));
  const std::size_t half = stream.size() / 2;
  const Stream head(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(half));
  const Stream tail(stream.begin() + static_cast<std::ptrdiff_t>(half), stream.end());

  StreamingCoresetBuilder original(2, params, opt);
  original.consume(head);
  ASSERT_GE(pruned_mid_stream(original.finalize()), 1);
  const std::string first = testutil::serialized(original);
  StreamingCoresetBuilder restored(2, params, opt);
  std::istringstream in(first);
  ASSERT_TRUE(restored.load(in));
  EXPECT_EQ(testutil::serialized(restored), first);

  // Refcounts are rebuilt on load: feeding both the rest of the stream
  // must keep them identical (a live shared entry counted as dead would
  // stop taking events).
  original.consume(tail);
  restored.consume(tail);
  EXPECT_EQ(testutil::serialized(restored), testutil::serialized(original));
  const StreamingResult a = restored.finalize();
  const StreamingResult b = original.finalize();
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_DOUBLE_EQ(a.coreset.o, b.coreset.o);
  EXPECT_EQ(testutil::canonical_multiset(a.coreset.points),
            testutil::canonical_multiset(b.coreset.points));
}

TEST(StreamingCoreset, LoadRefusesStrm2Blob) {
  const CoresetParams params = CoresetParams::practical(4, LrOrder{2.0}, 0.3, 0.3);
  const StreamingOptions opt = churn_options(1000);
  StreamingCoresetBuilder builder(2, params, opt);
  builder.consume(skewed_churn(400, 24));
  std::string blob = testutil::serialized(builder);
  {
    StreamingCoresetBuilder fresh(2, params, opt);
    std::istringstream in(blob);
    EXPECT_TRUE(fresh.load(in));
  }
  // The previous format (per-guess CountMins ahead of the store pool) under
  // its own magic must be refused, not misread.
  std::ostringstream old_magic;
  serial::put<std::uint64_t>(old_magic, 0x534b435354524d32ULL);  // "SKCSTRM2"
  blob.replace(0, 8, old_magic.str());
  StreamingCoresetBuilder fresh(2, params, opt);
  std::istringstream in(blob);
  EXPECT_FALSE(fresh.load(in));
}

}  // namespace
}  // namespace skc
