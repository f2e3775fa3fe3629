// Checkpoint/restore of the streaming builder: feed half a stream, save,
// restore into a fresh builder, feed the rest — the result must equal an
// uninterrupted run exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "skc/coreset/streaming.h"
#include "skc/engine/engine.h"
#include "skc/stream/generators.h"
#include "test_util.h"

namespace skc {
namespace {

MixtureConfig mixture(int n) {
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 9;
  cfg.clusters = 3;
  cfg.n = n;
  cfg.spread = 0.02;
  cfg.skew = 1.0;
  return cfg;
}

StreamingOptions options() {
  StreamingOptions opt;
  opt.log_delta = 9;
  opt.max_points = 4000;
  return opt;
}

TEST(Checkpoint, ResumeEqualsUninterruptedRun) {
  Rng rng(1);
  PointSet base = gaussian_mixture(mixture(1200), rng);
  PointSet extra = gaussian_mixture(mixture(600), rng);
  Rng srng(2);
  const Stream stream = churn_stream(base, extra, ChurnConfig{}, srng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);

  // Uninterrupted reference.
  StreamingCoresetBuilder reference(2, params, options());
  reference.consume(stream);
  const StreamingResult want = reference.finalize();
  ASSERT_TRUE(want.ok);

  // Interrupted run: half the stream, checkpoint, restore, rest.
  StreamingCoresetBuilder first(2, params, options());
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    first.update(stream[i].point, stream[i].op == StreamOp::kInsert ? +1 : -1);
  }
  std::stringstream checkpoint;
  first.save(checkpoint);

  StreamingCoresetBuilder second(2, params, options());
  ASSERT_TRUE(second.load(checkpoint));
  EXPECT_EQ(second.net_count(), first.net_count());
  EXPECT_EQ(second.events(), first.events());
  for (std::size_t i = half; i < stream.size(); ++i) {
    second.update(stream[i].point, stream[i].op == StreamOp::kInsert ? +1 : -1);
  }
  const StreamingResult got = second.finalize();
  ASSERT_TRUE(got.ok);
  EXPECT_DOUBLE_EQ(got.coreset.o, want.coreset.o);
  EXPECT_EQ(testutil::canonical_multiset(got.coreset.points),
            testutil::canonical_multiset(want.coreset.points));
}

TEST(Checkpoint, RejectsMismatchedConfiguration) {
  Rng rng(3);
  PointSet pts = gaussian_mixture(mixture(300), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingCoresetBuilder builder(2, params, options());
  builder.consume(insertion_stream(pts));
  std::stringstream checkpoint;
  builder.save(checkpoint);

  // Different seed: fingerprint mismatch.
  CoresetParams other = params;
  other.seed = params.seed + 1;
  StreamingCoresetBuilder wrong(2, other, options());
  EXPECT_FALSE(wrong.load(checkpoint));
}

TEST(Checkpoint, RejectsTruncation) {
  Rng rng(4);
  PointSet pts = gaussian_mixture(mixture(300), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingCoresetBuilder builder(2, params, options());
  builder.consume(insertion_stream(pts));
  std::stringstream checkpoint;
  builder.save(checkpoint);
  std::string blob = checkpoint.str();
  blob.resize(blob.size() / 2);
  std::stringstream truncated(blob);
  StreamingCoresetBuilder fresh(2, params, options());
  EXPECT_FALSE(fresh.load(truncated));
}

// ---------------------------------------------------------------------------
// Engine-level snapshots: version 2 wraps the whole body (shard builder
// saves, STRM3 sketch-pool sections included) in a size + CRC-64 frame, so
// ANY truncation or bit flip must be a clean `false` — never a partial load,
// never UB (the tier-1 suite runs under sanitizers).

EngineOptions engine_options() {
  EngineOptions opt;
  opt.num_shards = 2;
  opt.worker_threads = 0;
  opt.streaming = options();
  return opt;
}

std::string engine_snapshot(ClusteringEngine& engine, int n) {
  Rng rng(7);
  PointSet pts = gaussian_mixture(mixture(n), rng);
  engine.submit(insertion_stream(pts));
  engine.flush();
  std::stringstream out;
  EXPECT_TRUE(engine.save_state(out));
  return out.str();
}

TEST(Checkpoint, EngineStateRoundTripsThroughTheCrcFrame) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  ClusteringEngine engine(2, params, engine_options());
  const std::string blob = engine_snapshot(engine, 400);

  ClusteringEngine restored(2, params, engine_options());
  std::istringstream in(blob);
  ASSERT_TRUE(restored.load_state(in));
  EXPECT_EQ(restored.net_count(), engine.net_count());
  EngineQuery q;
  q.summary_only = true;
  const EngineQueryResult a = engine.query(q);
  const EngineQueryResult b = restored.query(q);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(testutil::canonical_multiset(a.summary.points),
            testutil::canonical_multiset(b.summary.points));
  engine.shutdown();
  restored.shutdown();
}

TEST(Checkpoint, EngineStateRejectsEveryTruncationAndBitFlip) {
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  ClusteringEngine engine(2, params, engine_options());
  const std::string blob = engine_snapshot(engine, 400);
  engine.shutdown();
  ASSERT_GT(blob.size(), 64u);

  const auto rejects = [&params](const std::string& bytes) {
    ClusteringEngine fresh(2, params, engine_options());
    std::istringstream in(bytes);
    const bool loaded = fresh.load_state(in);
    fresh.shutdown();
    return !loaded;
  };

  // Truncation sweep: inside the magic, the version, the size/CRC fields,
  // and at several cuts through the payload (which holds the shard
  // builders' STRM3 sketch-pool sections).
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, std::size_t{11}, std::size_t{20},
        std::size_t{27}, blob.size() / 4, blob.size() / 2, blob.size() - 1}) {
    EXPECT_TRUE(rejects(blob.substr(0, keep))) << "keep=" << keep;
  }

  // Bit-flip sweep: every prologue byte (magic/version/size/CRC) plus 32
  // evenly spaced offsets through the CRC-covered payload.
  const std::size_t payload_bytes = blob.size() - 28;
  const std::size_t step = payload_bytes > 32 ? payload_bytes / 32 : 1;
  for (std::size_t at = 0; at < blob.size();
       at = at < 28 ? at + 1 : at + step) {
    std::string bad = blob;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    EXPECT_TRUE(rejects(bad)) << "flip at " << at;
  }

  // An announced size far past the actual stream must fail on the short
  // read, not allocate or scan unbounded memory.
  {
    std::string bad = blob;
    const std::uint64_t huge = ~std::uint64_t{0} / 2;
    std::memcpy(bad.data() + 12, &huge, sizeof(huge));
    EXPECT_TRUE(rejects(bad));
  }

  // The untouched blob still loads: the sweeps rejected corruption, not
  // the format.
  EXPECT_FALSE(rejects(blob));
}

TEST(Checkpoint, ExactModeRoundTripsToo) {
  Rng rng(5);
  PointSet pts = gaussian_mixture(mixture(500), rng);
  const CoresetParams params = CoresetParams::practical(3, LrOrder{2.0}, 0.3, 0.3);
  StreamingOptions opt = options();
  opt.exact_storing = true;
  StreamingCoresetBuilder builder(2, params, opt);
  builder.consume(insertion_stream(pts));
  std::stringstream checkpoint;
  builder.save(checkpoint);

  StreamingCoresetBuilder restored(2, params, opt);
  ASSERT_TRUE(restored.load(checkpoint));
  const StreamingResult a = builder.finalize();
  const StreamingResult b = restored.finalize();
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(testutil::canonical_multiset(a.coreset.points),
            testutil::canonical_multiset(b.coreset.points));
}

}  // namespace
}  // namespace skc
