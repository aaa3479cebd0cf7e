// Tests of the benchmark's own code: exact percentiles, round summaries,
// span self times, the windowed load generator and the output digests.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "annotate_workload.h"
#include "bench_util.h"
#include "search_workload.h"

namespace perfbench {
namespace {

TEST(ExactPercentileTest, NearestRankOnKnownInputs) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  EXPECT_EQ(ExactPercentile(v, 0.5), 50.0);
  EXPECT_EQ(ExactPercentile(v, 0.99), 99.0);
  EXPECT_EQ(ExactPercentile(v, 0.999), 100.0);
  EXPECT_EQ(ExactPercentile(v, 1.0), 100.0);
  EXPECT_EQ(ExactPercentile(v, 0.0), 1.0);
  EXPECT_EQ(ExactPercentile(v, 0.011), 2.0);  // ceil(1.1) = 2nd smallest.
}

TEST(ExactPercentileTest, ReturnsSamplesNeverInterpolations) {
  EXPECT_EQ(ExactPercentile({}, 0.5), 0.0);
  EXPECT_EQ(ExactPercentile({7.5}, 0.99), 7.5);
  EXPECT_EQ(ExactPercentile({1.0, 10.0}, 0.5), 1.0);
  EXPECT_EQ(ExactPercentile({1.0, 10.0}, 0.51), 10.0);
  EXPECT_EQ(ExactPercentile({3.0, 3.0, 3.0, 9.0}, 0.75), 3.0);
  EXPECT_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(RoundsTest, SplitsByCompletionTimeAndTakesMedians) {
  // Three rounds of 1000 ns; round 1 is slow and busy.
  std::vector<LatencySample> samples = {
      {100, 10.0}, {200, 20.0},                       // round 0
      {1100, 90.0}, {1200, 80.0}, {1300, 70.0},       // round 1
      {2100, 30.0}, {2200, 40.0},                     // round 2
      {50, 1e9}, {3100, 1e9}};                        // outside
  const std::vector<RoundStats> rounds = PerRound(samples, 100, 1000, 3);
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[0].samples, 2u);
  EXPECT_EQ(rounds[1].samples, 3u);
  EXPECT_EQ(rounds[2].samples, 2u);
  EXPECT_EQ(rounds[1].p50_us, 80.0);
  EXPECT_EQ(rounds[0].throughput_per_s, 2e6);
  const PhaseSummary s = Summarize(rounds);
  EXPECT_EQ(s.p50_us, 30.0);        // Median of 10, 80, 30.
  EXPECT_EQ(s.p99_us, 40.0);        // Median of 20, 90, 40.
  EXPECT_EQ(s.throughput_per_s, 2e6);
  EXPECT_EQ(s.samples, 7u);
  EXPECT_EQ(s.min_round_samples, 2u);
}

TEST(SpanLogTest, SelfTimeSubtractsChildrenAndAbsorbRebases) {
  SpanLog a;
  a.Add("first", 0, 10, -1, 0);
  SpanLog b;
  const int64_t root = b.Add("root", 0, 100, -1, 7);
  b.Add("child", 10, 30, root, 7);
  b.Add("child", 40, 50, root, 7);
  b.Add("outside", 90, 120, root, 7);  // Clipped to the parent.
  a.Absorb(b);
  ASSERT_EQ(a.spans().size(), 5u);
  EXPECT_EQ(a.spans()[2].parent, 1);
  const std::vector<double> self = a.SelfSeconds();
  EXPECT_DOUBLE_EQ(self[1], 60e-9);
  EXPECT_DOUBLE_EQ(self[2], 20e-9);
}

TEST(Fnv1aTest, KnownVectorAndBitExactDoubles) {
  Fnv1a h;
  h.Bytes("a", 1);
  EXPECT_EQ(h.value(), 0xaf63dc4c8601ec8cull);
  Fnv1a zero, negzero;
  zero.F64(0.0);
  negzero.F64(-0.0);
  EXPECT_NE(zero.value(), negzero.value());
}

/// A small sharded index behind a running daemon.
class WindowedLoadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto corpus = GenerateSearchCorpus(3000, 5, 2);
    ASSERT_TRUE(corpus.ok());
    corpus_ = new SearchCorpus(std::move(*corpus));
    auto snapshot = BuildSnapshot(corpus_->docs, 3, nullptr);
    ASSERT_TRUE(snapshot.ok());
    snapshot_ = snapshot->release();
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete corpus_;
  }

  /// Serves [0, n) with `window` in flight on a fresh daemon.
  static WindowedRun Serve(const std::vector<std::string>& queries,
                           size_t window, uint64_t n) {
    ckr::obs::MetricRegistry registry;
    ckr::ServeDaemonConfig config;
    config.num_workers = 2;
    config.metrics = &registry;
    ckr::ServeDaemon daemon(config);
    daemon.Publish(std::make_unique<ckr::ServingSnapshot>(
        ckr::ShardedIndex(CopyIndex())));
    EXPECT_TRUE(daemon.Start().ok());
    WindowConfig wc;
    wc.window = window;
    wc.max_requests = n;
    WindowedRun run = RunWindowed(daemon, queries, 10, wc);
    daemon.Stop();
    EXPECT_EQ(registry.GetCounter("ckr.serve.admitted")->Value(), n);
    EXPECT_EQ(registry.GetCounter("ckr.serve.completed")->Value(), n);
    return run;
  }

  /// The daemon owns its snapshot, so each test daemon gets a rebuilt one.
  static ckr::ShardedIndex CopyIndex() {
    auto snapshot = BuildSnapshot(corpus_->docs, 3, nullptr);
    EXPECT_TRUE(snapshot.ok());
    return std::move((*snapshot)->index);
  }

  static SearchCorpus* corpus_;
  static ckr::ServingSnapshot* snapshot_;
};

SearchCorpus* WindowedLoadTest::corpus_ = nullptr;
ckr::ServingSnapshot* WindowedLoadTest::snapshot_ = nullptr;

TEST_F(WindowedLoadTest, AnswersEveryRequestExactlyOnce) {
  const std::vector<std::string> queries = MakeQueries(*corpus_->world, 11, 300);
  for (size_t window : {1u, 4u, 16u}) {
    SCOPED_TRACE(window);
    const WindowedRun run = Serve(queries, window, 300);
    EXPECT_EQ(run.submitted, 300u);
    EXPECT_EQ(run.callbacks, 300u);
    EXPECT_EQ(run.stray_callbacks, 0u);
    std::vector<int> seen(300, 0);
    for (const ServedRequest& r : run.requests) {
      ASSERT_LT(r.index, 300u);
      ++seen[r.index];
      EXPECT_EQ(r.outcome, ckr::ServeOutcome::kOk);
      EXPECT_GE(r.finish_nanos, r.submit_nanos);
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](int c) { return c == 1; }));
    EXPECT_EQ(CountWrongAnswers(*snapshot_, queries, 10, run.requests, 2), 0u);
  }
}

TEST_F(WindowedLoadTest, TimeLimitedRunDrainsEverything) {
  const std::vector<std::string> queries = MakeQueries(*corpus_->world, 3, 64);
  ckr::obs::MetricRegistry registry;
  ckr::ServeDaemonConfig config;
  config.metrics = &registry;
  ckr::ServeDaemon daemon(config);
  daemon.Publish(std::make_unique<ckr::ServingSnapshot>(CopyIndex()));
  ASSERT_TRUE(daemon.Start().ok());
  WindowConfig wc;
  wc.first_index = 1000;
  wc.run_nanos = 50'000'000;
  const WindowedRun run = RunWindowed(daemon, queries, 10, wc);
  daemon.Stop();
  EXPECT_GT(run.submitted, 0u);
  EXPECT_EQ(run.requests.size(), run.submitted);
  EXPECT_EQ(run.callbacks, run.submitted);
  for (const ServedRequest& r : run.requests) EXPECT_GE(r.index, 1000u);
}

TEST_F(WindowedLoadTest, OutputDigestIndependentOfWindowAndSeeded) {
  const std::vector<std::string> a = MakeQueries(*corpus_->world, 21, 200);
  const std::vector<std::string> b = MakeQueries(*corpus_->world, 22, 200);
  uint64_t d1 = 0, d4 = 0, other = 0;
  ASSERT_TRUE(OutputDigest(Serve(a, 1, 200).requests, 0, 200, &d1));
  ASSERT_TRUE(OutputDigest(Serve(a, 4, 200).requests, 0, 200, &d4));
  ASSERT_TRUE(OutputDigest(Serve(b, 4, 200).requests, 0, 200, &other));
  EXPECT_EQ(d1, d4);
  EXPECT_NE(d1, other);
  EXPECT_FALSE(OutputDigest(Serve(a, 4, 10).requests, 0, 200, &d1));
}

TEST(AnnotateLoadTest, DigestsIndependentOfClientCount) {
  const ckr::PipelineConfig pipeline = ckr::PipelineConfig::SmallForTests();
  auto trained =
      ckr::ContextualRanker::Train(PinnedRankerOptions(pipeline, 2));
  ASSERT_TRUE(trained.ok());
  const ckr::RuntimeRanker& runtime = (*trained)->runtime();
  const std::vector<std::string> docs = MakeNewsDocs(pipeline.world, 9, 64);
  const std::vector<uint64_t> reference = SequentialDigests(runtime, docs);

  uint64_t first = 0;
  for (unsigned clients : {1u, 2u, 3u}) {
    SCOPED_TRACE(clients);
    ClosedLoopConfig config;
    config.clients = clients;
    config.max_requests = 150;  // More than one pass over the pool.
    config.trace = clients == 2;
    const ClosedLoopRun run = RunClosedLoop(runtime, docs, config);
    EXPECT_EQ(run.docs.size(), 150u);
    EXPECT_EQ(CountWrongAnnotations(run.docs, reference), 0u);
    uint64_t digest = 0;
    ASSERT_TRUE(AnnotateOutputDigest(run.docs, 64, &digest));
    if (clients == 1) first = digest;
    EXPECT_EQ(digest, first);
    if (config.trace) {
      EXPECT_EQ(run.stats.documents, 150u);
    }
  }

  // Other seeds draw other documents, so other outputs.
  const std::vector<uint64_t> other =
      SequentialDigests(runtime, MakeNewsDocs(pipeline.world, 10, 64));
  EXPECT_NE(other, reference);

  // The step-by-step rebuild the traced run times is the same runtime.
  RankerSetupTimes times;
  auto stepwise = BuildStepwiseRanker(PinnedRankerOptions(pipeline, 2), &times);
  ASSERT_TRUE(stepwise.ok());
  EXPECT_EQ(SequentialDigests(*(*stepwise)->runtime, docs), reference);
  EXPECT_GT(times.pipeline_build_s, 0.0);
  EXPECT_GT((*stepwise)->StoreMb(), 0.0);
}

}  // namespace
}  // namespace perfbench
