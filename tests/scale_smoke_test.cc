// Corpus-scale smoke: streams a ~50k-document scaled world through the
// out-of-core index build (no stored text, deferred block index), builds
// the same index under bisection docid reordering, and checks the scale
// contract end to end — identical ranked results modulo layout, smaller
// compressed postings, and an ORCAS-shaped click log over the same corpus.
//
// Gated behind CKR_SCALE_SMOKE because it costs tens of seconds on one
// core: scripts/check_all.sh sets the flag; plain ctest skips.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "clicks/click_log.h"
#include "corpus/corpus_stream.h"
#include "corpus/document.h"
#include "corpus/world.h"
#include "index/inverted_index.h"

namespace ckr {
namespace {

constexpr size_t kSmokeDocs = 50000;

TEST(ScaleSmokeTest, StreamedBuildReorderAndClickLog) {
  if (std::getenv("CKR_SCALE_SMOKE") == nullptr) {
    GTEST_SKIP() << "set CKR_SCALE_SMOKE=1 to run the corpus-scale smoke";
  }
  auto world_or = World::Create(ScaledWorldConfig(kSmokeDocs, 20090331));
  ASSERT_TRUE(world_or.ok()) << world_or.status().message();
  const World& world = *world_or.value();
  CorpusStreamer streamer(world);

  IndexBuildOptions stream_opts;
  stream_opts.store_text = false;       // Out-of-core regime: text dropped.
  stream_opts.build_block_index = false;  // Deferred until after Finalize.
  InvertedIndex baseline(stream_opts);
  IndexBuildOptions reorder_opts = stream_opts;
  reorder_opts.docid_order = DocidOrder::kBisection;
  InvertedIndex reordered(reorder_opts);

  CorpusStreamConfig stream_cfg;
  stream_cfg.workers = 2;
  Status s = streamer.Stream(Document::Kind::kWeb, kSmokeDocs, stream_cfg,
                             [&](Document&& doc) {
                               baseline.Add(doc);
                               reordered.Add(doc);
                             });
  ASSERT_TRUE(s.ok()) << s.message();
  baseline.Finalize();
  reordered.Finalize();
  ASSERT_EQ(baseline.NumDocs(), kSmokeDocs);
  ASSERT_EQ(reordered.NumDocs(), kSmokeDocs);
  ASSERT_EQ(baseline.NumTerms(), reordered.NumTerms());

  baseline.RebuildBlockIndex(BlockCodec::kVarintGB);
  reordered.RebuildBlockIndex(BlockCodec::kVarintGB);

  // Locality payoff: clustering topically similar documents shrinks the
  // delta gaps, so the serialized block postings must not grow.
  const size_t baseline_bytes = baseline.SerializeBlockIndex().size();
  const size_t reordered_bytes = reordered.SerializeBlockIndex().size();
  EXPECT_LE(reordered_bytes, baseline_bytes)
      << "bisection made the compressed index larger";

  // Ranked results are layout-independent: same docs, bit-identical
  // scores, under every evaluator.
  std::vector<std::string> queries;
  for (size_t i = 0; i < world.NumEntities(); i += 97) {
    queries.push_back(world.entity(static_cast<EntityId>(i)).key);
  }
  for (const std::string& q : queries) {
    const auto oracle = baseline.Search(q, 20);
    EXPECT_EQ(baseline.RegularResultCount(q), reordered.RegularResultCount(q))
        << q;
    for (QueryEvaluator evaluator :
         {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore}) {
      const auto got = reordered.Search(q, 20, Bm25Params{}, evaluator);
      ASSERT_EQ(oracle.size(), got.size()) << q;
      for (size_t i = 0; i < oracle.size(); ++i) {
        ASSERT_EQ(oracle[i].doc, got[i].doc) << q << " rank " << i;
        ASSERT_EQ(oracle[i].score, got[i].score) << q << " rank " << i;
      }
    }
  }

  // ORCAS-regime click log over the same corpus (6 pairs/doc default).
  ClickLogConfig click_cfg;
  click_cfg.workers = 2;
  ClickLogGenerator log(world, Document::Kind::kWeb, kSmokeDocs, click_cfg);
  EXPECT_EQ(log.NumPairs(), kSmokeDocs * 6);
  StatusOr<ClickLogStats> stats = CollectClickLogStats(log);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->pairs, kSmokeDocs * 6);
  EXPECT_LT(stats->distinct_query_doc_pairs, stats->pairs);
  EXPECT_GT(stats->distinct_queries, 500u);
  EXPECT_GT(stats->distinct_docs, kSmokeDocs / 4);
}

}  // namespace
}  // namespace ckr
