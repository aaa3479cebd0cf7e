// Tests for framework binary I/O and the deployable store pack.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/binary_io.h"
#include "common/check.h"
#include "core/contextual_ranker.h"
#include "corpus/doc_generator.h"
#include "framework/store_pack.h"

namespace ckr {
namespace {

TEST(BinaryIoTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.U16(0xabcd);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.F64(-3.75);
  w.Str("hello binary");
  w.Str("");
  std::string blob = w.Release();

  BinaryReader r(blob);
  EXPECT_EQ(r.U16(), 0xabcd);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.F64(), -3.75);
  EXPECT_EQ(r.Str(), "hello binary");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, OverReadSetsNotOk) {
  BinaryWriter w;
  w.U32(7);
  std::string blob = w.Release();
  BinaryReader r(blob);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // Past the end.
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.AtEnd());
}

TEST(BinaryIoTest, CorruptStringLengthDetected) {
  BinaryWriter w;
  w.U32(1000);  // Claims a 1000-byte string with no payload.
  BinaryReader r(w.Release());
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(StoreComponentTest, TidTableRoundTrip) {
  GlobalTidTable table;
  uint32_t a = table.Intern("alpha");
  uint32_t b = table.Intern("beta stem");
  BinaryWriter w;
  table.SaveTo(&w);
  std::string blob = w.Release();
  BinaryReader r(blob);
  auto restored = GlobalTidTable::LoadFrom(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Lookup("alpha"), a);
  EXPECT_EQ(restored->Lookup("beta stem"), b);
  EXPECT_EQ(restored->size(), 2u);
}

TEST(StoreComponentTest, QuantizedStoreRoundTrip) {
  QuantizedInterestingnessStore store;
  InterestingnessVector v;
  v.freq_exact = 3.5;
  v.unit_score = 0.7;
  v.high_level_type[1] = 1.0;
  store.Add("concept x", v);
  InterestingnessVector zero;
  store.Add("concept y", zero);
  store.Finalize();

  BinaryWriter w;
  store.SaveTo(&w);
  std::string blob = w.Release();
  BinaryReader r(blob);
  auto restored = QuantizedInterestingnessStore::LoadFrom(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::vector<double> orig, loaded;
  ASSERT_TRUE(store.Lookup("concept x", &orig));
  ASSERT_TRUE(restored->Lookup("concept x", &loaded));
  ASSERT_EQ(orig.size(), loaded.size());
  for (size_t i = 0; i < orig.size(); ++i) {
    EXPECT_DOUBLE_EQ(orig[i], loaded[i]) << i;
  }
}

TEST(StoreComponentTest, PackedRelevanceRoundTrip) {
  GlobalTidTable tids;
  PackedRelevanceStore store(&tids);
  store.Add("c1", {{"ta", 10.0}, {"tb", 5.0}});
  store.Add("c2", {{"tb", 8.0}, {"tc", 1.0}});
  store.Finalize();

  BinaryWriter w;
  store.SaveTo(&w);
  std::string blob = w.Release();
  BinaryReader r(blob);
  auto restored = PackedRelevanceStore::LoadFrom(&r, &tids);
  ASSERT_TRUE(restored.ok());
  std::unordered_set<uint32_t> ctx = {tids.Lookup("ta"), tids.Lookup("tb")};
  EXPECT_NEAR(restored->Score("c1", ctx), store.Score("c1", ctx), 1e-9);
  EXPECT_NEAR(restored->Score("c2", ctx), store.Score("c2", ctx), 1e-9);
}

TEST(StorePackTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(StorePack::Deserialize("garbage").ok());
  EXPECT_FALSE(StorePack::Deserialize("").ok());
}

// A tiny but complete pack, cheap enough to deserialize hundreds of
// mutated copies of.
std::string SmallPackBlob() {
  GlobalTidTable tids;
  QuantizedInterestingnessStore interest;
  InterestingnessVector v;
  v.freq_exact = 1.5;
  interest.Add("concept x", v);
  interest.Add("concept y", {});
  interest.Finalize();
  PackedRelevanceStore relevance(&tids);
  relevance.Add("concept x", {{"ta", 10.0}, {"tb", 5.0}});
  relevance.Add("concept y", {{"tb", 8.0}});
  relevance.Finalize();
  auto model = RankSvmModel::Deserialize(
      "ranksvm v1\n"
      "kernel linear\n"
      "mean 2 0 0\n"
      "inv_sd 2 1 1\n"
      "weights 2 1 2\n"
      "rff 0\n");
  CKR_CHECK(model.ok());
  return SerializeStorePack(tids, interest, relevance, *model);
}

TEST(StorePackTest, EveryTruncatedPrefixIsRejected) {
  std::string blob = SmallPackBlob();
  ASSERT_TRUE(StorePack::Deserialize(blob).ok());
  // Chop the valid pack at every 7th byte: every strict prefix must be
  // rejected with a Status — no abort, no overread, no false accept.
  for (size_t len = 0; len < blob.size(); len += 7) {
    auto truncated = StorePack::Deserialize(blob.substr(0, len));
    EXPECT_FALSE(truncated.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(StoreComponentTest, TidTableRejectsCorruptCount) {
  BinaryWriter w;
  w.U32(0x54493031);  // 'TI01'
  w.U32(0xFFFFFFFF);  // Claims 4 billion entries in an empty payload.
  BinaryReader r(w.buffer());
  auto table = GlobalTidTable::LoadFrom(&r);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreComponentTest, QuantizedStoreRejectsCorruptCount) {
  BinaryWriter w;
  w.U32(0x51493031);  // 'QI01'
  const size_t dim = InterestingnessVector::Dim();
  w.U32(static_cast<uint32_t>(dim));
  for (size_t i = 0; i < 2 * dim; ++i) w.F64(0.0);  // min/max tables.
  w.U32(0xFFFFFFFF);  // Corrupt record count.
  BinaryReader r(w.buffer());
  auto store = QuantizedInterestingnessStore::LoadFrom(&r);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreComponentTest, PackedRelevanceRejectsCorruptCount) {
  BinaryWriter w;
  w.U32(0x50523031);  // 'PR01'
  w.F64(1.0);         // score_scale
  w.U32(0xFFFFFFFF);  // Corrupt record count.
  BinaryReader r(w.buffer());
  GlobalTidTable tids;
  auto store = PackedRelevanceStore::LoadFrom(&r, &tids);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

TEST(StorePackTest, EndToEndRoundTripPreservesRanking) {
  ContextualRankerOptions options;
  options.pipeline = PipelineConfig::SmallForTests();
  auto ranker_or = ContextualRanker::Train(options);
  ASSERT_TRUE(ranker_or.ok());
  const ContextualRanker& ranker = **ranker_or;

  std::string blob = ranker.SerializePack();
  ASSERT_GT(blob.size(), 10000u);
  auto pack_or = StorePack::Deserialize(blob);
  ASSERT_TRUE(pack_or.ok()) << pack_or.status().ToString();
  const StorePack& pack = *pack_or;

  // A RuntimeRanker built from the loaded pack ranks identically to the
  // trained one (the detector is shared: dictionaries are provisioned
  // separately in production).
  RuntimeRanker loaded(ranker.pipeline().detector(), pack.interestingness,
                       *pack.relevance, *pack.tids, pack.model);
  DocGenerator gen(ranker.pipeline().world());
  for (DocId i = 0; i < 5; ++i) {
    Document story = gen.Generate(Document::Kind::kNews, 777000 + i);
    auto original = ranker.Rank(story.text);
    auto restored = loaded.ProcessDocument(story.text);
    ASSERT_EQ(original.size(), restored.size()) << i;
    for (size_t k = 0; k < original.size(); ++k) {
      EXPECT_EQ(original[k].key, restored[k].key);
      EXPECT_NEAR(original[k].score, restored[k].score, 1e-9);
    }
  }

  // File round trip.
  std::string path = ::testing::TempDir() + "/ckr_pack.bin";
  ASSERT_TRUE(pack.SaveToFile(path).ok());
  auto from_file = StorePack::LoadFromFile(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_EQ(from_file->tids->size(), pack.tids->size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ckr
