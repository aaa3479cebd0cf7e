// Unit tests for ckr_framework: bit I/O, Golomb coding, quantized stores,
// TID table, and the runtime ranker.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "framework/bitstream.h"
#include "framework/golomb.h"
#include "framework/runtime_ranker.h"
#include "obs/hooks.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

namespace ckr {
namespace {

TEST(BitstreamTest, BitRoundTrip) {
  BitWriter w;
  w.WriteBit(true);
  w.WriteBit(false);
  w.WriteBits(0b10110, 5);
  w.WriteUnary(3);
  auto bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_TRUE(r.ReadBit());
  EXPECT_FALSE(r.ReadBit());
  EXPECT_EQ(r.ReadBits(5), 0b10110u);
  EXPECT_EQ(r.ReadUnary(), 3u);
  EXPECT_FALSE(r.overflow());
}

TEST(BitstreamTest, OverflowDetected) {
  BitWriter w;
  w.WriteBits(0xff, 8);
  auto bytes = w.Finish();
  BitReader r(bytes);
  r.ReadBits(8);
  r.ReadBit();
  EXPECT_TRUE(r.overflow());
}

TEST(BitstreamTest, LargeValues) {
  BitWriter w;
  w.WriteBits(0xdeadbeefcafebabeULL, 64);
  auto bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(r.ReadBits(64), 0xdeadbeefcafebabeULL);
}

TEST(GolombTest, EncodeDecodeSingleValues) {
  for (uint64_t m : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull, 100ull}) {
    for (uint64_t v : {0ull, 1ull, 2ull, 7ull, 63ull, 1000ull}) {
      BitWriter w;
      GolombEncode(v, m, &w);
      auto bytes = w.Finish();
      BitReader r(bytes);
      EXPECT_EQ(GolombDecode(m, &r), v) << "m=" << m << " v=" << v;
    }
  }
}

TEST(GolombTest, OptimalParameterRule) {
  EXPECT_EQ(OptimalGolombParameter(0.5), 1u);
  EXPECT_EQ(OptimalGolombParameter(1.0), 1u);
  EXPECT_EQ(OptimalGolombParameter(10.0), 7u);   // ceil(6.9)
  EXPECT_EQ(OptimalGolombParameter(100.0), 69u);
}

TEST(GolombTest, SortedIdsRoundTrip) {
  std::vector<uint32_t> ids = {3, 7, 8, 100, 1024, 4000, 4001, 99999};
  auto encoded = EncodeSortedIds(ids, 1u << 22);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeSortedIds(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, ids);
}

TEST(GolombTest, EmptyList) {
  auto encoded = EncodeSortedIds({}, 100);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeSortedIds(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(GolombTest, RejectsUnsortedAndOutOfRange) {
  EXPECT_FALSE(EncodeSortedIds({5, 4}, 100).ok());
  EXPECT_FALSE(EncodeSortedIds({5, 5}, 100).ok());
  EXPECT_FALSE(EncodeSortedIds({5, 200}, 100).ok());
}

TEST(GolombTest, CompressesDenseLists) {
  // 100 ids in a 4M universe: raw = 400 bytes; Golomb should beat it.
  std::vector<uint32_t> ids;
  Rng rng(5);
  uint32_t cur = 0;
  for (int i = 0; i < 100; ++i) {
    cur += 1 + static_cast<uint32_t>(rng.NextBounded(60000));
    ids.push_back(cur);
  }
  auto encoded = EncodeSortedIds(ids, 1u << 22);
  ASSERT_TRUE(encoded.ok());
  EXPECT_LT(encoded->size(), ids.size() * sizeof(uint32_t));
  auto decoded = DecodeSortedIds(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, ids);
}

TEST(GolombTest, RandomizedRoundTripProperty) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 1 + rng.NextBounded(200);
    std::vector<uint32_t> ids;
    uint32_t cur = 0;
    for (size_t i = 0; i < n; ++i) {
      cur += 1 + static_cast<uint32_t>(rng.NextBounded(1000));
      ids.push_back(cur);
    }
    auto encoded = EncodeSortedIds(ids, cur + 1);
    ASSERT_TRUE(encoded.ok());
    auto decoded = DecodeSortedIds(*encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, ids);
  }
}

TEST(TidTableTest, InternAndLookup) {
  GlobalTidTable tids;
  uint32_t a = tids.Intern("alpha");
  uint32_t b = tids.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(tids.Intern("alpha"), a);  // Idempotent.
  EXPECT_EQ(tids.Lookup("alpha"), a);
  EXPECT_EQ(tids.Lookup("gamma"), GlobalTidTable::kMaxTid);
  EXPECT_EQ(tids.size(), 2u);
  EXPECT_FALSE(tids.overflowed());
  EXPECT_LE(a, GlobalTidTable::kMaxTid);
}

TEST(QuantizedStoreTest, RoundTripWithinGranularity) {
  QuantizedInterestingnessStore store;
  InterestingnessVector v;
  v.freq_exact = 5.5;
  v.freq_phrase_contained = 7.25;
  v.unit_score = 0.42;
  v.searchengine_phrase = 3.0;
  v.concept_size = 2;
  v.number_of_chars = 17;
  v.subconcepts = 1;
  v.wiki_word_count = 6.2;
  v.high_level_type[2] = 1.0;
  store.Add("concept a", v);
  InterestingnessVector w;  // A second vector to span the ranges.
  w.freq_exact = 0.0;
  w.unit_score = 1.0;
  store.Add("concept b", w);
  store.Finalize();

  std::vector<double> out;
  ASSERT_TRUE(store.Lookup("concept a", &out));
  std::vector<double> raw = v.Flatten();
  ASSERT_EQ(out.size(), raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    // 16-bit quantization over the observed range: tiny error.
    EXPECT_NEAR(out[i], raw[i], 1e-3) << i;
  }
  EXPECT_FALSE(store.Lookup("missing", &out));
  EXPECT_EQ(store.PayloadBytes(),
            2 * InterestingnessVector::Dim() * sizeof(uint16_t));
}

TEST(PackedRelevanceTest, ScoreMatchesUnpackedWithinQuantization) {
  GlobalTidTable tids;
  PackedRelevanceStore store(&tids);
  std::vector<RelevantTerm> terms = {
      {"alpha", 40.0}, {"beta", 25.0}, {"gamma", 10.0}, {"delta", 2.0}};
  store.Add("my concept", terms);
  store.Finalize();

  std::unordered_set<uint32_t> context = {tids.Lookup("alpha"),
                                          tids.Lookup("gamma")};
  double score = store.Score("my concept", context);
  EXPECT_NEAR(score, 50.0, 0.1);  // 10-bit quantization error bound.
  EXPECT_DOUBLE_EQ(store.Score("unknown", context), 0.0);
  EXPECT_DOUBLE_EQ(store.Score("my concept", {}), 0.0);
}

TEST(PackedRelevanceTest, KeepsAtMostHundredTerms) {
  GlobalTidTable tids;
  PackedRelevanceStore store(&tids);
  std::vector<RelevantTerm> terms;
  for (int i = 0; i < 150; ++i) {
    std::string term = "t";
    term += std::to_string(i);
    terms.push_back({std::move(term), 150.0 - i});
  }
  store.Add("big", terms);
  store.Finalize();
  // 100 pairs * 4 bytes.
  EXPECT_EQ(store.PayloadBytes(), 400u);
}

TEST(PackedRelevanceTest, GolombCompressionSavesSpace) {
  GlobalTidTable tids;
  PackedRelevanceStore store(&tids);
  for (int c = 0; c < 50; ++c) {
    std::vector<RelevantTerm> terms;
    for (int i = 0; i < 100; ++i) {
      // Heavy term sharing across concepts => dense TID space.
      terms.push_back({"shared" + std::to_string((c * 37 + i) % 600),
                       1.0 + i});
    }
    store.Add("concept " + std::to_string(c), terms);
  }
  store.Finalize();
  EXPECT_LT(store.GolombCompressedBytes(), store.PayloadBytes());
}

TEST(RuntimeStatsTest, ThroughputMath) {
  RuntimeStats stats;
  stats.bytes_processed = 10'000'000;
  stats.stemmer_seconds = 2.0;
  stats.ranker_seconds = 4.0;
  EXPECT_DOUBLE_EQ(stats.StemmerMBps(), 5.0);
  EXPECT_DOUBLE_EQ(stats.RankerMBps(), 2.5);
  RuntimeStats zero;
  EXPECT_DOUBLE_EQ(zero.StemmerMBps(), 0.0);
}

TEST(RuntimeStatsTest, ComponentThroughputIsDivideByZeroSafe) {
  RuntimeStats zero;
  EXPECT_DOUBLE_EQ(zero.RankerMBps(), 0.0);
  EXPECT_DOUBLE_EQ(zero.MatchMBps(), 0.0);
  EXPECT_DOUBLE_EQ(zero.ScoreMBps(), 0.0);
  EXPECT_DOUBLE_EQ(zero.DocsPerSec(), 0.0);

  RuntimeStats stats;
  stats.bytes_processed = 20'000'000;
  stats.match_seconds = 4.0;
  stats.score_seconds = 1.0;
  stats.ranker_seconds = stats.match_seconds + stats.score_seconds;
  stats.stemmer_seconds = 5.0;
  stats.documents = 100;
  EXPECT_DOUBLE_EQ(stats.MatchMBps(), 5.0);
  EXPECT_DOUBLE_EQ(stats.ScoreMBps(), 20.0);
  EXPECT_DOUBLE_EQ(stats.DocsPerSec(), 10.0);
}

TEST(RuntimeStatsTest, MergeAccumulatesEveryCounter) {
  RuntimeStats a;
  a.stemmer_seconds = 1.0;
  a.ranker_seconds = 2.0;
  a.match_seconds = 1.5;
  a.score_seconds = 0.5;
  a.bytes_processed = 100;
  a.documents = 3;
  a.detections = 7;
  RuntimeStats b;
  b.stemmer_seconds = 0.5;
  b.ranker_seconds = 1.0;
  b.match_seconds = 0.75;
  b.score_seconds = 0.25;
  b.bytes_processed = 50;
  b.documents = 2;
  b.detections = 4;
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.stemmer_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.ranker_seconds, 3.0);
  EXPECT_DOUBLE_EQ(a.match_seconds, 2.25);
  EXPECT_DOUBLE_EQ(a.score_seconds, 0.75);
  EXPECT_EQ(a.bytes_processed, 150u);
  EXPECT_EQ(a.documents, 5u);
  EXPECT_EQ(a.detections, 11u);
}

TEST(TidTableTest, OverflowReturnsSentinelWithoutMutatingState) {
  GlobalTidTable tids;
  tids.SetCapacityForTesting(2);
  uint32_t a = tids.Intern("alpha");
  uint32_t b = tids.Intern("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_FALSE(tids.overflowed());

  // The table is full: a new term must get the unknown sentinel and must
  // not change the table.
  EXPECT_EQ(tids.Intern("gamma"), GlobalTidTable::kMaxTid);
  EXPECT_TRUE(tids.overflowed());
  EXPECT_EQ(tids.size(), 2u);
  EXPECT_EQ(tids.Lookup("gamma"), GlobalTidTable::kMaxTid);

  // Lookups and re-interns of existing terms still resolve after overflow.
  EXPECT_EQ(tids.Lookup("alpha"), a);
  EXPECT_EQ(tids.Intern("alpha"), a);
  EXPECT_EQ(tids.Intern("beta"), b);
  EXPECT_EQ(tids.Intern("delta"), GlobalTidTable::kMaxTid);
  EXPECT_EQ(tids.size(), 2u);
}

TEST(QuantizedStoreTest, DenseIdsAreContiguousAndSorted) {
  QuantizedInterestingnessStore store;
  InterestingnessVector vec;
  store.Add("zebra", vec);
  store.Add("apple", vec);
  store.Add("mango", vec);
  store.Finalize();
  ASSERT_EQ(store.NumConcepts(), 3u);
  EXPECT_EQ(store.IdOf("apple"), 0u);
  EXPECT_EQ(store.IdOf("mango"), 1u);
  EXPECT_EQ(store.IdOf("zebra"), 2u);
  EXPECT_EQ(store.KeyOf(1), "mango");
  EXPECT_EQ(store.IdOf("unknown"), kInvalidConcept);
}

TEST(QuantizedStoreTest, SerializationRoundTripsDenseLayout) {
  QuantizedInterestingnessStore store;
  for (int c = 0; c < 5; ++c) {
    InterestingnessVector vec;
    vec.freq_exact = c * 10.0;
    vec.unit_score = 1.0 + c * 0.5;
    vec.number_of_chars = 7.0 + c;
    vec.high_level_type[c % kNumEntityTypes] = 1.0;
    store.Add("concept " + std::to_string(c), vec);
  }
  store.Finalize();

  BinaryWriter writer;
  store.SaveTo(&writer);
  BinaryReader reader(writer.buffer());
  auto loaded_or = QuantizedInterestingnessStore::LoadFrom(&reader);
  ASSERT_TRUE(loaded_or.ok());
  const QuantizedInterestingnessStore& loaded = *loaded_or;

  ASSERT_EQ(loaded.NumConcepts(), store.NumConcepts());
  std::vector<double> got, want;
  for (int c = 0; c < 5; ++c) {
    std::string key = "concept " + std::to_string(c);
    EXPECT_EQ(loaded.IdOf(key), store.IdOf(key));
    EXPECT_EQ(loaded.KeyOf(loaded.IdOf(key)), key);
    ASSERT_TRUE(store.Lookup(key, &want));
    ASSERT_TRUE(loaded.Lookup(key, &got));
    EXPECT_EQ(got, want);  // Bit-identical dequantization.
    ASSERT_TRUE(loaded.LookupById(loaded.IdOf(key), &got));
    EXPECT_EQ(got, want);
  }
  EXPECT_FALSE(loaded.Lookup("unknown", &got));
  EXPECT_FALSE(loaded.LookupById(kInvalidConcept, &got));
}

TEST(QuantizedStoreTest, EmptyStoreSerializationRoundTrip) {
  QuantizedInterestingnessStore store;
  store.Finalize();
  BinaryWriter writer;
  store.SaveTo(&writer);
  BinaryReader reader(writer.buffer());
  auto loaded_or = QuantizedInterestingnessStore::LoadFrom(&reader);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ(loaded_or->NumConcepts(), 0u);
  EXPECT_EQ(loaded_or->IdOf("anything"), kInvalidConcept);
  std::vector<double> out;
  EXPECT_FALSE(loaded_or->Lookup("anything", &out));
}

TEST(PackedRelevanceTest, SerializationRoundTripsDenseLayout) {
  GlobalTidTable tids;
  PackedRelevanceStore store(&tids);
  store.Add("windsurfing", {{"board", 40.0}, {"sail", 25.0}, {"wave", 5.0}});
  store.Add("alpha", {{"board", 12.0}, {"first", 30.0}});
  store.Finalize();

  BinaryWriter writer;
  store.SaveTo(&writer);
  BinaryReader reader(writer.buffer());
  auto loaded_or = PackedRelevanceStore::LoadFrom(&reader, &tids);
  ASSERT_TRUE(loaded_or.ok());
  const PackedRelevanceStore& loaded = *loaded_or;

  ASSERT_EQ(loaded.NumConcepts(), store.NumConcepts());
  EXPECT_EQ(loaded.IdOf("alpha"), store.IdOf("alpha"));
  EXPECT_EQ(loaded.IdOf("windsurfing"), store.IdOf("windsurfing"));
  EXPECT_EQ(loaded.IdOf("unknown"), kInvalidConcept);

  std::unordered_set<uint32_t> context = {tids.Lookup("board"),
                                          tids.Lookup("wave")};
  EXPECT_DOUBLE_EQ(loaded.Score("windsurfing", context),
                   store.Score("windsurfing", context));
  EXPECT_DOUBLE_EQ(loaded.Score("alpha", context),
                   store.Score("alpha", context));
  EXPECT_GT(loaded.Score("windsurfing", context), 0.0);

  // The id-indexed hot path must agree with the string-keyed lookup.
  EpochSet eset;
  eset.Reset(tids.size());
  for (uint32_t tid : context) eset.Insert(tid);
  EXPECT_DOUBLE_EQ(loaded.ScoreById(loaded.IdOf("windsurfing"), eset),
                   store.Score("windsurfing", context));
  EXPECT_DOUBLE_EQ(loaded.ScoreById(kInvalidConcept, eset), 0.0);
}

TEST(PackedRelevanceTest, EmptyStoreSerializationRoundTrip) {
  GlobalTidTable tids;
  PackedRelevanceStore store(&tids);
  store.Finalize();
  BinaryWriter writer;
  store.SaveTo(&writer);
  BinaryReader reader(writer.buffer());
  auto loaded_or = PackedRelevanceStore::LoadFrom(&reader, &tids);
  ASSERT_TRUE(loaded_or.ok());
  EXPECT_EQ(loaded_or->NumConcepts(), 0u);
  EXPECT_DOUBLE_EQ(loaded_or->Score("anything", {}), 0.0);
}

// ---------- The runtime's per-scratch token memo ----------

const char* const kMemoWords[] = {
    "market", "river",  "stock",   "bank",    "energy",   "oil",
    "price",  "court",  "judge",   "vote",    "election", "storm",
    "coast",  "music",  "band",    "tour",    "running",  "games",
    "player", "league", "station", "network", "policy",   "council"};
constexpr size_t kNumMemoWords = std::size(kMemoWords);

// A hand-built runtime over kMemoWords. The dictionary phrases, their
// feature vectors and their relevant stems are drawn from `seed`, so two
// worlds number the same tokens and stems differently: a token memo
// carried from one world's ranker into the other's changes its output.
// Not movable: the relevance store points at the TID table.
struct MemoWorld {
  explicit MemoWorld(uint64_t seed) : relevance(&tids) {
    Rng rng(seed);
    std::vector<EntityDetector::DictionaryEntry> dict;
    for (int i = 0; i < 20; ++i) {
      std::string key = kMemoWords[rng.NextBounded(kNumMemoWords)];
      const uint64_t extra = 1 + rng.NextBounded(2);
      for (uint64_t w = 0; w < extra; ++w) {
        key += ' ';
        key += kMemoWords[rng.NextBounded(kNumMemoWords)];
      }
      dict.push_back({key, static_cast<EntityType>(rng.NextBounded(7)), 0});
      phrases.push_back(key);
    }
    detector = std::make_unique<EntityDetector>(dict, nullptr);
    for (const EntityDetector::DictionaryEntry& d : dict) {
      InterestingnessVector v;
      v.freq_exact = rng.NextDouble();
      v.unit_score = rng.NextDouble();
      v.concept_size = static_cast<double>(rng.NextBounded(4));
      interest.Add(d.key, v);
      std::vector<RelevantTerm> terms;
      for (int t = 0; t < 8; ++t) {
        RelevantTerm term;
        term.term = PorterStem(kMemoWords[rng.NextBounded(kNumMemoWords)]);
        term.score = rng.NextDouble();
        terms.push_back(term);
      }
      relevance.Add(d.key, terms);
    }
    interest.Finalize();
    relevance.Finalize();
    // Labels follow the relevance feature, so the context TIDs move the
    // scores.
    std::vector<RankingInstance> data;
    for (uint32_t g = 0; g < 12; ++g) {
      for (int i = 0; i < 5; ++i) {
        RankingInstance inst;
        for (size_t f = 0; f <= InterestingnessVector::Dim(); ++f) {
          inst.features.push_back(rng.NextDouble());
        }
        inst.label = inst.features.back() + 0.1 * inst.features[0];
        inst.group = g;
        data.push_back(std::move(inst));
      }
    }
    auto trained = RankSvmTrainer().Train(data);
    CKR_CHECK(trained.ok());
    model = std::move(*trained);
  }
  MemoWorld(const MemoWorld&) = delete;
  MemoWorld& operator=(const MemoWorld&) = delete;

  RuntimeRanker MakeRanker() const {
    return RuntimeRanker(*detector, interest, relevance, tids, model);
  }

  std::vector<std::string> phrases;  ///< The dictionary keys.
  std::unique_ptr<EntityDetector> detector;
  QuantizedInterestingnessStore interest;
  GlobalTidTable tids;
  PackedRelevanceStore relevance;
  RankSvmModel model;
};

// Text over kMemoWords in surface variants (case, plural, possessive,
// punctuation) with stop words, some of `phrases` and `fillers` distinct
// filler tokens.
std::string MemoDoc(uint64_t seed, size_t words,
                    const std::vector<std::string>& phrases,
                    size_t fillers = 0) {
  Rng rng(seed);
  const char* const stop[] = {"the", "of", "and", "to", "in", "a"};
  std::string text;
  size_t filler = 0;
  for (size_t i = 0; i < words; ++i) {
    std::string w = kMemoWords[rng.NextBounded(kNumMemoWords)];
    switch (rng.NextBounded(8)) {
      case 7: w = phrases[rng.NextBounded(phrases.size())]; break;
      case 0: w[0] = static_cast<char>(w[0] - 'a' + 'A'); break;
      case 1: w += 's'; break;
      case 2: w += "'s"; break;
      case 3: w += ','; break;
      case 4: w = stop[rng.NextBounded(std::size(stop))]; break;
      default: break;
    }
    text += w;
    text += ' ';
    if (i % 16 != 15) continue;
    // Filler runs every 16 words leave room for phrases between them.
    for (size_t f = 0; f < fillers / (words / 16) + 1 && filler < fillers;
         ++f) {
      text += 'f';
      text += std::to_string(filler++);
      text += ' ';
    }
  }
  return text;
}

void ExpectSameRanking(const std::vector<RankedAnnotation>& got,
                       const std::vector<RankedAnnotation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "at " << i;
    EXPECT_EQ(got[i].begin, want[i].begin) << "at " << i;
    EXPECT_EQ(got[i].end, want[i].end) << "at " << i;
    EXPECT_EQ(got[i].type, want[i].type) << "at " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "at " << i;  // Bit-exact.
  }
}

std::vector<RankedAnnotation> FreshRank(const RuntimeRanker& ranker,
                                        std::string_view text) {
  RankerScratch fresh;
  return ranker.ProcessDocument(text, &fresh, nullptr);
}

bool SameRanking(const std::vector<RankedAnnotation>& a,
                 const std::vector<RankedAnnotation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].begin != b[i].begin ||
        a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

TEST(RuntimeTokenMemoTest, ScratchAlternatingBetweenRankersMatchesFresh) {
  MemoWorld world_a(1);
  MemoWorld world_b(2);
  std::vector<std::string> phrases = world_a.phrases;
  phrases.insert(phrases.end(), world_b.phrases.begin(),
                 world_b.phrases.end());
  const RuntimeRanker a = world_a.MakeRanker();
  const RuntimeRanker b = world_b.MakeRanker();
  RankerScratch shared;
  size_t differing = 0;
  size_t ranked = 0;
  for (uint64_t d = 0; d < 12; ++d) {
    const std::string text = MemoDoc(100 + d, 120, phrases);
    auto out_a = a.ProcessDocument(text, &shared, nullptr);
    auto out_b = b.ProcessDocument(text, &shared, nullptr);
    ExpectSameRanking(out_a, FreshRank(a, text));
    ExpectSameRanking(out_a, a.ProcessDocumentLegacy(text));
    ExpectSameRanking(out_b, FreshRank(b, text));
    ExpectSameRanking(out_b, b.ProcessDocumentLegacy(text));
    if (!SameRanking(out_a, out_b)) ++differing;
    ranked += out_a.size() + out_b.size();
  }
  // The two worlds must disagree, or a stale memo could not show.
  EXPECT_GT(ranked, 0u);
  EXPECT_GT(differing, 0u);
}

TEST(RuntimeTokenMemoTest, NewRankerAtFreedAddressDoesNotInheritMemo) {
  MemoWorld world_a(3);
  MemoWorld world_b(4);
  std::vector<std::string> phrases = world_a.phrases;
  phrases.insert(phrases.end(), world_b.phrases.begin(),
                 world_b.phrases.end());
  const std::string text = MemoDoc(200, 150, phrases);
  const auto want_b = FreshRank(world_b.MakeRanker(), text);
  ASSERT_FALSE(SameRanking(FreshRank(world_a.MakeRanker(), text), want_b));

  RankerScratch scratch;
  std::optional<RuntimeRanker> slot;
  slot.emplace(world_a.MakeRanker());
  const RuntimeRanker* first = &*slot;
  (void)slot->ProcessDocument(text, &scratch, nullptr);
  (void)slot->ProcessDocument(text);  // Fills the thread-local scratch.
  slot.reset();
  slot.emplace(world_b.MakeRanker());
  ASSERT_EQ(&*slot, first);  // Same address, different tables.
  ExpectSameRanking(slot->ProcessDocument(text, &scratch, nullptr), want_b);
  ExpectSameRanking(slot->ProcessDocument(text), want_b);
}

TEST(RuntimeTokenMemoTest, OverflowClearsMidDocumentWithoutChangingOutput) {
  MemoWorld world(5);
  const RuntimeRanker ranker = world.MakeRanker();
  RankerScratch scratch;
  for (uint64_t d = 0; d < 3; ++d) {  // Warm the memo first.
    (void)ranker.ProcessDocument(MemoDoc(300 + d, 100, world.phrases),
                                 &scratch, nullptr);
  }
  // More distinct filler tokens than the memo holds, interleaved with
  // vocabulary words before and after the point where it is cleared.
  const size_t fillers = RankerScratch::kTokenMemoCapacity + 4000;
  const std::string text = MemoDoc(400, 2000, world.phrases, fillers);
  auto out = ranker.ProcessDocument(text, &scratch, nullptr);
  EXPECT_LE(scratch.token_memo.size(), RankerScratch::kTokenMemoCapacity);
  EXPECT_FALSE(out.empty());
  ExpectSameRanking(out, FreshRank(ranker, text));
  ExpectSameRanking(out, ranker.ProcessDocumentLegacy(text));
  // The refilled memo still answers exactly.
  const std::string after = MemoDoc(401, 100, world.phrases);
  ExpectSameRanking(ranker.ProcessDocument(after, &scratch, nullptr),
                    ranker.ProcessDocumentLegacy(after));
}

TEST(RuntimeTokenMemoTest, ThreadsWithOwnScratchShareOneRanker) {
  MemoWorld world(6);
  const RuntimeRanker ranker = world.MakeRanker();
  std::vector<std::string> docs;
  std::vector<std::vector<RankedAnnotation>> want;
  for (uint64_t d = 0; d < 16; ++d) {
    docs.push_back(MemoDoc(500 + d, 120, world.phrases));
    want.push_back(ranker.ProcessDocumentLegacy(docs.back()));
  }
  constexpr int kThreads = 2;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::vector<RankedAnnotation>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RankerScratch scratch;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < docs.size(); ++i) {
          // Thread 1 walks the documents backwards.
          const size_t d = t == 0 ? i : docs.size() - 1 - i;
          got[t].push_back(ranker.ProcessDocument(docs[d], &scratch, nullptr));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * docs.size());
    for (size_t k = 0; k < got[t].size(); ++k) {
      const size_t i = k % docs.size();
      const size_t d = t == 0 ? i : docs.size() - 1 - i;
      ExpectSameRanking(got[t][k], want[d]);
    }
  }
}

TEST(RuntimeTokenMemoTest, MissesCountEachDistinctTokenOnce) {
#if CKR_OBS_ENABLED
  MemoWorld world(7);
  const RuntimeRanker ranker = world.MakeRanker();
  const std::string text = MemoDoc(600, 200, world.phrases);
  std::set<std::string> distinct;
  for (const Token& tok : Tokenize(text)) distinct.insert(tok.text);
  obs::Counter* misses =
      obs::MetricRegistry::Global().GetCounter("ckr.runtime.token_memo_misses");
  RankerScratch scratch;
  const uint64_t before = misses->Value();
  (void)ranker.ProcessDocument(text, &scratch, nullptr);
  EXPECT_EQ(misses->Value() - before, distinct.size());
  EXPECT_EQ(scratch.token_memo.size(), distinct.size());
  const uint64_t warm = misses->Value();
  (void)ranker.ProcessDocument(text, &scratch, nullptr);
  EXPECT_EQ(misses->Value(), warm);
#else
  GTEST_SKIP() << "observability hooks compiled out";
#endif
}

TEST(RuntimeTokenMemoTest, RepeatedSingleThreadBatchHitsTheWarmMemo) {
  MemoWorld world(9);
  const RuntimeRanker ranker = world.MakeRanker();
  std::vector<std::string> texts;
  for (uint64_t d = 0; d < 8; ++d) {
    texts.push_back(MemoDoc(800 + d, 120, world.phrases));
  }
  const std::vector<std::string_view> docs(texts.begin(), texts.end());
  const auto first = ranker.ProcessBatch(docs, 1);
#if CKR_OBS_ENABLED
  obs::Counter* misses =
      obs::MetricRegistry::Global().GetCounter("ckr.runtime.token_memo_misses");
  const uint64_t before = misses->Value();
#endif
  const auto second = ranker.ProcessBatch(docs, 1);
#if CKR_OBS_ENABLED
  // Worker 0 is the calling thread and keeps its scratch between batches.
  EXPECT_EQ(misses->Value(), before);
#endif
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectSameRanking(second[i], first[i]);
    ExpectSameRanking(first[i], ranker.ProcessDocumentLegacy(texts[i]));
  }
}

TEST(RuntimeTokenMemoTest, LongTokensStayOutOfTheMemo) {
  MemoWorld world(8);
  const RuntimeRanker ranker = world.MakeRanker();
  const std::string longest(RankerScratch::kTokenMemoMaxKeyBytes, 'y');
  const std::string too_long(RankerScratch::kTokenMemoMaxKeyBytes + 1, 'x');
  std::string text = MemoDoc(700, 200, world.phrases);
  text += too_long + " http://example.com/a/b " + longest + ' ' + too_long;
  text += ' ' + MemoDoc(701, 60, world.phrases);
  size_t long_occurrences = 0;
  std::set<std::string> short_distinct;
  for (const Token& tok : Tokenize(text)) {
    if (tok.text.size() > RankerScratch::kTokenMemoMaxKeyBytes) {
      ++long_occurrences;
    } else {
      short_distinct.insert(tok.text);
    }
  }
  ASSERT_EQ(long_occurrences, 3u);
  RankerScratch scratch;
  auto out = ranker.ProcessDocument(text, &scratch, nullptr);
  EXPECT_FALSE(out.empty());
  ExpectSameRanking(out, ranker.ProcessDocumentLegacy(text));
  EXPECT_EQ(scratch.token_memo.size(), short_distinct.size());
  EXPECT_TRUE(scratch.token_memo.contains(longest));
#if CKR_OBS_ENABLED
  // Warm, only the long tokens miss, once per occurrence.
  obs::Counter* misses =
      obs::MetricRegistry::Global().GetCounter("ckr.runtime.token_memo_misses");
  const uint64_t before = misses->Value();
  ExpectSameRanking(ranker.ProcessDocument(text, &scratch, nullptr), out);
  EXPECT_EQ(misses->Value() - before, long_occurrences);
#endif
}

}  // namespace
}  // namespace ckr
