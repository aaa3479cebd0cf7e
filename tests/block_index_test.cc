// Tests for the block-compressed postings layer: integer codec round-trip
// fuzzing (including block-boundary and single-element edge cases and
// truncated-blob rejection), skip-cursor traversal, block-max index
// evaluator equivalence, and the serialization format (including every
// single-byte corruption of a blob).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "corpus/document.h"
#include "index/block_codecs.h"
#include "index/block_max_index.h"
#include "index/block_postings.h"
#include "index/inverted_index.h"

namespace ckr {
namespace {

Document MakeDoc(DocId id, std::string text) {
  Document d;
  d.id = id;
  d.text = std::move(text);
  return d;
}

// ---------- Codec round-trip fuzzing ----------

class CodecTest : public ::testing::TestWithParam<BlockCodec> {};

std::vector<uint32_t> DecodeOrDie(BlockCodec codec,
                                  const std::vector<uint8_t>& blob,
                                  size_t count) {
  std::vector<uint32_t> out(count);
  Status s = DecodeBlock(codec, blob.data(), blob.size(), count, out.data());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST_P(CodecTest, RoundTripEdgeCounts) {
  const BlockCodec codec = GetParam();
  // Counts around group (4), word (up to 240) and block (128) boundaries.
  const size_t counts[] = {1, 2, 3, 4, 5, 7, 8, 59, 60, 61, 63, 64, 127, 128};
  Rng rng(42);
  for (size_t count : counts) {
    for (int style = 0; style < 4; ++style) {
      std::vector<uint32_t> values(count);
      for (uint32_t& v : values) {
        switch (style) {
          case 0: v = 0; break;                                     // zeros
          case 1: v = static_cast<uint32_t>(rng.NextBounded(4)); break;
          case 2: v = static_cast<uint32_t>(rng.NextBounded(1 << 20)); break;
          default: v = static_cast<uint32_t>(rng.Next()); break;    // full
        }
      }
      std::vector<uint8_t> blob;
      EncodeBlock(codec, values.data(), count, &blob);
      EXPECT_EQ(DecodeOrDie(codec, blob, count), values)
          << BlockCodecName(codec) << " count=" << count
          << " style=" << style;
    }
  }
}

TEST_P(CodecTest, RoundTripRandomFuzz) {
  const BlockCodec codec = GetParam();
  Rng rng(7);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t count = 1 + rng.NextBounded(kPostingBlockSize);
    // Mix magnitudes within one block: shift by a random bit width.
    std::vector<uint32_t> values(count);
    for (uint32_t& v : values) {
      const uint32_t width = static_cast<uint32_t>(rng.NextBounded(33));
      v = width == 0 ? 0
                     : static_cast<uint32_t>(rng.Next() >>
                                             (32 + (32 - width)));
    }
    std::vector<uint8_t> blob;
    EncodeBlock(codec, values.data(), count, &blob);
    ASSERT_EQ(DecodeOrDie(codec, blob, count), values) << "iter=" << iter;
  }
}

TEST_P(CodecTest, EveryTruncationRejected) {
  const BlockCodec codec = GetParam();
  Rng rng(11);
  std::vector<uint32_t> values(100);
  for (uint32_t& v : values) {
    v = static_cast<uint32_t>(rng.NextBounded(1u << 17));
  }
  std::vector<uint8_t> blob;
  EncodeBlock(codec, values.data(), values.size(), &blob);
  std::vector<uint32_t> out(values.size());
  // Every strict prefix must fail: the decoder demands exactly `count`
  // values from exactly the blob's bytes.
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    Status s = DecodeBlock(codec, blob.data(), cut, values.size(), out.data());
    EXPECT_FALSE(s.ok()) << "prefix " << cut << " accepted";
  }
  // Trailing bytes beyond the encoding must fail too.
  std::vector<uint8_t> padded = blob;
  padded.resize(blob.size() + 8, 0);
  Status s =
      DecodeBlock(codec, padded.data(), padded.size(), values.size(),
                  out.data());
  EXPECT_FALSE(s.ok());
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecTest,
                         ::testing::Values(BlockCodec::kVarintGB,
                                           BlockCodec::kSimple8b),
                         [](const auto& pinfo) {
                           return pinfo.param == BlockCodec::kVarintGB
                                      ? "VarintGB"
                                      : "Simple8b";
                         });

TEST(CodecEdge, EmptyBlock) {
  std::vector<uint8_t> blob;
  EncodeBlock(BlockCodec::kVarintGB, nullptr, 0, &blob);
  EXPECT_TRUE(blob.empty());
  EXPECT_TRUE(DecodeBlock(BlockCodec::kVarintGB, nullptr, 0, 0, nullptr).ok());
  uint8_t junk = 0;
  EXPECT_FALSE(DecodeBlock(BlockCodec::kVarintGB, &junk, 1, 0, nullptr).ok());
}

TEST(CodecEdge, VarintGbTailControlBitsChecked) {
  // Two values leave the upper four control bits unused; the encoder
  // zeroes them, so a nonzero tail is corruption.
  const uint32_t values[] = {5, 9};
  std::vector<uint8_t> blob;
  EncodeBlock(BlockCodec::kVarintGB, values, 2, &blob);
  blob[0] |= 0x10;  // Set a tail control bit.
  uint32_t out[2];
  EXPECT_FALSE(
      DecodeBlock(BlockCodec::kVarintGB, blob.data(), blob.size(), 2, out)
          .ok());
}

TEST(CodecEdge, Simple8bZeroRunPayloadChecked) {
  // 240 zeros pack into a single selector-0 word with an all-zero payload.
  std::vector<uint32_t> zeros(128, 0);
  std::vector<uint8_t> blob;
  EncodeBlock(BlockCodec::kSimple8b, zeros.data(), zeros.size(), &blob);
  ASSERT_EQ(blob.size(), 8u);
  blob[2] = 0xff;  // Corrupt the (must-be-zero) payload.
  std::vector<uint32_t> out(zeros.size());
  EXPECT_FALSE(DecodeBlock(BlockCodec::kSimple8b, blob.data(), blob.size(),
                           zeros.size(), out.data())
                   .ok());
}

TEST(CodecEdge, Simple8bTailPaddingChecked) {
  // One 1-bit value uses selector 2 (60 x 1 bit); tail slots must be zero.
  const uint32_t values[] = {1, 1, 1};
  std::vector<uint8_t> blob;
  EncodeBlock(BlockCodec::kSimple8b, values, 3, &blob);
  ASSERT_EQ(blob.size(), 8u);
  blob[4] = 0x01;  // A bit beyond the three used slots.
  uint32_t out[3];
  EXPECT_FALSE(
      DecodeBlock(BlockCodec::kSimple8b, blob.data(), blob.size(), 3, out)
          .ok());
}

// ---------- Posting store + cursor ----------

struct TermList {
  std::vector<uint32_t> docs;
  std::vector<uint32_t> tfs;
};

TermList RandomTermList(Rng* rng, uint32_t num_docs, size_t target_size) {
  TermList list;
  uint32_t doc = static_cast<uint32_t>(rng->NextBounded(3));
  while (list.docs.size() < target_size && doc < num_docs) {
    list.docs.push_back(doc);
    list.tfs.push_back(1 + static_cast<uint32_t>(rng->NextBounded(5)));
    doc += 1 + static_cast<uint32_t>(rng->NextBounded(7));
  }
  return list;
}

BlockPostingsStore MakeStore(BlockCodec codec,
                             const std::vector<TermList>& terms) {
  BlockPostingsStore::Builder builder(codec);
  for (const TermList& t : terms) {
    builder.AddTerm(MakeSpan(t.docs), MakeSpan(t.tfs));
  }
  return builder.Finish();
}

class StoreTest : public ::testing::TestWithParam<BlockCodec> {};

TEST_P(StoreTest, BlockGeometry) {
  // 129 postings: one full 128-doc block plus a 1-doc tail block.
  TermList t;
  for (uint32_t d = 0; d < 129; ++d) {
    t.docs.push_back(d * 2);
    t.tfs.push_back(1 + d % 3);
  }
  BlockPostingsStore store = MakeStore(GetParam(), {t});
  EXPECT_EQ(store.NumTerms(), 1u);
  EXPECT_EQ(store.NumBlocks(), 2u);
  EXPECT_EQ(store.TermBlocks(0), 2u);
  EXPECT_EQ(store.TermPostings(0), 129u);
  EXPECT_EQ(store.BlockDocCount(0, 0), 128u);
  EXPECT_EQ(store.BlockDocCount(0, 1), 1u);
  EXPECT_EQ(store.BlockLastDoc(0), 127u * 2);
  EXPECT_EQ(store.BlockLastDoc(1), 128u * 2);
}

TEST_P(StoreTest, CursorWalksExactPostings) {
  Rng rng(3);
  std::vector<TermList> terms;
  for (size_t size : {1u, 2u, 127u, 128u, 129u, 300u, 1000u}) {
    terms.push_back(RandomTermList(&rng, 1u << 20, size));
  }
  BlockPostingsStore store = MakeStore(GetParam(), terms);
  for (uint32_t tid = 0; tid < terms.size(); ++tid) {
    PostingCursor cur(&store, tid);
    for (size_t i = 0; i < terms[tid].docs.size(); ++i) {
      ASSERT_FALSE(cur.AtEnd()) << "tid=" << tid << " i=" << i;
      ASSERT_EQ(cur.doc(), terms[tid].docs[i]);
      ASSERT_EQ(cur.tf(), terms[tid].tfs[i]);
      cur.Next();
    }
    EXPECT_TRUE(cur.AtEnd());
  }
}

TEST_P(StoreTest, NextGeqMatchesLowerBound) {
  Rng rng(5);
  TermList t = RandomTermList(&rng, 1u << 18, 700);
  BlockPostingsStore store = MakeStore(GetParam(), {t});
  for (int iter = 0; iter < 500; ++iter) {
    PostingCursor cur(&store, 0);
    uint32_t target = 0;
    // A few monotone jumps per cursor, mirroring evaluator use.
    for (int hop = 0; hop < 4; ++hop) {
      target += static_cast<uint32_t>(rng.NextBounded(1u << 16));
      cur.NextGEQ(target);
      auto it = std::lower_bound(t.docs.begin(), t.docs.end(), target);
      if (it == t.docs.end()) {
        EXPECT_TRUE(cur.AtEnd());
        break;
      }
      ASSERT_EQ(cur.doc(), *it) << "target=" << target;
      const size_t idx = static_cast<size_t>(it - t.docs.begin());
      ASSERT_EQ(cur.tf(), t.tfs[idx]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, StoreTest,
                         ::testing::Values(BlockCodec::kVarintGB,
                                           BlockCodec::kSimple8b),
                         [](const auto& pinfo) {
                           return pinfo.param == BlockCodec::kVarintGB
                                      ? "VarintGB"
                                      : "Simple8b";
                         });

// ---------- Block-max index: evaluators + serialization ----------

InvertedIndex BuildSyntheticIndex(uint64_t seed, size_t num_docs) {
  // Zipf-ish vocabulary so posting lists have very uneven lengths (the
  // regime pruning thrives in) and scores collide often (tie coverage).
  Rng rng(seed);
  InvertedIndex index;
  for (size_t d = 0; d < num_docs; ++d) {
    std::string text;
    const size_t len = 5 + rng.NextBounded(60);
    for (size_t i = 0; i < len; ++i) {
      const uint64_t u = rng.NextBounded(1000);
      uint64_t term;
      if (u < 500) {
        term = rng.NextBounded(8);  // Frequent head terms.
      } else if (u < 850) {
        term = 8 + rng.NextBounded(40);
      } else {
        term = 48 + rng.NextBounded(400);  // Rare tail.
      }
      text += 'w';
      text += std::to_string(term);
      text += ' ';
    }
    index.Add(MakeDoc(static_cast<DocId>(d * 7 + 3), std::move(text)));
  }
  index.Finalize();
  return index;
}

void ExpectIdenticalResults(const std::vector<SearchResult>& expected,
                            const std::vector<SearchResult>& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].doc, actual[i].doc) << label << " rank " << i;
    // Bit-identical scores, not approximately equal.
    EXPECT_EQ(expected[i].score, actual[i].score) << label << " rank " << i;
  }
}

/// Bit-identical result lists, without a failure message per rank (for
/// sweeps that count divergent cases instead).
bool SameResults(const std::vector<SearchResult>& a,
                 const std::vector<SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc || a[i].score != b[i].score) return false;
  }
  return true;
}

TEST(BlockMaxIndexTest, EvaluatorsMatchExhaustive) {
  InvertedIndex index = BuildSyntheticIndex(123, 400);
  const char* queries[] = {"w0",
                           "w0 w1",
                           "w3 w17 w99",
                           "w1 w2 w3 w4 w5",
                           "w7 w300 w301",
                           "w0 w0 w0",
                           "absentterm",
                           "w5 absentterm w12"};
  for (const char* q : queries) {
    for (size_t k : {1u, 3u, 10u, 50u, 1000u}) {
      auto oracle = index.Search(q, k);
      auto ms = index.Search(q, k, Bm25Params{}, QueryEvaluator::kMaxScore);
      ExpectIdenticalResults(oracle, ms,
                             std::string("maxscore q=") + q + " k=" +
                                 std::to_string(k));
    }
  }
}

TEST(BlockMaxIndexTest, DeferredBuildMatchesEagerExactly) {
  // build_block_index=false defers the eager Finalize() build (the
  // out-of-core path): pruned evaluators must fall back to the exhaustive
  // scorer until RebuildBlockIndex(), after which the block index must be
  // byte-for-byte the one the eager path would have built.
  Rng rng(99);
  std::vector<Document> docs;
  for (size_t d = 0; d < 300; ++d) {
    std::string text;
    const size_t len = 5 + rng.NextBounded(60);
    for (size_t i = 0; i < len; ++i) {
      text += 'w';
      text += std::to_string(rng.NextBounded(120));
      text += ' ';
    }
    docs.push_back(MakeDoc(static_cast<DocId>(d * 7 + 3), std::move(text)));
  }
  InvertedIndex eager;
  IndexBuildOptions deferred_opts;
  deferred_opts.build_block_index = false;
  InvertedIndex deferred(deferred_opts);
  for (const Document& d : docs) {
    eager.Add(d);
    deferred.Add(d);
  }
  eager.Finalize();
  deferred.Finalize();
  EXPECT_TRUE(eager.has_block_index());
  EXPECT_FALSE(deferred.has_block_index());

  const char* queries[] = {"w0 w1", "w3 w17 w99", "w1 w2 w3 w4 w5",
                           "absentterm"};
  for (const char* q : queries) {
    auto oracle = eager.Search(q, 10);
    for (QueryEvaluator evaluator :
         {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore}) {
      ExpectIdenticalResults(
          oracle, deferred.Search(q, 10, Bm25Params{}, evaluator),
          std::string("deferred q=") + q);
    }
  }
  deferred.RebuildBlockIndex(BlockCodec::kVarintGB);
  EXPECT_TRUE(deferred.has_block_index());
  EXPECT_EQ(eager.SerializeBlockIndex(), deferred.SerializeBlockIndex());
  for (const char* q : queries) {
    ExpectIdenticalResults(
        eager.Search(q, 10, Bm25Params{}, QueryEvaluator::kMaxScore),
        deferred.Search(q, 10, Bm25Params{}, QueryEvaluator::kMaxScore),
        std::string("rebuilt q=") + q);
  }
}

TEST(BlockMaxIndexTest, DirectBuilderArbitraryQueryOrder) {
  // Drive BlockMaxIndex without an InvertedIndex: queries pass term ids in
  // arbitrary (not sorted) order, and all evaluators must agree anyway —
  // every sum replays the *query* order, whatever it is.
  Rng rng(55);
  const uint32_t num_docs = 600;
  std::vector<DocId> ext(num_docs);
  std::vector<double> norms(num_docs);
  for (uint32_t d = 0; d < num_docs; ++d) {
    ext[d] = d * 3 + 1;
    norms[d] = 0.5 + rng.NextDouble() * 2.0;
  }
  std::vector<TermList> terms;
  for (size_t size : {400u, 350u, 120u, 40u, 7u, 1u}) {
    terms.push_back(RandomTermList(&rng, num_docs, size));
  }
  for (BlockCodec codec : {BlockCodec::kVarintGB, BlockCodec::kSimple8b}) {
    BlockMaxIndex::Builder builder(codec, ext, norms);
    for (const TermList& t : terms) {
      builder.AddTerm(MakeSpan(t.docs), MakeSpan(t.tfs));
    }
    BlockMaxIndex idx = builder.Finish();
    const std::vector<std::vector<uint32_t>> queries = {
        {0}, {5, 0, 2}, {3, 1}, {5, 4, 3, 2, 1, 0}, {2, 5}};
    for (const auto& tids : queries) {
      for (size_t k : {1u, 10u, 50u}) {
        auto oracle =
            idx.TopK(MakeSpan(tids), k, QueryEvaluator::kExhaustive);
        auto ms = idx.TopK(MakeSpan(tids), k, QueryEvaluator::kMaxScore);
        ExpectIdenticalResults(oracle, ms, "direct maxscore");
      }
    }
  }
}

TEST(BlockMaxIndexTest, NonDefaultParamsFallBackToExhaustive) {
  InvertedIndex index = BuildSyntheticIndex(5, 120);
  Bm25Params params;
  params.k1 = 1.6;
  auto a = index.Search("w0 w3", 10, params);
  auto b = index.Search("w0 w3", 10, params, QueryEvaluator::kMaxScore);
  ExpectIdenticalResults(a, b, "non-default fallback");
}

TEST(BlockMaxIndexTest, RebuildWithSimple8bIsEquivalent) {
  InvertedIndex index = BuildSyntheticIndex(321, 350);
  auto oracle = index.Search("w0 w2 w40", 20);
  index.RebuildBlockIndex(BlockCodec::kSimple8b);
  EXPECT_EQ(index.block_index().codec(), BlockCodec::kSimple8b);
  auto got =
      index.Search("w0 w2 w40", 20, Bm25Params{}, QueryEvaluator::kMaxScore);
  ExpectIdenticalResults(oracle, got, "simple8b");
}

TEST(BlockMaxIndexTest, CompressionBeatsCsrColumns) {
  InvertedIndex index = BuildSyntheticIndex(999, 800);
  const size_t postings = index.block_index().store().NumPostings();
  ASSERT_GT(postings, 0u);
  // CSR stores 8 bytes per posting (u32 doc + u32 tf).
  const size_t csr_bytes = postings * 8;
  EXPECT_LE(index.block_index().CompressedPostingBytes() * 2, csr_bytes)
      << "block compression below the 2x acceptance floor";
}

class BlockIndexSerdeTest : public ::testing::TestWithParam<BlockCodec> {};

TEST_P(BlockIndexSerdeTest, RoundTripCurrentVersion) {
  InvertedIndex index = BuildSyntheticIndex(17, 250);
  index.RebuildBlockIndex(GetParam());
  auto before =
      index.Search("w0 w5 w33", 15, Bm25Params{}, QueryEvaluator::kMaxScore);
  const std::string blob = index.SerializeBlockIndex();
  Status s = index.LoadBlockIndex(blob);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(index.block_index().codec(), GetParam());
  auto after =
      index.Search("w0 w5 w33", 15, Bm25Params{}, QueryEvaluator::kMaxScore);
  ExpectIdenticalResults(before, after, "serde round trip");
}

TEST_P(BlockIndexSerdeTest, V1BlobLoadsAndRebuildsMaxima) {
  InvertedIndex index = BuildSyntheticIndex(29, 250);
  index.RebuildBlockIndex(GetParam());
  auto before =
      index.Search("w1 w8 w50", 15, Bm25Params{}, QueryEvaluator::kMaxScore);
  // A v1 blob predates the max-score columns and has the current layout
  // byte for byte, version field aside; the loader derives the maxima from
  // the postings and re-serializes at the current version.
  const std::string blob = index.SerializeBlockIndex();
  std::string v1 = blob;
  v1[4] = '\1';  // u16 version little-endian low byte.
  v1[5] = '\0';
  Status s = index.LoadBlockIndex(v1);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(index.SerializeBlockIndex(), blob);
  auto after =
      index.Search("w1 w8 w50", 15, Bm25Params{}, QueryEvaluator::kMaxScore);
  ExpectIdenticalResults(before, after, "v1 upgrade");
}

TEST_P(BlockIndexSerdeTest, ByteMutantsRejectedOrMaxScoreExact) {
  // Every single-byte corruption of a blob (each position xor 0xff, and
  // each position set to zero) either fails to load or loads an index on
  // which MaxScore still returns the exhaustive scan's result bit for
  // bit: the loader derives the pruning bounds from the postings and
  // norms it accepted, so no blob can carry a bound that disagrees with
  // them.
  Rng rng(61);
  const uint32_t num_docs = 300;
  std::vector<DocId> ext(num_docs);
  std::vector<double> norms(num_docs);
  for (uint32_t d = 0; d < num_docs; ++d) {
    ext[d] = d * 5 + 2;
    norms[d] = 0.5 + rng.NextDouble() * 2.0;
  }
  // Two multi-block head lists (every doc, every other doc), then a mid
  // list and a rare tail.
  std::vector<TermList> terms(2);
  for (uint32_t d = 0; d < num_docs; ++d) {
    terms[0].docs.push_back(d);
    terms[0].tfs.push_back(1 + d % 4);
    if (d % 2 == 0) {
      terms[1].docs.push_back(d);
      terms[1].tfs.push_back(1 + d % 3);
    }
  }
  for (size_t size : {40u, 12u, 3u, 1u}) {
    terms.push_back(RandomTermList(&rng, num_docs, size));
  }
  BlockMaxIndex::Builder builder(GetParam(), ext, norms);
  for (const TermList& t : terms) {
    builder.AddTerm(MakeSpan(t.docs), MakeSpan(t.tfs));
  }
  const std::string blob = builder.Finish().Serialize();
  const std::vector<std::vector<uint32_t>> queries = {
      {0, 4}, {4, 1, 5}, {3, 0}, {5, 4, 3, 2, 1, 0}, {2, 4}};

  size_t accepted = 0;
  size_t divergent = 0;
  std::string first_divergent;
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    for (const bool flip : {true, false}) {
      std::string mutant = blob;
      mutant[pos] = flip ? static_cast<char>(~mutant[pos]) : '\0';
      if (mutant == blob) continue;
      StatusOr<BlockMaxIndex> loaded = BlockMaxIndex::Deserialize(mutant);
      if (!loaded.ok()) continue;
      ++accepted;
      bool same = true;
      for (const auto& tids : queries) {
        for (size_t k : {1u, 10u}) {
          same = same &&
                 SameResults(
                     loaded->TopK(MakeSpan(tids), k,
                                  QueryEvaluator::kExhaustive),
                     loaded->TopK(MakeSpan(tids), k,
                                  QueryEvaluator::kMaxScore));
        }
      }
      if (!same && divergent++ == 0) {
        first_divergent = std::to_string(pos);
        first_divergent += flip ? " xor 0xff" : " set to 0";
      }
    }
  }
  // Most corrupted norms and external ids stay well-formed, so plenty of
  // mutants load and the check above is not vacuous.
  EXPECT_GT(accepted, blob.size() / 4);
  EXPECT_EQ(divergent, 0u) << "first divergent mutant: byte "
                           << first_divergent;
}

INSTANTIATE_TEST_SUITE_P(Codecs, BlockIndexSerdeTest,
                         ::testing::Values(BlockCodec::kVarintGB,
                                           BlockCodec::kSimple8b),
                         [](const auto& pinfo) {
                           return pinfo.param == BlockCodec::kVarintGB
                                      ? "VarintGB"
                                      : "Simple8b";
                         });

TEST(BlockIndexSerdeRejects, EveryTruncationFailsCleanly) {
  InvertedIndex index = BuildSyntheticIndex(31, 60);
  const std::string blob = index.SerializeBlockIndex();
  // Every strict prefix must be rejected with a Status — never a crash,
  // never a silently short index (the store-pack discipline).
  for (size_t cut = 0; cut < blob.size();
       cut += (cut < 64 ? 1 : 37)) {  // Dense over the header, strided after.
    auto result = BlockMaxIndex::Deserialize(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(result.ok()) << "prefix " << cut << " accepted";
  }
}

TEST(BlockIndexSerdeRejects, BadMagicVersionCodecTrailing) {
  InvertedIndex index = BuildSyntheticIndex(37, 60);
  const std::string blob = index.SerializeBlockIndex();

  std::string bad_magic = blob;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x01);
  EXPECT_FALSE(BlockMaxIndex::Deserialize(bad_magic).ok());

  // Version 2 stored score maxima and is refused; neither 0 nor a
  // future version is known.
  std::string bad_version = blob;
  for (const char version : {'\0', '\2', '\x09'}) {
    bad_version[4] = version;  // u16 version little-endian low byte.
    EXPECT_FALSE(BlockMaxIndex::Deserialize(bad_version).ok())
        << "version " << int{version};
  }

  std::string bad_codec = blob;
  bad_codec[6] = 0x7f;  // u16 codec low byte.
  EXPECT_FALSE(BlockMaxIndex::Deserialize(bad_codec).ok());

  std::string trailing = blob + std::string(4, '\0');
  EXPECT_FALSE(BlockMaxIndex::Deserialize(trailing).ok());

  // The untouched blob still loads (the mutations above were the cause).
  EXPECT_TRUE(BlockMaxIndex::Deserialize(blob).ok());
}

TEST(BlockIndexSerdeRejects, MismatchedIndexRefused) {
  InvertedIndex a = BuildSyntheticIndex(41, 80);
  InvertedIndex b = BuildSyntheticIndex(43, 90);
  const std::string blob_a = a.SerializeBlockIndex();
  Status s = b.LoadBlockIndex(blob_a);
  EXPECT_FALSE(s.ok());
}

TEST(BlockIndexSerdeRejects, LoadedMutantsAgreeWithCsrScorer) {
  // InvertedIndex::Search answers kExhaustive from its own CSR columns and
  // kMaxScore from the loaded block index, so a blob LoadBlockIndex
  // accepts must hold exactly this index's norms and postings: any
  // single-byte mutant either is refused or leaves both evaluators in
  // bit-for-bit agreement.
  InvertedIndex index = BuildSyntheticIndex(47, 80);
  const std::string blob = index.SerializeBlockIndex();
  const char* queries[] = {"w0 w3", "w1 w2 w3 w4 w5", "w7 w60 w61", "w9"};
  size_t divergent = 0;
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    std::string mutant = blob;
    mutant[pos] = static_cast<char>(~mutant[pos]);
    if (!index.LoadBlockIndex(mutant).ok()) continue;
    for (const char* q : queries) {
      for (size_t k : {1u, 10u}) {
        if (!SameResults(index.Search(q, k),
                         index.Search(q, k, Bm25Params{},
                                      QueryEvaluator::kMaxScore))) {
          ++divergent;
        }
      }
    }
    ASSERT_TRUE(index.LoadBlockIndex(blob).ok());
  }
  EXPECT_EQ(divergent, 0u);
}

}  // namespace
}  // namespace ckr
