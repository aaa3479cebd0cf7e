// Unit tests for ckr_index: postings, BM25 search, phrase search, snippets.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "corpus/document.h"
#include "index/inverted_index.h"
#include "index/legacy_index.h"

namespace ckr {
namespace {

Document MakeDoc(DocId id, std::string text) {
  Document d;
  d.id = id;
  d.text = std::move(text);
  return d;
}

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_.Add(MakeDoc(0, "the quick brown fox jumps over the lazy dog"));
    index_.Add(MakeDoc(1, "quick brown foxes are quick and brown"));
    index_.Add(MakeDoc(2, "the lazy dog sleeps all day long today"));
    index_.Add(MakeDoc(3, "a completely unrelated document about turtles"));
    index_.Finalize();
  }
  InvertedIndex index_;
};

TEST_F(IndexTest, DocFreq) {
  EXPECT_EQ(index_.DocFreq("quick"), 2u);
  EXPECT_EQ(index_.DocFreq("dog"), 2u);
  EXPECT_EQ(index_.DocFreq("turtles"), 1u);
  EXPECT_EQ(index_.DocFreq("absent"), 0u);
  EXPECT_EQ(index_.NumDocs(), 4u);
}

TEST_F(IndexTest, SearchRanksMatchingDocsFirst) {
  auto results = index_.Search("quick brown", 10);
  ASSERT_GE(results.size(), 2u);
  // Doc 1 has double occurrences of both terms: should rank first.
  EXPECT_EQ(results[0].doc, 1u);
  EXPECT_GT(results[0].score, results[1].score);
  for (const auto& r : results) EXPECT_NE(r.doc, 3u);
}

TEST_F(IndexTest, SearchRespectsK) {
  auto results = index_.Search("the", 1);
  EXPECT_EQ(results.size(), 1u);
}

TEST_F(IndexTest, SearchUnknownTermsEmpty) {
  EXPECT_TRUE(index_.Search("zzz qqq", 10).empty());
  EXPECT_TRUE(index_.Search("", 10).empty());
}

TEST_F(IndexTest, PhraseSearchRequiresAdjacency) {
  // "quick brown" is contiguous in docs 0 and 1.
  EXPECT_EQ(index_.PhraseResultCount("quick brown"), 2u);
  // "quick dog" never occurs contiguously though both terms exist.
  EXPECT_EQ(index_.PhraseResultCount("quick dog"), 0u);
  // Order matters.
  EXPECT_EQ(index_.PhraseResultCount("brown quick"), 0u);
}

TEST_F(IndexTest, PhraseSearchSingleTerm) {
  EXPECT_EQ(index_.PhraseResultCount("lazy"), 2u);
}

TEST_F(IndexTest, PhraseSearchNormalizesCase) {
  EXPECT_EQ(index_.PhraseResultCount("Quick BROWN"), 2u);
}

TEST_F(IndexTest, SnippetContainsQueryTerm) {
  auto results = index_.PhraseSearch("lazy dog", 10);
  ASSERT_FALSE(results.empty());
  std::string snippet = index_.Snippet(results[0].doc, "lazy dog");
  EXPECT_NE(snippet.find("lazy dog"), std::string::npos);
}

TEST_F(IndexTest, SnippetForUnknownDocEmpty) {
  EXPECT_EQ(index_.Snippet(999, "anything"), "");
}

TEST_F(IndexTest, SnippetWindowBounded) {
  std::string snippet = index_.Snippet(0, "fox", 4);
  // 4-token window: should be much shorter than the document.
  EXPECT_LT(snippet.size(), index_.DocText(0).size());
  EXPECT_NE(snippet.find("fox"), std::string::npos);
}

TEST_F(IndexTest, DocTextRoundTrip) {
  EXPECT_EQ(index_.DocText(3), "a completely unrelated document about turtles");
  EXPECT_EQ(index_.DocText(12345), "");
}

TEST(IndexLargeTest, PhraseCountMatchesBruteForce) {
  // Property test: phrase counts agree with a brute-force scan.
  InvertedIndex index;
  std::vector<std::string> texts = {
      "a b c a b", "b c a", "c c c a b c", "a a a", "b a b a b",
  };
  for (size_t i = 0; i < texts.size(); ++i) {
    index.Add(MakeDoc(static_cast<DocId>(i), texts[i]));
  }
  index.Finalize();
  const char* phrases[] = {"a b", "b c", "c a", "a b c", "b a b", "c c"};
  for (const char* phrase : phrases) {
    std::string padded_phrase = " ";
    padded_phrase += phrase;
    padded_phrase += ' ';
    uint64_t brute = 0;
    for (const std::string& t : texts) {
      if ((" " + t + " ").find(padded_phrase) != std::string::npos) {
        ++brute;
      }
    }
    EXPECT_EQ(index.PhraseResultCount(phrase), brute) << phrase;
  }
}

TEST(IndexLargeTest, Bm25PrefersRareTerms) {
  InvertedIndex index;
  // "rare" appears once; "common" appears everywhere.
  index.Add(MakeDoc(0, "common words common words rare"));
  for (DocId i = 1; i < 20; ++i) {
    index.Add(MakeDoc(i, "common words again and again"));
  }
  index.Finalize();
  auto results = index.Search("rare common", 20);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].doc, 0u);
  EXPECT_GT(results[0].score, 2.0 * results[1].score);
}

TEST(IndexLargeTest, DeterministicTieBreak) {
  // Ranking contract (inverted_index.h): descending score, equal scores
  // broken by ascending external doc id — a total order every evaluator
  // (exhaustive, MaxScore) must honor, including when the
  // tie straddles the k-th slot.
  InvertedIndex index;
  index.Add(MakeDoc(5, "same text here"));
  index.Add(MakeDoc(2, "same text here"));
  index.Add(MakeDoc(9, "same text here"));
  index.Finalize();
  for (QueryEvaluator evaluator :
       {QueryEvaluator::kExhaustive, QueryEvaluator::kMaxScore}) {
    auto results = index.Search("same text", 3, Bm25Params{}, evaluator);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].doc, 2u);  // Equal scores: ordered by doc id.
    EXPECT_EQ(results[1].doc, 5u);
    EXPECT_EQ(results[2].doc, 9u);
    EXPECT_EQ(results[0].score, results[2].score);

    // k below the tie width: the heap must keep the *smallest* doc ids of
    // the tied band, not whichever arrived first.
    auto top2 = index.Search("same text", 2, Bm25Params{}, evaluator);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0].doc, 2u);
    EXPECT_EQ(top2[1].doc, 5u);
  }
}

TEST(IndexOptionsTest, PhraseContractHoldsWithoutStoredText) {
  // store_text=false drops raw text and offsets only; token streams and
  // the position pool are always retained, so every phrase and search
  // result is bit-identical to the store_text=true build. Snippet and
  // DocText degrade to "" instead of failing — the documented contract.
  InvertedIndex full;
  IndexBuildOptions lean_opts;
  lean_opts.store_text = false;
  InvertedIndex lean(lean_opts);
  const char* texts[] = {"the quick brown fox", "quick brown foxes run",
                         "brown the quick", "nothing in common"};
  for (DocId d = 0; d < 4; ++d) {
    full.Add(MakeDoc(d * 2 + 1, texts[d]));
    lean.Add(MakeDoc(d * 2 + 1, texts[d]));
  }
  full.Finalize();
  lean.Finalize();

  for (const char* phrase :
       {"quick brown", "brown fox", "the quick brown", "quick the", "",
        "   ", "zzz", "quick zzz", "quick"}) {
    EXPECT_EQ(lean.PhraseResultCount(phrase), full.PhraseResultCount(phrase))
        << phrase;
    const auto a = lean.PhraseSearch(phrase, 10);
    const auto b = full.PhraseSearch(phrase, 10);
    ASSERT_EQ(a.size(), b.size()) << phrase;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc) << phrase;
      EXPECT_EQ(a[i].score, b[i].score) << phrase;
    }
  }
  const auto a = lean.Search("quick brown", 10);
  const auto b = full.Search("quick brown", 10);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].doc, b[i].doc);

  // The degraded accessors return "" (not a crash, not stale bytes).
  EXPECT_EQ(lean.DocText(1), "");
  EXPECT_EQ(lean.Snippet(1, "quick", 30), "");
  EXPECT_NE(full.DocText(1), "");
}

TEST(IndexOptionsTest, PhraseContractHoldsWithDeferredBlockIndex) {
  // build_block_index=false defers the pruning structure; phrase paths
  // never touch it, so counts and hits are identical before the deferred
  // RebuildBlockIndex() and unchanged after it. Pruned evaluators fall
  // back to the exhaustive scorer while it is absent.
  IndexBuildOptions deferred_opts;
  deferred_opts.build_block_index = false;
  InvertedIndex deferred(deferred_opts);
  InvertedIndex eager;
  const char* texts[] = {"alpha beta gamma", "beta gamma delta",
                         "gamma alpha beta"};
  for (DocId d = 0; d < 3; ++d) {
    deferred.Add(MakeDoc(d, texts[d]));
    eager.Add(MakeDoc(d, texts[d]));
  }
  deferred.Finalize();
  eager.Finalize();
  ASSERT_FALSE(deferred.has_block_index());
  ASSERT_TRUE(eager.has_block_index());

  auto expect_phrases_match = [&](const InvertedIndex& idx) {
    for (const char* phrase :
         {"beta gamma", "alpha beta", "gamma delta", "delta alpha", "",
          "zzz beta"}) {
      EXPECT_EQ(idx.PhraseResultCount(phrase),
                eager.PhraseResultCount(phrase))
          << phrase;
      const auto a = idx.PhraseSearch(phrase, 5);
      const auto b = eager.PhraseSearch(phrase, 5);
      ASSERT_EQ(a.size(), b.size()) << phrase;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].doc, b[i].doc) << phrase;
        EXPECT_EQ(a[i].score, b[i].score) << phrase;
      }
    }
  };
  expect_phrases_match(deferred);
  // MaxScore routes through the exhaustive scorer while the block index
  // is deferred — same results, no crash.
  {
    const auto a = deferred.Search("beta gamma", 5, Bm25Params{},
                                   QueryEvaluator::kMaxScore);
    const auto b =
        eager.Search("beta gamma", 5, Bm25Params{}, QueryEvaluator::kMaxScore);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].doc, b[i].doc);
  }

  deferred.RebuildBlockIndex(deferred_opts.block_codec);
  ASSERT_TRUE(deferred.has_block_index());
  expect_phrases_match(deferred);
}

TEST(IndexOptionsTest, PhraseEarlyExitsOnEmptyAndOovInput) {
  // The ResolvePhrase early exits (inverted_index.cc): empty input,
  // whitespace-only input, and any out-of-vocabulary term resolve to "no
  // results" across both phrase entry points — with or without the
  // signature prefilter in front of them.
  for (bool with_signatures : {true, false}) {
    IndexBuildOptions opts;
    opts.build_signature_filter = with_signatures;
    InvertedIndex index(opts);
    index.Add(MakeDoc(7, "only one document here"));
    index.Finalize();
    for (const char* phrase : {"", "   ", "\t\n", "missing", "one missing"}) {
      EXPECT_EQ(index.PhraseResultCount(phrase), 0u)
          << "sig=" << with_signatures << " phrase='" << phrase << "'";
      EXPECT_TRUE(index.PhraseSearch(phrase, 10).empty())
          << "sig=" << with_signatures << " phrase='" << phrase << "'";
    }
    EXPECT_EQ(index.PhraseResultCount("one document"), 1u);
  }
}

// The exhaustive scan and the union count share a thread-local scratch
// that must be all-zero between calls. Each case checks the flat index
// against LegacyInvertedIndex (which allocates fresh arrays per call), so
// a stale accumulator, a stale `seen` mark or an overrun of the `touched`
// array shows up as a differing result. Work runs on fresh threads, whose
// scratch is sized to exactly the first index they search.
class IndexScanScratchTest : public ::testing::Test {
 protected:
  struct Indexes {
    InvertedIndex flat;
    LegacyInvertedIndex legacy;
  };

  static void SetUpTestSuite() {
    small_ = Build(60, 11).release();
    large_ = Build(700, 12).release();
  }
  static void TearDownTestSuite() {
    delete small_;
    delete large_;
    small_ = nullptr;
    large_ = nullptr;
  }

  // `num_docs` documents over a skewed 60-word vocabulary; "common" is in
  // every document, so a query holding it touches every doc and then
  // keeps scanning (the write into the last `touched` slot).
  static std::unique_ptr<Indexes> Build(size_t num_docs, uint64_t seed) {
    auto out = std::make_unique<Indexes>();
    Rng rng(seed);
    for (size_t i = 0; i < num_docs; ++i) {
      std::string text = "common";
      const int64_t len = rng.NextInt(5, 40);
      for (int64_t t = 0; t < len; ++t) {
        const double u = rng.NextDouble();
        text += " w";
        text += std::to_string(static_cast<int>(60.0 * u * u));
      }
      const Document doc = MakeDoc(static_cast<DocId>(1000 + 3 * i), text);
      out->flat.Add(doc);
      out->legacy.Add(doc);
    }
    out->flat.Finalize();
    out->legacy.Finalize();
    return out;
  }

  static std::vector<std::string> Queries() {
    return {"common w1", "w0 w3 w7",  "w2",       "common w0 w1 w2 w5",
            "w59 w58",   "zzz w4",    "w10 w11 w12 w13 w14 w15",
            "w1 common", "W3 w3 w30"};
  }

  static std::vector<Bm25Params> ParamSets() {
    Bm25Params tuned;
    tuned.k1 = 0.9;
    tuned.b = 0.4;
    return {Bm25Params{}, tuned};
  }

  static void ExpectSameResults(const std::vector<SearchResult>& got,
                                const std::vector<SearchResult>& want,
                                const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doc, want[i].doc) << label << " rank " << i;
      EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
    }
  }

  // Every query, both parameter sets, a top-10 and an everything cut-off
  // (the latter exposes every touched doc's score), plus the union count.
  static void ExpectMatchesOracle(const Indexes& idx, const std::string& tag) {
    const size_t all = idx.flat.NumDocs();
    for (const std::string& q : Queries()) {
      for (const Bm25Params& p : ParamSets()) {
        for (size_t k : {size_t{10}, all}) {
          ExpectSameResults(idx.flat.Search(q, k, p), idx.legacy.Search(q, k, p),
                            tag + " q='" + q + "' k=" + std::to_string(k) +
                                " k1=" + std::to_string(p.k1));
        }
      }
      EXPECT_EQ(idx.flat.RegularResultCount(q), idx.legacy.RegularResultCount(q))
          << tag << " q='" << q << "'";
    }
  }

  static Indexes* small_;
  static Indexes* large_;
};

IndexScanScratchTest::Indexes* IndexScanScratchTest::small_ = nullptr;
IndexScanScratchTest::Indexes* IndexScanScratchTest::large_ = nullptr;

TEST_F(IndexScanScratchTest, OneThreadAlternatesSmallLargeSmall) {
  std::thread worker([] {
    for (int round = 0; round < 2; ++round) {
      ExpectMatchesOracle(*small_, "small");
      ExpectMatchesOracle(*large_, "large");
      ExpectMatchesOracle(*small_, "small again");
    }
  });
  worker.join();
}

TEST_F(IndexScanScratchTest, EarlyReturnsLeaveScratchClean) {
  std::thread worker([] {
    for (const Indexes* idx : {small_, large_}) {
      const Indexes& x = *idx;
      for (const Bm25Params& p : ParamSets()) {
        EXPECT_TRUE(x.flat.Search("", 10, p).empty());
        EXPECT_TRUE(x.flat.Search("zzz qqq", 10, p).empty());
        // k = 0 scans and must still reset what it touched.
        EXPECT_TRUE(x.flat.Search("common w1 w2", 0, p).empty());
        EXPECT_TRUE(x.flat.Search("w3 w40", 0, p).empty());
        ExpectSameResults(x.flat.Search("common w1", x.flat.NumDocs(), p),
                          x.legacy.Search("common w1", x.legacy.NumDocs(), p),
                          "after early returns");
      }
      EXPECT_EQ(x.flat.RegularResultCount(""), 0u);
      EXPECT_EQ(x.flat.RegularResultCount("zzz qqq"), 0u);
      ExpectMatchesOracle(x, "after early returns");
    }
  });
  worker.join();
}

TEST_F(IndexScanScratchTest, ConcurrentSearchesMatchSequentialPass) {
  const Indexes& x = *large_;
  const std::vector<std::string> queries = Queries();
  const std::vector<Bm25Params> params = ParamSets();
  std::vector<std::vector<SearchResult>> want;
  for (const std::string& q : queries) {
    for (const Bm25Params& p : params) want.push_back(x.flat.Search(q, 10, p));
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::vector<SearchResult>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query, so the threads' scans
      // overlap on different posting lists.
      for (int round = 0; round < kRounds; ++round) {
        for (size_t j = 0; j < want.size(); ++j) {
          const size_t i = (j + static_cast<size_t>(t)) % want.size();
          got[t].push_back(x.flat.Search(queries[i / params.size()], 10,
                                         params[i % params.size()]));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * want.size());
    for (size_t j = 0; j < got[t].size(); ++j) {
      const size_t i = (j % want.size() + static_cast<size_t>(t)) % want.size();
      ExpectSameResults(got[t][j], want[i],
                        "thread " + std::to_string(t) + " item " +
                            std::to_string(j));
    }
  }
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectSameResults(want[i],
                      x.legacy.Search(queries[i / params.size()], 10,
                                      params[i % params.size()]),
                      "sequential vs oracle " + std::to_string(i));
  }
}

}  // namespace
}  // namespace ckr
