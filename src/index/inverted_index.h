// Positional inverted index with BM25 ranked retrieval, phrase search, and
// snippet generation — the substitute for the Yahoo! Search backend used by
// the paper's feature pipeline:
//  * feature (4) searchengine_phrase = number of results of a phrase query;
//  * relevant-keyword mining reads the snippets of the top-100 results;
//  * Prisma runs pseudo-relevance feedback over the top-50 results.
//
// Layout (PISA-style, frozen by Finalize()):
//  * terms are interned into dense ids at Add() time; lookups are
//    heterogeneous (string_view, no temporary std::string);
//  * postings live in CSR flat arrays — per-term slot ranges over
//    contiguous (doc, tf) columns, with each slot's token positions
//    delta-encoded through the framework's Golomb coder into one shared
//    byte pool (decoded only when a phrase check actually needs them);
//  * per-doc token-id streams + byte offsets (for phrase snippets) are
//    CSR too — no per-document string vectors survive Finalize();
//  * per-doc lengths and the default-parameter BM25 norm are precomputed.
// Search/PhraseSearch select the top k through a bounded heap instead of
// sorting the full result set, and the *ResultCount entry points count
// without materializing results at all. All results are bit-identical to
// LegacyInvertedIndex (the equivalence suite enforces this).
#ifndef CKR_INDEX_INVERTED_INDEX_H_
#define CKR_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "corpus/document.h"
#include "index/block_max_index.h"
#include "index/doc_signature.h"
#include "index/top_k.h"

namespace ckr {

/// How Finalize() assigns internal doc ids. External ids always ride
/// along, so ranked results are identical under every order; only the
/// compressed layout (delta gaps, block composition) changes.
enum class DocidOrder : uint8_t {
  kAddOrder = 0,   ///< Internal ids follow Add() order (the default).
  kBisection = 1,  ///< Recursive graph bisection (docid_reorder.h).
  kExplicit = 2,   ///< Caller-supplied permutation (tests, cluster hints).
};

/// Collection-level scoring statistics: everything BM25 takes from the
/// corpus as a whole rather than from one document. A sharded deployment
/// computes each shard's LocalCollectionStats(), folds them together with
/// Absorb(), and pushes the merged totals back into every shard via
/// InvertedIndex::OverrideCollectionStats() — after which each shard
/// scores with the *union's* n / df / avg_doc_len, so per-document BM25
/// contributions are bit-identical to a single index over all documents
/// (the sharded-serving exactness contract, see src/serve/).
struct CollectionStats {
  uint64_t num_docs = 0;
  uint64_t total_tokens = 0;
  /// Term -> number of documents containing it, collection-wide.
  std::unordered_map<std::string, uint64_t> doc_freq;

  /// Folds `other` into this: counts add, term frequencies union+add.
  /// Commutative and associative over integers, so any merge order yields
  /// the same stats.
  void Absorb(const CollectionStats& other);
};

/// Build-time knobs for million-doc, out-of-core-friendly index builds.
/// Must be fixed at construction (Add() consults store_text). The default
/// state is byte-for-byte the historical behaviour.
struct IndexBuildOptions {
  /// Keep raw document text and per-token byte offsets. Required by
  /// Snippet()/DocText(); at corpus scale the text dominates peak memory,
  /// so streaming builds switch it off (Snippet/DocText then return "").
  ///
  /// Degraded-path contract: only the *text* surface degrades. The
  /// per-doc token-id streams and the Golomb position pool are always
  /// retained, so Search, RegularResultCount, PhraseResultCount and
  /// PhraseSearch return exactly the same results/counts as a
  /// store_text=true build (regression-tested in tests/index_test.cc);
  /// Snippet()/DocText() return "" instead of failing.
  bool store_text = true;
  /// Build the BlockMaxIndex eagerly inside Finalize(). Switching it off
  /// avoids doubling peak memory during million-doc builds; call
  /// RebuildBlockIndex() later, or leave it off — MaxScore falls back to
  /// the exhaustive scorer (identical results) until it exists.
  bool build_block_index = true;
  /// Build the per-document term-signature matrix inside Finalize() and
  /// gate the multi-term phrase paths (PhraseResultCount, PhraseSearch)
  /// behind its exact-safe AND-mask prefilter (doc_signature.h). The
  /// prefilter only ever skips documents that provably lack a phrase
  /// term, so results are bit-identical with it on or off
  /// (property-tested); switching it off saves bits()/8 bytes per doc
  /// and disables RelatedDocuments().
  bool build_signature_filter = true;
  /// Shape of the signature matrix (width, probes per term).
  SignatureConfig signature;
  BlockCodec block_codec = BlockCodec::kVarintGB;
  DocidOrder docid_order = DocidOrder::kAddOrder;
  /// For kExplicit: `explicit_order[i]` = Add()-order doc index placed at
  /// internal position i. Must be a permutation of [0, NumDocs()).
  std::vector<uint32_t> explicit_order;
};

/// Immutable after Finalize(); thread-safe for concurrent reads.
class InvertedIndex {
 public:
  InvertedIndex() = default;
  explicit InvertedIndex(IndexBuildOptions options)
      : options_(std::move(options)) {}

  /// Indexes a document; `doc.id` must be unique within the index.
  void Add(const Document& doc);

  /// Builds postings and collection statistics; call once after all Add()s.
  /// Applies the configured docid order first (the permutation/remap
  /// contract: every Search/count result is identical under any order
  /// because scores depend only on per-doc statistics and ties break on
  /// external ids — property-tested in tests/property_test.cc).
  void Finalize();

  bool finalized() const { return finalized_; }
  size_t NumDocs() const { return docs_.size(); }
  size_t NumTerms() const { return term_ids_.size(); }

  /// External id of internal document `d` (requires d < NumDocs()). The
  /// serving layer uses this to validate that shards hold disjoint
  /// document sets.
  DocId ExternalDocId(uint32_t d) const { return docs_[d].id; }

  /// Document frequency of a term (heterogeneous lookup — no allocation).
  uint32_t DocFreq(std::string_view term) const;

  /// This index's own collection statistics (requires finalized()).
  CollectionStats LocalCollectionStats() const;

  /// Replaces the statistics BM25 scores with (n, per-term df,
  /// avg_doc_len) by collection-wide values — the sharded-serving seam.
  /// Validates first (`stats` must dominate the local statistics: at
  /// least as many docs/tokens, and every local term present with df >=
  /// its local df); nothing is mutated on failure. On success the
  /// default-parameter norms are recomputed and, when a block index
  /// exists, it is rebuilt under the same codec so MaxScore scores with
  /// the same statistics. Serialized block indexes do not
  /// carry the override: LoadBlockIndex() refuses while one is active
  /// (rebuild instead).
  [[nodiscard]] Status OverrideCollectionStats(const CollectionStats& stats);

  /// True after a successful OverrideCollectionStats().
  bool collection_stats_overridden() const { return stats_overridden_; }

  /// BM25 disjunctive retrieval over the query's normalized terms.
  ///
  /// Ranking contract (every evaluator): results are ordered by
  /// descending score; equal-score documents by ascending external doc
  /// id. The order is total, so the returned top-k is unique.
  ///
  /// `evaluator` selects the top-k algorithm (top_k.h). MaxScore runs on
  /// the block-compressed index and returns the exact exhaustive result —
  /// same documents, bit-identical scores — but its per-term maxima are
  /// computed for the default Bm25Params, so a query with non-default
  /// parameters silently falls back to the exhaustive scorer.
  ///
  /// The exhaustive scan (and RegularResultCount) accumulates in a
  /// thread-local scratch kept for the thread's lifetime: 13 B per document
  /// of the largest index that thread has searched, allocated once instead
  /// of per call.
  std::vector<SearchResult> Search(
      std::string_view query, size_t k, const Bm25Params& params = {},
      QueryEvaluator evaluator = QueryEvaluator::kExhaustive) const;

  /// Number of documents matching the disjunctive query. Count-only fast
  /// path: marks the posting union in a doc bitmap, no scoring/sorting.
  uint64_t RegularResultCount(std::string_view query) const;

  /// Number of documents containing the phrase contiguously — the paper's
  /// "number of result pages returned" for a phrase query. Count-only:
  /// intersects doc lists and stops at the first adjacency witness per
  /// document instead of materializing a ranked result set.
  ///
  /// An empty/whitespace-only phrase or one containing an
  /// out-of-vocabulary term returns 0 (no document can contain it).
  /// When the index carries signatures, multi-term counting first rejects
  /// seed documents whose signature cannot cover every phrase term
  /// (exact-safe: the count is identical with the prefilter on or off).
  uint64_t PhraseResultCount(std::string_view phrase) const;

  /// Ranked documents containing the phrase contiguously (BM25 over the
  /// phrase's terms, restricted to phrase matches).
  std::vector<SearchResult> PhraseSearch(std::string_view phrase,
                                         size_t k) const;

  /// Approximate "related documents": the top-k other documents ranked by
  /// Hamming similarity between term signatures (bits - popcount(XOR) —
  /// high when the documents share most of their vocabulary). Ranking
  /// contract matches Search: descending similarity, ties by ascending
  /// external doc id, so the result is unique and docid-order invariant.
  /// Returns empty if `doc` is unknown or the index was built with
  /// build_signature_filter=false.
  std::vector<SearchResult> RelatedDocuments(DocId doc, size_t k) const;

  /// True once Finalize() built the signature matrix.
  bool has_signatures() const { return has_signatures_; }

  /// The per-document signature matrix (requires has_signatures()).
  const SignatureMatrix& signatures() const { return signatures_; }

  /// Builds a query-biased snippet for a result: a window of
  /// `context_tokens` tokens centered on the first query-term hit.
  std::string Snippet(DocId doc, std::string_view query,
                      size_t context_tokens = 30) const;

  /// Raw text of an indexed document.
  const std::string& DocText(DocId doc) const;

  /// Approximate heap footprint of the index structures — the memory row
  /// of bench_offline_perf.
  size_t MemoryBytes() const;

  /// Bytes of the Golomb-compressed positions pool (diagnostics).
  size_t PositionPoolBytes() const { return pos_pool_.size(); }

  /// The block-compressed pruning index backing the MaxScore evaluator.
  /// Finalize() builds it (with the configured codec) unless
  /// options.build_block_index is false.
  const BlockMaxIndex& block_index() const { return block_index_; }

  /// True once a block index exists (eager Finalize build, explicit
  /// RebuildBlockIndex, or LoadBlockIndex). While false, Search() routes
  /// MaxScore through the exhaustive scorer.
  bool has_block_index() const { return has_block_index_; }

  /// Build options this index was constructed with.
  const IndexBuildOptions& build_options() const { return options_; }

  /// Rebuilds the block index under a different codec (the evaluators and
  /// results are codec-independent; only the compressed size changes).
  void RebuildBlockIndex(BlockCodec codec);

  /// Serialized block index ('CKRX', kBlockIndexVersion).
  std::string SerializeBlockIndex() const { return block_index_.Serialize(); }

  /// Replaces the block index with a deserialized blob after validating it
  /// agrees with this index (same doc and term counts, external ids,
  /// norms and postings). The blob is fully validated before anything is
  /// replaced.
  [[nodiscard]] Status LoadBlockIndex(std::string_view blob);

 private:
  static constexpr uint32_t kInvalidTid = 0xffffffffu;

  struct StoredDoc {
    DocId id = 0;
    std::string text;
  };

  /// Permutes docs_ and the CSR token streams into the configured docid
  /// order (no-op for kAddOrder / identity orders). Runs first in
  /// Finalize(), so every downstream structure sees the final order.
  void ApplyDocidOrder();

  /// Interns `token`, assigning the next dense id on first sight.
  uint32_t InternTerm(std::string_view token);
  /// Dense id of a term, or kInvalidTid if unseen.
  uint32_t LookupTerm(std::string_view term) const;

  int32_t FindDocIndex(DocId id) const;
  /// Decodes the positions blob of posting slot `slot` into `*out`.
  void DecodePositions(size_t slot, std::vector<uint32_t>* out) const;
  /// Resolves a phrase to term ids and per-term posting slot ranges;
  /// returns false if the phrase is empty or any term is unseen.
  bool ResolvePhrase(std::string_view phrase, std::vector<uint32_t>* tids,
                     size_t* rarest) const;
  /// True if doc `d` contains the phrase starting at any position. Decodes
  /// only the rarest term's position list (slot `rarest_slot`, reusable
  /// buffer `pos_buf`) and verifies each candidate window directly against
  /// the doc's token-id stream — no other position list is touched. With
  /// `num_starts` all starts are counted; without it the first witness
  /// returns early.
  bool PhraseInDoc(uint32_t d, const std::vector<uint32_t>& tids,
                   size_t rarest, size_t rarest_slot,
                   std::vector<uint32_t>* pos_buf,
                   uint32_t* num_starts) const;

  // ---- Documents (CSR token streams; built during Add) ----
  std::vector<StoredDoc> docs_;
  std::unordered_map<DocId, uint32_t> doc_index_;
  std::vector<size_t> doc_tok_offset_;   ///< docs+1 offsets into pools below.
  std::vector<uint32_t> tok_tid_;        ///< Token term ids, all docs.
  std::vector<uint32_t> tok_begin_;      ///< Byte offset per token.
  std::vector<uint32_t> tok_end_;

  // ---- Term dictionary ----
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      term_ids_;

  // ---- Postings (CSR; built by Finalize) ----
  std::vector<size_t> post_offset_;      ///< terms+1 slot offsets.
  std::vector<uint32_t> post_doc_;       ///< Doc index per slot.
  std::vector<uint32_t> post_tf_;        ///< Term frequency per slot.
  std::vector<uint64_t> pos_offset_;     ///< Positions blob start per slot.
  std::vector<uint32_t> pos_len_;        ///< Positions blob length per slot.
  std::vector<uint32_t> pos_first_;      ///< First position per slot (phrase
                                         ///< checks skip the decode when
                                         ///< tf == 1 or the first occurrence
                                         ///< is already a witness).
  std::vector<uint8_t> pos_pool_;        ///< Golomb-coded positions.

  // ---- Collection statistics ----
  std::vector<uint32_t> doc_len_;        ///< Tokens per doc.
  std::vector<double> default_norm_;     ///< k1*(1-b+b*dl/avg), default params.
  double avg_doc_len_ = 0.0;             ///< Scoring avg (global if overridden).
  double score_num_docs_ = 0.0;          ///< n used by idf (global if overridden).
  std::vector<double> score_df_;         ///< Per-tid df override (empty unless
                                         ///< stats_overridden_).
  bool stats_overridden_ = false;
  bool finalized_ = false;

  // ---- Block-compressed pruning index (built by Finalize) ----
  BlockMaxIndex block_index_;
  bool has_block_index_ = false;

  // ---- Per-document term signatures (built by Finalize) ----
  SignatureMatrix signatures_;
  bool has_signatures_ = false;

  IndexBuildOptions options_;
};

}  // namespace ckr

#endif  // CKR_INDEX_INVERTED_INDEX_H_
