// The production runtime of Section VI (Figure 4).
//
// All mining is offline; the online path must run under tight latency and
// memory budgets. The components mirror the paper:
//  * Stemmer — stems the incoming document once and caches the result:
//    each distinct token (of at most 15 bytes) is stop-word checked,
//    Porter-stemmed and resolved to its context TID and automaton term id
//    once per scratch, and every later occurrence, in this document or the
//    next, costs one hash probe of the scratch's token memo;
//  * quantized interestingness store — each of the vector's fields fits in
//    two bytes ("this causes a minor decrease in granularity"), 18 MB per
//    million concepts;
//  * Global TID Table — maps each relevant term to a perfect-hash-style
//    term id that fits in 22 bits;
//  * packed relevance store — per concept up to 100 (TID, score) pairs,
//    score quantized to 10 bits, 32 bits per pair (~400 MB per million
//    concepts), optionally Golomb-compressed;
//  * Ranker — detects candidates, assembles features, scores with the
//    learned model, and returns the ranked list.
//
// Layout discipline: Finalize() freezes both stores into dense,
// concept-id-indexed contiguous arrays (the string-keyed maps are only a
// build-time convenience), and the Ranker resolves every detector entry to
// store ids once at construction. The steady-state document path therefore
// hashes only its tokens, once each, and — given a reused RankerScratch
// whose memo already holds the document's words — performs no
// per-document heap allocations beyond its output list. ProcessBatch
// fans documents out across worker threads with one scratch per worker and
// per-index output slots, so results are deterministic in order and
// content regardless of thread count.
#ifndef CKR_FRAMEWORK_RUNTIME_RANKER_H_
#define CKR_FRAMEWORK_RUNTIME_RANKER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/binary_io.h"
#include "common/epoch_set.h"
#include "common/hash.h"
#include "common/status.h"
#include "detect/entity_detector.h"
#include "features/interestingness.h"
#include "features/relevance.h"
#include "obs/clock.h"
#include "online/ctr_tracker.h"
#include "ranksvm/rank_svm.h"

namespace ckr {

/// Sentinel for "concept not in this store".
inline constexpr uint32_t kInvalidConcept = static_cast<uint32_t>(-1);

/// Per-field linear quantizer to uint16 ("each field [fits] two bytes").
/// Finalize() assigns dense concept ids (sorted-key order) and packs all
/// vectors into one contiguous array.
class QuantizedInterestingnessStore {
 public:
  /// Registers a concept's raw vector. Ranges are fitted in Finalize().
  void Add(std::string_view key, const InterestingnessVector& vec);

  /// Fits per-field [min, max] ranges, assigns concept ids and quantizes
  /// everything into the dense layout.
  void Finalize();

  bool finalized() const { return finalized_; }
  size_t NumConcepts() const { return keys_.size(); }

  /// Dense id of a concept key, kInvalidConcept if unknown. Valid after
  /// Finalize(); ids are contiguous in [0, NumConcepts()).
  uint32_t IdOf(std::string_view key) const;

  /// Key of a dense id (inverse of IdOf).
  const std::string& KeyOf(uint32_t id) const { return keys_[id]; }

  /// Dequantized flat vector (InterestingnessVector::Dim() wide); false if
  /// the concept is unknown.
  bool Lookup(std::string_view key, std::vector<double>* out) const;

  /// Hash-free hot-path lookup by dense id; false for kInvalidConcept.
  bool LookupById(uint32_t id, std::vector<double>* out) const;

  /// Bytes used by the quantized payload (the paper's "18MB for 1 million
  /// concepts" accounting: NumConcepts * Dim * 2).
  size_t PayloadBytes() const;

  /// Serializes the finalized store (ranges + quantized vectors).
  void SaveTo(BinaryWriter* writer) const;

  /// Restores a store saved by SaveTo.
  [[nodiscard]] static StatusOr<QuantizedInterestingnessStore> LoadFrom(BinaryReader* reader);

 private:
  std::unordered_map<std::string, std::vector<double>> raw_;

  // Dense finalized layout: concept i occupies
  // flat_[i * Dim() .. (i + 1) * Dim()).
  std::vector<std::string> keys_;  ///< Sorted; index == concept id.
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      key_to_id_;
  std::vector<uint16_t> flat_;
  std::vector<double> field_min_;
  std::vector<double> field_max_;
  bool finalized_ = false;
};

/// Term -> TID mapping; TIDs are dense and must fit in 22 bits.
class GlobalTidTable {
 public:
  static constexpr uint32_t kMaxTid = (1u << 22) - 1;

  /// Returns the TID, interning the term if new. Once the table is full
  /// (2^22 - 1 terms; kMaxTid is reserved as the unknown sentinel), new
  /// terms set the overflow flag and get kMaxTid without mutating the
  /// table; existing terms still resolve normally.
  uint32_t Intern(std::string_view term);

  /// TID or kMaxTid when unknown.
  uint32_t Lookup(std::string_view term) const;

  size_t size() const { return tids_.size(); }
  bool overflowed() const { return overflowed_; }

  /// Lowers the intern capacity so overflow behaviour is testable without
  /// four million inserts. Testing hook only.
  void SetCapacityForTesting(uint32_t capacity) { capacity_ = capacity; }

  /// Serializes the term -> TID mapping.
  void SaveTo(BinaryWriter* writer) const;

  /// Restores a table saved by SaveTo (TIDs preserved exactly).
  [[nodiscard]] static StatusOr<GlobalTidTable> LoadFrom(BinaryReader* reader);

 private:
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      tids_;
  uint32_t capacity_ = kMaxTid;
  bool overflowed_ = false;
};

/// Packed per-concept relevant-term lists: each pair is tid << 10 | score,
/// score linearly quantized to [0, 1023] against the global maximum.
/// Finalize() freezes the lists into one CSR-style pair array indexed by
/// dense concept id.
class PackedRelevanceStore {
 public:
  explicit PackedRelevanceStore(GlobalTidTable* tids) : tids_(tids) {}

  /// Registers a concept's mined terms (at most 100 kept).
  void Add(std::string_view key, const std::vector<RelevantTerm>& terms);

  /// Fits the global score scale, assigns concept ids (sorted-key order —
  /// also makes TID interning order deterministic) and packs all lists.
  void Finalize();

  bool finalized() const { return finalized_; }
  size_t NumConcepts() const { return keys_.size(); }

  /// Dense id of a concept key, kInvalidConcept if unknown.
  uint32_t IdOf(std::string_view key) const;

  /// Key of a dense id (inverse of IdOf).
  const std::string& KeyOf(uint32_t id) const { return keys_[id]; }

  /// Relevance score of a concept against a set of context TIDs: the sum
  /// of dequantized scores of its terms present in the context.
  double Score(std::string_view key,
               const std::unordered_set<uint32_t>& context_tids) const;

  /// Hash-free hot-path scoring by dense id against an EpochSet context.
  double ScoreById(uint32_t id, const EpochSet& context_tids) const;

  /// Uncompressed payload bytes (4 bytes per pair).
  size_t PayloadBytes() const;

  /// Bytes if every concept's sorted TID list were Golomb-compressed
  /// (scores still 10 bits each plus the coder's headers); reported by the
  /// memory bench.
  size_t GolombCompressedBytes() const;

  /// Serializes the finalized packed lists (raw mined terms are not kept).
  void SaveTo(BinaryWriter* writer) const;

  /// Restores a store saved by SaveTo; `tids` must be the matching table
  /// (same numbering) and outlive the store.
  [[nodiscard]] static StatusOr<PackedRelevanceStore> LoadFrom(BinaryReader* reader,
                                                 GlobalTidTable* tids);

 private:
  GlobalTidTable* tids_;
  std::unordered_map<std::string, std::vector<RelevantTerm>> raw_;

  // Dense finalized layout: concept i's pairs occupy
  // pairs_[offsets_[i] .. offsets_[i + 1]).
  std::vector<std::string> keys_;  ///< Sorted; index == concept id.
  std::unordered_map<std::string, uint32_t, StringViewHash, std::equal_to<>>
      key_to_id_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> pairs_;
  double score_scale_ = 1.0;  ///< Raw score corresponding to 1023.
  bool finalized_ = false;
};

/// Timing/throughput counters of one ProcessDocument call batch.
struct RuntimeStats {
  double stemmer_seconds = 0.0;
  double ranker_seconds = 0.0;  ///< match_seconds + score_seconds.
  /// Per-component split of the ranker on the flat path: candidate
  /// detection (Aho-Corasick + collision resolution) vs feature assembly,
  /// model scoring and sorting.
  double match_seconds = 0.0;
  double score_seconds = 0.0;
  uint64_t bytes_processed = 0;
  uint64_t documents = 0;
  uint64_t detections = 0;

  /// Merges another stats block (used by the batch path's per-worker
  /// accumulators).
  void Merge(const RuntimeStats& other);

  double StemmerMBps() const;
  double RankerMBps() const;
  double MatchMBps() const;
  double ScoreMBps() const;
  /// Documents per second over stemmer + ranker time.
  double DocsPerSec() const;
};

/// One ranked annotation produced by the runtime.
struct RankedAnnotation {
  std::string key;
  size_t begin = 0;
  size_t end = 0;
  EntityType type = EntityType::kConcept;
  double score = 0.0;
};

/// The ids one normalized token resolves to under one ranker.
struct TokenIds {
  /// TID of the token's Porter stem; GlobalTidTable::kMaxTid for a stop
  /// word or a stem the table does not know.
  uint32_t context_tid = GlobalTidTable::kMaxTid;
  /// EntityDetector::TermId of the token.
  uint32_t term_id = PhraseMatcher::kUnknownTerm;
};

/// Reusable per-call working state of the Ranker. One per thread; all
/// buffers but the token memo are overwritten per document and reused
/// across documents, so once the memo holds the vocabulary the steady
/// state performs zero heap allocations before the output list.
struct RankerScratch {
  /// Entries token_memo holds at most; a full memo is cleared and refilled.
  /// Above the ~11.6k distinct tokens of a paper-scale news vocabulary.
  static constexpr size_t kTokenMemoCapacity = size_t{1} << 14;
  /// Longest token the memo keeps. Such a key lives inside its
  /// std::string, so a full memo takes the same ~1.2 MiB whatever the
  /// input (libstdc++: 64 B per node plus the bucket array); longer tokens
  /// (URLs, e-mail addresses) are resolved again on every occurrence.
  static constexpr size_t kTokenMemoMaxKeyBytes = 15;

  EntityDetector::Scratch detect;
  EpochSet context;       ///< Stemmed context TIDs (universe: TID table).
  EpochSet seen_entries;  ///< Detector entries already emitted.
  std::string stem_buf;
  std::vector<double> features;
  /// Normalized token (Token::text) -> its ids under the ranker whose
  /// generation is memo_generation. An exact cache of a pure function of
  /// that ranker's tables, so it never changes ranked output; a scratch
  /// that meets another ranker clears it first.
  std::unordered_map<std::string, TokenIds, StringViewHash, std::equal_to<>>
      token_memo;
  uint64_t memo_generation = 0;  ///< 0: filled by no ranker yet.
};

/// The online Ranker component (Figure 4). All stores must be finalized
/// and outlive the ranker, and neither they nor the detector may change
/// while it is in use: entry ids and token ids are resolved against them
/// once.
class RuntimeRanker {
 public:
  RuntimeRanker(const EntityDetector& detector,
                const QuantizedInterestingnessStore& interestingness,
                const PackedRelevanceStore& relevance,
                const GlobalTidTable& tids, RankSvmModel model);

  /// Attaches (or detaches, with nullptr) a live CTR tracker; its
  /// Adjustment() is added to every model score — the online adaptation
  /// of the paper's Section VIII. The tracker must outlive the ranker.
  void SetOnlineTracker(const CtrTracker* tracker) { tracker_ = tracker; }

  /// Swaps the time source behind RuntimeStats and the obs stage timers
  /// (default: the process steady clock). With a FakeClock the reported
  /// stage durations are deterministic; ranked output never depends on
  /// the clock. The clock must outlive the ranker.
  void SetClockForTesting(const Clock* clock) { clock_ = clock; }

  /// Detects, scores and ranks the concepts of one document. Pattern
  /// entities are excluded (they bypass ranking). Accumulates timing into
  /// `stats` when non-null. Uses a thread-local scratch, whose token memo
  /// (up to ~1.2 MiB) stays with the thread until it meets another ranker.
  std::vector<RankedAnnotation> ProcessDocument(std::string_view text,
                                                RuntimeStats* stats = nullptr)
      const;

  /// Explicit-scratch variant for callers that manage worker state. A
  /// scratch may serve any number of rankers, one call at a time.
  std::vector<RankedAnnotation> ProcessDocument(std::string_view text,
                                                RankerScratch* scratch,
                                                RuntimeStats* stats) const;

  /// Processes a batch of documents with up to `num_threads` workers (0 or
  /// 1 = inline). One scratch per worker: worker 0 runs on the calling
  /// thread and reuses that thread's scratch (the one the 2-argument
  /// ProcessDocument uses), so repeated batches keep its token memo warm;
  /// the other workers get fresh ones per call. Results land in per-document
  /// output slots, so ordering and content are independent of thread
  /// count. Per-component timing is accumulated per worker and merged into
  /// `stats` when non-null (wall-clock sums across workers, not elapsed
  /// time).
  std::vector<std::vector<RankedAnnotation>> ProcessBatch(
      std::span<const std::string_view> docs, unsigned num_threads,
      RuntimeStats* stats = nullptr) const;

  /// Reference implementation over the string-keyed map lookups (the
  /// pre-flat-layout hot path). Kept for the perf bench's old-vs-new
  /// comparison and for bit-identity verification; produces exactly the
  /// same ranking as ProcessDocument.
  std::vector<RankedAnnotation> ProcessDocumentLegacy(
      std::string_view text, RuntimeStats* stats = nullptr) const;

 private:
  /// The Stemmer component of the legacy path: stems the document once
  /// into context TIDs.
  std::unordered_set<uint32_t> StemToTids(std::string_view text) const;

  const EntityDetector& detector_;
  const QuantizedInterestingnessStore& interestingness_;
  const PackedRelevanceStore& relevance_;
  const GlobalTidTable& tids_;
  RankSvmModel model_;
  const CtrTracker* tracker_ = nullptr;
  const Clock* clock_ = &RealClock();
  /// Process-unique tag of this ranker's token ids (never 0). A memo is
  /// keyed by it rather than by address: a ranker built where a freed one
  /// lived must not inherit that ranker's memo.
  uint64_t generation_;

  /// Detector entry id -> dense store ids, resolved once at construction
  /// so the document path never hashes a concept key.
  std::vector<uint32_t> entry_interest_;
  std::vector<uint32_t> entry_relevance_;
};

}  // namespace ckr

#endif  // CKR_FRAMEWORK_RUNTIME_RANKER_H_
