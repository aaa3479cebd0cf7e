// Ranked-retrieval result types and the bounded top-k selector shared by
// every query evaluator (the exhaustive CSR scorer in inverted_index.cc
// and the block-index evaluators in block_max_index.cc). One header so
// all evaluators rank through the *same* total order — the equivalence
// suite demands identical top-k sets, which starts with identical
// tie-breaking.
#ifndef CKR_INDEX_TOP_K_H_
#define CKR_INDEX_TOP_K_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "corpus/document.h"

namespace ckr {

/// One ranked hit.
struct SearchResult {
  DocId doc = 0;
  double score = 0.0;
};

/// BM25 parameters (standard defaults).
struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

/// Which top-k algorithm Search() runs. Both return the identical result
/// list (same docs, bit-identical scores, same order); they differ only in
/// how much work they skip:
///  * kExhaustive  scores every posting of every query term (the oracle);
///  * kMaxScore    partitions terms into essential/non-essential by their
///                 maximum contribution and probes non-essential lists
///                 only for candidates that can still beat the threshold.
enum class QueryEvaluator : uint8_t {
  kExhaustive = 0,
  kMaxScore = 1,
};

/// The deterministic ranking contract, shared by every evaluator and by
/// LegacyInvertedIndex: descending score; equal-score documents are
/// ordered by ascending (external) doc id. The doc id leg makes the order
/// total, so the top-k *set* is uniquely determined — the property the
/// pruned evaluator's equivalence proof rests on.
inline bool RankBefore(const SearchResult& a, const SearchResult& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

/// Bounded top-k selection. With RankBefore as the heap comparator the
/// front is the worst-ranked of the kept k, so a candidate enters iff it
/// ranks before the current worst — the same k results, in the same order,
/// as sort-everything-then-truncate. Each document may be pushed at most
/// once (every pushed doc id distinct), which makes the final contents
/// independent of push order.
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) {}

  void Push(const SearchResult& r) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(r);
      std::push_heap(heap_.begin(), heap_.end(), RankBefore);
    } else if (RankBefore(r, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), RankBefore);
      heap_.back() = r;
      std::push_heap(heap_.begin(), heap_.end(), RankBefore);
    }
  }

  /// True once k results are held — only then is there a pruning
  /// threshold at all.
  bool Full() const { return heap_.size() >= k_ && k_ > 0; }

  /// The score of the current k-th result. Pruning contract: a document
  /// whose score upper bound is *strictly* below this can never enter the
  /// final top-k (scores in the heap only improve), but a document tying
  /// it still can — via the ascending-doc-id tie-break — so evaluators
  /// must skip only on `bound < ThresholdScore()`.
  double ThresholdScore() const { return heap_.front().score; }

  std::vector<SearchResult> Take() {
    std::sort(heap_.begin(), heap_.end(), RankBefore);
    return std::move(heap_);
  }

 private:
  size_t k_;
  std::vector<SearchResult> heap_;
};

}  // namespace ckr

#endif  // CKR_INDEX_TOP_K_H_
