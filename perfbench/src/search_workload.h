// The `search` and `search_bigshard` workloads: BM25 top-k through
// ServeDaemon over a sharded web corpus, driven by one generator thread
// that keeps a fixed window of requests in flight.
#ifndef PERFBENCH_SEARCH_WORKLOAD_H_
#define PERFBENCH_SEARCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/status.h"
#include "corpus/document.h"
#include "corpus/world.h"
#include "index/top_k.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace perfbench {

/// The generated web corpus: the index's input documents.
struct SearchCorpus {
  std::unique_ptr<ckr::World> world;
  std::vector<ckr::Document> docs;
};

/// Streams `num_docs` web documents of the scaled world for `world_seed`
/// with `workers` generator threads. Ground-truth mentions are dropped:
/// the index reads only ids and text.
ckr::StatusOr<SearchCorpus> GenerateSearchCorpus(size_t num_docs,
                                                 uint64_t world_seed,
                                                 unsigned workers);

/// Thread-seconds of one snapshot build, by public call.
struct IndexBuildTimes {
  double add_s = 0.0;          ///< InvertedIndex::Add, summed over shards.
  double finalize_s = 0.0;     ///< InvertedIndex::Finalize, summed.
  double stats_merge_s = 0.0;  ///< ShardedIndex::FromShards.
};

/// Builds the serving snapshot from documents: `num_shards` contiguous
/// shards, each built by its own thread through Add + Finalize, then
/// ShardedIndex::FromShards merges collection stats. The evaluator is the
/// one ChooseEvaluator picks for the per-shard size.
ckr::StatusOr<std::unique_ptr<ckr::ServingSnapshot>> BuildSnapshot(
    const std::vector<ckr::Document>& docs, size_t num_shards,
    IndexBuildTimes* times);

/// The first `n` LoadGenerator queries (entity keys) for `seed`.
std::vector<std::string> MakeQueries(const ckr::World& world, uint64_t seed,
                                     size_t n);

/// FNV-1a over (external doc id, score bits) of a result list.
uint64_t ResultsDigest(const std::vector<ckr::SearchResult>& results);

/// One answered request. Request `index` asks queries[index % size].
struct ServedRequest {
  uint64_t index = 0;
  int64_t submit_nanos = 0;
  int64_t finish_nanos = 0;  ///< Stamped by the completion callback.
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  ckr::ServeOutcome outcome = ckr::ServeOutcome::kOk;
  uint64_t digest = 0;
};

struct WindowConfig {
  size_t window = 3;  ///< Requests kept in flight.
  uint64_t first_index = 0;
  /// Stop submitting after this many requests (0 = no count limit).
  uint64_t max_requests = 0;
  /// Stop submitting once this long has passed (0 = no time limit).
  int64_t run_nanos = 0;
};

struct WindowedRun {
  std::vector<ServedRequest> requests;  ///< In completion order.
  uint64_t submitted = 0;
  uint64_t callbacks = 0;        ///< Callbacks that fired.
  uint64_t stray_callbacks = 0;  ///< Callbacks for a slot not in flight.
  int64_t start_nanos = 0;
};

/// Drives `daemon` from the calling thread: submits request indices
/// first_index, first_index + 1, ... keeping `window` in flight, polls
/// the slots (never sleeping per request), and returns once every
/// submitted request has been answered. When `spans` is set, records a
/// serve.request span per request with its queue-wait and service
/// children taken from the daemon's response stamps. A request unanswered
/// for 30 s ends the process: its slot cannot be freed safely.
WindowedRun RunWindowed(ckr::ServeDaemon& daemon,
                        const std::vector<std::string>& queries, size_t k,
                        const WindowConfig& config, SpanLog* spans = nullptr);

/// Requests whose result differs from ShardedIndex::Search with the
/// exhaustive evaluator (computed here, outside any timed phase, with
/// `threads` threads), plus requests that were not answered in full.
size_t CountWrongAnswers(const ckr::ServingSnapshot& snapshot,
                         const std::vector<std::string>& queries, size_t k,
                         const std::vector<ServedRequest>& served,
                         unsigned threads);

/// FNV-1a over the digests of requests [first, first + count) in index
/// order; false when one of them is missing from `served`.
bool OutputDigest(const std::vector<ServedRequest>& served, uint64_t first,
                  uint64_t count, uint64_t* digest);

/// The same queries called straight into the layers, no daemon: the
/// whole scatter (ShardedIndex::SearchWithDeadline), then each shard's
/// InvertedIndex::Search and MergeShardTopK, with the index's obs
/// counters read around the per-shard calls.
struct DirectPassStats {
  std::vector<double> scatter_us;
  std::vector<double> shard_search_us;
  std::vector<double> merge_us;
  uint64_t queries = 0;
  uint64_t postings_scored = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
  uint64_t docs_touched = 0;
  size_t mismatches = 0;  ///< Merged per-shard lists != scatter result.
};

DirectPassStats RunDirectPass(const ckr::ServingSnapshot& snapshot,
                              const std::vector<std::string>& queries,
                              size_t k, uint64_t first, uint64_t count,
                              SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_SEARCH_WORKLOAD_H_
