#include "search_workload.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/parallel.h"
#include "corpus/corpus_stream.h"
#include "index/inverted_index.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "search/search_service.h"
#include "serve/load_gen.h"
#include "serve/sharded_index.h"

namespace perfbench {
namespace {

using ckr::ServeOutcome;
using ckr::ServeRequest;
using ckr::ServeResponse;

constexpr int64_t kStuckNanos = 30'000'000'000;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

enum SlotState : int { kFree = 0, kInFlight = 1, kDone = 2 };

/// One in-flight request. The completion callback fills it and flips
/// `state` to kDone; only the generator thread frees and reuses it.
struct alignas(64) Slot {
  std::atomic<int> state{kFree};
  uint64_t index = 0;
  int64_t submit_nanos = 0;
  int64_t finish_nanos = 0;
  ServeResponse response;
};

uint64_t CounterValue(const char* name) {
  return ckr::obs::MetricRegistry::Global().GetCounter(name)->Value();
}

}  // namespace

ckr::StatusOr<SearchCorpus> GenerateSearchCorpus(size_t num_docs,
                                                 uint64_t world_seed,
                                                 unsigned workers) {
  auto world_or = ckr::World::Create(ckr::ScaledWorldConfig(num_docs, world_seed));
  if (!world_or.ok()) return world_or.status();
  SearchCorpus corpus;
  corpus.world = std::move(*world_or);
  corpus.docs.reserve(num_docs);
  ckr::CorpusStreamConfig stream;
  stream.workers = workers;
  ckr::CorpusStreamer streamer(*corpus.world);
  ckr::Status s = streamer.Stream(ckr::Document::Kind::kWeb, num_docs, stream,
                                  [&](ckr::Document&& doc) {
                                    doc.mentions = {};
                                    corpus.docs.push_back(std::move(doc));
                                  });
  if (!s.ok()) return s;
  return corpus;
}

ckr::StatusOr<std::unique_ptr<ckr::ServingSnapshot>> BuildSnapshot(
    const std::vector<ckr::Document>& docs, size_t num_shards,
    IndexBuildTimes* times) {
  ckr::IndexBuildOptions options;
  options.store_text = false;  // Serving needs postings, not snippets.
  std::vector<std::unique_ptr<ckr::InvertedIndex>> shards(num_shards);
  std::vector<double> add_s(num_shards), finalize_s(num_shards);
  ckr::ParallelFor(num_shards, static_cast<unsigned>(num_shards),
                   [&](size_t s) {
    const ckr::ShardRange range = ckr::ShardRangeOf(s, num_shards, docs.size());
    auto shard = std::make_unique<ckr::InvertedIndex>(options);
    const int64_t t0 = NowNanos();
    for (uint64_t d = range.begin; d < range.end; ++d) shard->Add(docs[d]);
    const int64_t t1 = NowNanos();
    shard->Finalize();
    const int64_t t2 = NowNanos();
    add_s[s] = SecondsBetween(t0, t1);
    finalize_s[s] = SecondsBetween(t1, t2);
    shards[s] = std::move(shard);
  });
  const int64_t t3 = NowNanos();
  auto sharded = ckr::ShardedIndex::FromShards(std::move(shards));
  if (!sharded.ok()) return sharded.status();
  const int64_t t4 = NowNanos();
  auto snapshot =
      std::make_unique<ckr::ServingSnapshot>(std::move(sharded).value());
  snapshot->evaluator = ckr::ChooseEvaluator(
      snapshot->index.MaxShardDocs(), snapshot->index.shard(0).has_block_index());
  if (times != nullptr) {
    *times = IndexBuildTimes{};
    for (size_t s = 0; s < num_shards; ++s) {
      times->add_s += add_s[s];
      times->finalize_s += finalize_s[s];
    }
    times->stats_merge_s = SecondsBetween(t3, t4);
  }
  return snapshot;
}

std::vector<std::string> MakeQueries(const ckr::World& world, uint64_t seed,
                                     size_t n) {
  ckr::LoadGenConfig config;
  config.seed = seed;
  ckr::LoadGenerator gen(world, config);
  std::vector<std::string> queries;
  queries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) queries.push_back(gen.Request(i).query);
  return queries;
}

uint64_t ResultsDigest(const std::vector<ckr::SearchResult>& results) {
  Fnv1a h;
  h.U64(results.size());
  for (const ckr::SearchResult& r : results) {
    h.U64(r.doc);
    h.F64(r.score);
  }
  return h.value();
}

WindowedRun RunWindowed(ckr::ServeDaemon& daemon,
                        const std::vector<std::string>& queries, size_t k,
                        const WindowConfig& config, SpanLog* spans) {
  WindowedRun run;
  auto slots = std::make_unique<Slot[]>(config.window);
  std::atomic<uint64_t> callbacks{0};
  std::atomic<uint64_t> stray{0};
  uint64_t next = config.first_index;
  const uint64_t limit = config.max_requests == 0
                             ? UINT64_MAX
                             : config.first_index + config.max_requests;
  run.start_nanos = NowNanos();
  const int64_t end_nanos =
      config.run_nanos == 0 ? INT64_MAX : run.start_nanos + config.run_nanos;

  auto submit = [&](Slot& slot) {
    slot.index = next++;
    slot.state.store(kInFlight, std::memory_order_relaxed);
    ServeRequest request;
    request.id = slot.index;
    request.query = queries[slot.index % queries.size()];
    request.k = k;
    request.done = [&slot, &callbacks, &stray](ServeResponse&& response) {
      const int64_t finish = NowNanos();
      callbacks.fetch_add(1, std::memory_order_relaxed);
      if (slot.state.load(std::memory_order_acquire) != kInFlight ||
          response.id != slot.index) {
        stray.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      slot.finish_nanos = finish;
      slot.response = std::move(response);
      slot.state.store(kDone, std::memory_order_release);
    };
    ++run.submitted;
    slot.submit_nanos = NowNanos();
    (void)daemon.Submit(std::move(request));  // Sheds answer via `done`.
  };
  auto more = [&] { return next < limit && NowNanos() < end_nanos; };

  size_t in_flight = 0;
  for (size_t s = 0; s < config.window && more(); ++s) {
    submit(slots[s]);
    ++in_flight;
  }
  int64_t last_progress = NowNanos();
  while (in_flight > 0) {
    bool progressed = false;
    for (size_t s = 0; s < config.window; ++s) {
      Slot& slot = slots[s];
      if (slot.state.load(std::memory_order_acquire) != kDone) continue;
      ServedRequest r;
      r.index = slot.index;
      r.submit_nanos = slot.submit_nanos;
      r.finish_nanos = slot.finish_nanos;
      r.queue_seconds = slot.response.queue_seconds;
      r.total_seconds = slot.response.total_seconds;
      r.outcome = slot.response.outcome;
      r.digest = ResultsDigest(slot.response.results);
      run.requests.push_back(r);
      slot.state.store(kFree, std::memory_order_relaxed);
      --in_flight;
      progressed = true;
      if (more()) {
        submit(slot);
        ++in_flight;
      }
      if (spans != nullptr) {
        const int64_t root = spans->Add("serve.request", r.submit_nanos,
                                        r.finish_nanos, -1, r.index);
        const int64_t picked =
            r.submit_nanos + static_cast<int64_t>(r.queue_seconds * 1e9);
        const int64_t done =
            r.submit_nanos + static_cast<int64_t>(r.total_seconds * 1e9);
        spans->Add("serve.queue_wait", r.submit_nanos, picked, root, r.index);
        spans->Add("serve.service", picked, done, root, r.index);
      }
    }
    if (progressed) {
      last_progress = NowNanos();
    } else {
      CpuRelax();
      if (NowNanos() - last_progress > kStuckNanos) {
        std::fprintf(stderr, "perfbench: request lost in the daemon\n");
        std::_Exit(3);
      }
    }
  }
  run.callbacks = callbacks.load(std::memory_order_relaxed);
  run.stray_callbacks = stray.load(std::memory_order_relaxed);
  return run;
}

size_t CountWrongAnswers(const ckr::ServingSnapshot& snapshot,
                         const std::vector<std::string>& queries, size_t k,
                         const std::vector<ServedRequest>& served,
                         unsigned threads) {
  std::unordered_map<std::string_view, uint64_t> oracle;
  for (const ServedRequest& r : served) {
    oracle.emplace(queries[r.index % queries.size()], 0);
  }
  std::vector<std::pair<const std::string_view, uint64_t>*> entries;
  for (auto& e : oracle) entries.push_back(&e);
  ckr::ParallelFor(entries.size(), threads, [&](size_t i) {
    entries[i]->second = ResultsDigest(snapshot.index.Search(
        entries[i]->first, k, {}, ckr::QueryEvaluator::kExhaustive));
  });
  size_t wrong = 0;
  for (const ServedRequest& r : served) {
    if (r.outcome != ServeOutcome::kOk ||
        r.digest != oracle.at(queries[r.index % queries.size()])) {
      ++wrong;
    }
  }
  return wrong;
}

bool OutputDigest(const std::vector<ServedRequest>& served, uint64_t first,
                  uint64_t count, uint64_t* digest) {
  std::vector<const ServedRequest*> by_index(count, nullptr);
  for (const ServedRequest& r : served) {
    if (r.index >= first && r.index < first + count) {
      by_index[r.index - first] = &r;
    }
  }
  Fnv1a h;
  for (const ServedRequest* r : by_index) {
    if (r == nullptr) return false;
    h.U64(r->digest);
  }
  *digest = h.value();
  return true;
}

DirectPassStats RunDirectPass(const ckr::ServingSnapshot& snapshot,
                              const std::vector<std::string>& queries,
                              size_t k, uint64_t first, uint64_t count,
                              SpanLog* spans) {
  DirectPassStats stats;
  const ckr::ShardedIndex& index = snapshot.index;
  std::vector<std::vector<ckr::SearchResult>> per_shard(index.NumShards());
  for (uint64_t i = first; i < first + count; ++i) {
    const std::string& query = queries[i % queries.size()];
    const int64_t t0 = NowNanos();
    ckr::ShardedIndex::PartialResult scatter = index.SearchWithDeadline(
        query, k, snapshot.evaluator, ckr::RealClock(), 0, 1);
    const int64_t t1 = NowNanos();
    const int64_t root = spans != nullptr
                             ? spans->Add("serve.direct_request", t0, t0, -1, i)
                             : -1;
    if (spans != nullptr) spans->Add("serve.scatter", t0, t1, root, i);

    const uint64_t postings0 = CounterValue("ckr.index.postings_scored");
    const uint64_t decoded0 = CounterValue("ckr.index.blocks_decoded");
    const uint64_t skipped0 = CounterValue("ckr.index.blocks_skipped");
    const uint64_t touched0 = CounterValue("ckr.index.search_docs_touched");
    for (size_t s = 0; s < index.NumShards(); ++s) {
      const int64_t a = NowNanos();
      per_shard[s] = index.shard(s).Search(query, k, {}, snapshot.evaluator);
      const int64_t b = NowNanos();
      stats.shard_search_us.push_back(static_cast<double>(b - a) / 1e3);
      if (spans != nullptr) spans->Add("index.shard_search", a, b, root, i);
    }
    stats.postings_scored += CounterValue("ckr.index.postings_scored") - postings0;
    stats.blocks_decoded += CounterValue("ckr.index.blocks_decoded") - decoded0;
    stats.blocks_skipped += CounterValue("ckr.index.blocks_skipped") - skipped0;
    stats.docs_touched += CounterValue("ckr.index.search_docs_touched") - touched0;

    const int64_t m0 = NowNanos();
    std::vector<ckr::SearchResult> merged = ckr::MergeShardTopK(per_shard, k);
    const int64_t m1 = NowNanos();
    if (spans != nullptr) {
      spans->Add("serve.merge", m0, m1, root, i);
      spans->SetEnd(root, m1);
    }
    stats.scatter_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    stats.merge_us.push_back(static_cast<double>(m1 - m0) / 1e3);
    if (!scatter.complete ||
        ResultsDigest(merged) != ResultsDigest(scatter.results)) {
      ++stats.mismatches;
    }
    ++stats.queries;
  }
  return stats;
}

}  // namespace perfbench
