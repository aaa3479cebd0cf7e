// ckr_perfbench — one run of one workload of the end-to-end benchmark.
//
//   ckr_perfbench --workload annotate|search|search_bigshard --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//                 [--commit ID] [--src-digest HEX]
//
// --trace 0 sets up the program several times (median set-up time),
// checks every output against a reference computed outside the timed
// phase, and reports the end-to-end metrics. --trace 1 is a separate run
// that times calls into each layer from outside and reports the
// per-layer metrics, the stage reconciliation and the tracing overhead.
// Human-readable lines come first; the last line is one JSON object.
// perfbench/README.md explains the workloads and the load-generator design.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "annotate_workload.h"
#include "bench_util.h"
#include "obs/metrics.h"
#include "search_workload.h"

#ifndef CKR_PERFBENCH_COMPILER
#define CKR_PERFBENCH_COMPILER "unknown"
#endif
#ifndef CKR_PERFBENCH_BUILD_TYPE
#define CKR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-up: thread count pinned (not "all hardware threads"), repeated so
// the reported set-up time is a median.
constexpr unsigned kSetupThreads = 4;
constexpr int kSetupRepeats = 3;

// annotate: two closed-loop clients over a pool of news documents; the
// warm-up is one full pass over the pool.
constexpr unsigned kAnnotateClients = 2;
constexpr size_t kAnnotateDocs = 2048;

// search*: one generator thread and two daemon workers.
constexpr size_t kSearchDocs = 100000;
constexpr uint64_t kCorpusSeed = 20090331;
constexpr unsigned kDaemonWorkers = 2;
// A window of workers + 1 keeps one request waiting, so a worker that
// finishes never sleeps on the queue, while at most one request queues
// behind a slow one (a window of 4 doubled the queueing and, on a shared
// host, the run-to-run spread of p99 and throughput).
constexpr size_t kWindow = kDaemonWorkers + 1;
constexpr size_t kTopK = 10;
constexpr uint64_t kSearchWarmup = 4096;
constexpr uint64_t kDirectQueries = 4096;

// The traced run's stage sums must account for the end-to-end time up to
// this share of it (median over requests).
constexpr double kReconcileTolerancePct = 5.0;

// Timed phases are summarized in rounds of about this length.
constexpr double kRoundSeconds = 0.5;

// Traced run: the stack a workload does not use is measured at paper
// scale with short phases, so every per-layer metric is a measurement.
constexpr size_t kPaperWebDocs = 6000;
constexpr double kSecondaryPhaseSeconds = 1.0;
// Untraced/traced sub-phase pairs per traced run (tracing overhead).
constexpr int kTraceAlternations = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything a run prints: metrics, attempt/failure counts and the
/// correctness verdict.
struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Fail(const char* what, uint64_t count) {
    if (count == 0) return;
    std::printf("CHECK FAILED: %s (%llu)\n", what,
                static_cast<unsigned long long>(count));
    correct = false;
  }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--src-digest") {
      args->src_digest = value;
    } else {
      return false;
    }
  }
  return (args->workload == "annotate" || args->workload == "search" ||
          args->workload == "search_bigshard") &&
         args->seconds > 0;
}

int64_t ToNanos(double seconds) {
  return static_cast<int64_t>(seconds * 1e9);
}

double Pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

std::vector<LatencySample> Samples(const ClosedLoopRun& run) {
  std::vector<LatencySample> samples;
  samples.reserve(run.docs.size());
  for (const AnnotatedDoc& d : run.docs) {
    samples.push_back(LatencySample{
        d.finish_nanos, static_cast<double>(d.finish_nanos - d.start_nanos) / 1e3});
  }
  return samples;
}

std::vector<LatencySample> Samples(const WindowedRun& run) {
  std::vector<LatencySample> samples;
  samples.reserve(run.requests.size());
  for (const ServedRequest& r : run.requests) {
    samples.push_back(LatencySample{
        r.finish_nanos,
        static_cast<double>(r.finish_nanos - r.submit_nanos) / 1e3});
  }
  return samples;
}

/// Splits a timed phase of `seconds` into rounds of about kRoundSeconds
/// and prints them.
template <typename Run>
std::vector<RoundStats> RoundsOf(const Run& run, double seconds) {
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / kRoundSeconds)));
  const std::vector<RoundStats> per_round =
      PerRound(Samples(run), run.start_nanos,
               ToNanos(seconds) / static_cast<int64_t>(rounds), rounds);
  for (const RoundStats& r : per_round) {
    std::printf("round: p50 %.1f us, p99 %.1f us, %.1f/s, %zu samples\n",
                r.p50_us, r.p99_us, r.throughput_per_s, r.samples);
  }
  return per_round;
}

/// A short phase taken whole as one round.
template <typename Run>
RoundStats WholePhase(const Run& run, double seconds) {
  return PerRound(Samples(run), run.start_nanos, ToNanos(seconds), 1)[0];
}

void PrintPhase(const char* label, const PhaseSummary& s) {
  std::printf(
      "%s: p50 %.1f us, p99 %.1f us, %.1f/s (medians over %zu rounds; "
      "%zu samples, >= %zu per round)\n",
      label, s.p50_us, s.p99_us, s.throughput_per_s, s.rounds, s.samples,
      s.min_round_samples);
}

void AddEndToEnd(Report* report, const std::vector<double>& setup_s,
                 const PhaseSummary& s) {
  const double fail_rate =
      report->attempted == 0
          ? 1.0
          : static_cast<double>(report->failed) /
                static_cast<double>(report->attempted);
  std::printf("setup_s samples:");
  for (double t : setup_s) std::printf(" %.3f", t);
  std::printf("\nfail_rate %.6f (%llu of %llu attempted)\n", fail_rate,
              static_cast<unsigned long long>(report->failed),
              static_cast<unsigned long long>(report->attempted));
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("rss_mb", PeakRssMb(), "MiB");
  report->Add("latency_p50_us", s.p50_us, "us");
  report->Add("latency_p99_us", s.p99_us, "us");
  report->Add("throughput_per_s", s.throughput_per_s, "1/s");
  report->Add("success_rate", 1.0 - fail_rate, "ratio");
}

// ---------------------------------------------------------------- annotate

void RunAnnotateTimed(const Args& args, Report* report) {
  const ckr::PipelineConfig pipeline;  // Paper scale.
  const std::vector<std::string> docs =
      MakeNewsDocs(pipeline.world, args.seed, kAnnotateDocs);
  size_t bytes = 0;
  for (const std::string& d : docs) bytes += d.size();
  std::printf("inputs: %zu news documents, %.0f bytes on average\n",
              docs.size(), static_cast<double>(bytes) / static_cast<double>(docs.size()));

  // Each set-up is followed by its own warm-up and share of the timed
  // phase, so the rounds span the whole process lifetime.
  const double sub_seconds = args.seconds / kSetupRepeats;
  std::vector<double> setup_s;
  std::vector<RoundStats> rounds;
  std::vector<uint64_t> reference;
  uint64_t next_index = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNanos();
    auto trained = ckr::ContextualRanker::Train(
        PinnedRankerOptions(pipeline, kSetupThreads));
    setup_s.push_back(SecondsBetween(t0, NowNanos()));
    CKR_CHECK(trained.ok());
    const ckr::RuntimeRanker& runtime = (*trained)->runtime();
    // Every set-up must deploy the same runtime: all outputs are checked
    // against the first one's sequential pass.
    if (rep == 0) reference = SequentialDigests(runtime, docs);

    ClosedLoopConfig config;
    config.clients = kAnnotateClients;
    config.first_index = next_index;
    config.max_requests = kAnnotateDocs;
    const ClosedLoopRun warmup = RunClosedLoop(runtime, docs, config);
    config.first_index += warmup.docs.size();
    config.max_requests = 0;
    config.run_nanos = ToNanos(sub_seconds);
    const ClosedLoopRun run = RunClosedLoop(runtime, docs, config);
    next_index = config.first_index + run.docs.size();

    const std::vector<RoundStats> sub = RoundsOf(run, sub_seconds);
    rounds.insert(rounds.end(), sub.begin(), sub.end());
    const uint64_t wrong = CountWrongAnnotations(warmup.docs, reference) +
                           CountWrongAnnotations(run.docs, reference);
    report->attempted += warmup.docs.size() + run.docs.size();
    report->failed += wrong;
    report->Fail("annotations differ from the sequential pass", wrong);
    if (rep == 0) {
      uint64_t digest = 0;
      report->Fail("warm-up missed a document",
                   AnnotateOutputDigest(warmup.docs, kAnnotateDocs, &digest) ? 0 : 1);
      std::printf("output digest (fnv1a, %zu docs, seed %llu): %016llx\n",
                  kAnnotateDocs, static_cast<unsigned long long>(args.seed),
                  static_cast<unsigned long long>(digest));
    }
  }
  const PhaseSummary s = Summarize(rounds);
  PrintPhase("annotate closed loop", s);
  AddEndToEnd(report, setup_s, s);
}

/// The annotate stack, traced. `phase_seconds` for each of the untraced
/// and traced phases. Returns the traced-minus-untraced p50 share.
double TraceAnnotate(const Args& args, double phase_seconds, Report* report,
                     SpanLog* spans) {
  const ckr::PipelineConfig pipeline;
  const std::vector<std::string> docs =
      MakeNewsDocs(pipeline.world, args.seed, kAnnotateDocs);
  RankerSetupTimes times;
  auto stepwise =
      BuildStepwiseRanker(PinnedRankerOptions(pipeline, kSetupThreads), &times);
  CKR_CHECK(stepwise.ok());
  const StepwiseRanker& r = **stepwise;
  const std::vector<uint64_t> reference = SequentialDigests(*r.runtime, docs);

  ClosedLoopConfig config;
  config.clients = kAnnotateClients;
  config.max_requests = kAnnotateDocs;
  const ClosedLoopRun warmup = RunClosedLoop(*r.runtime, docs, config);
  uint64_t attempted = warmup.docs.size();
  uint64_t wrong = CountWrongAnnotations(warmup.docs, reference);
  // Untraced and traced sub-phases alternate, so host drift hits both.
  config.max_requests = 0;
  config.run_nanos = ToNanos(phase_seconds / kTraceAlternations);
  config.first_index = kAnnotateDocs;
  std::vector<RoundStats> off_rounds, on_rounds;
  SpanLog traced_spans;
  ckr::RuntimeStats st;
  for (int a = 0; a < 2 * kTraceAlternations; ++a) {
    config.trace = a % 2 == 1;
    const ClosedLoopRun run = RunClosedLoop(*r.runtime, docs, config);
    config.first_index += run.docs.size();
    attempted += run.docs.size();
    wrong += CountWrongAnnotations(run.docs, reference);
    (config.trace ? on_rounds : off_rounds)
        .push_back(WholePhase(run, phase_seconds / kTraceAlternations));
    traced_spans.Absorb(run.spans);
    st.Merge(run.stats);
  }
  const StageProbe probe = RunStageProbe(r.pipeline->detector(), r.tids, docs, spans);
  spans->Absorb(traced_spans);
  report->attempted += attempted;
  report->failed += wrong;
  report->Fail("annotations differ from the sequential pass", wrong);

  const PhaseSummary off = Summarize(off_rounds);
  const PhaseSummary on = Summarize(on_rounds);
  PrintPhase("annotate untraced", off);
  PrintPhase("annotate traced", on);

  // Reconciliation: stem + match + score (the runtime's own stage clock)
  // against the ProcessDocument call timed from outside.
  std::vector<double> unaccounted;
  const std::vector<Span>& all = traced_spans.spans();
  const std::vector<double> self = traced_spans.SelfSeconds();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) continue;
    const double total = SecondsBetween(all[i].start, all[i].end);
    unaccounted.push_back(Pct(self[i], total));
  }
  const double unaccounted_pct = Median(unaccounted);
  std::printf(
      "reconcile annotate: stem+match+score leave %.2f%% of ProcessDocument "
      "unaccounted (median over %zu docs; tolerance %.1f%%): %s\n",
      unaccounted_pct, unaccounted.size(), kReconcileTolerancePct,
      std::fabs(unaccounted_pct) <= kReconcileTolerancePct ? "within" : "OUTSIDE");

  const double n = static_cast<double>(st.documents);
  report->Add("text.stem_us", Median(probe.stem_us), "us");
  report->Add("text.stem_runtime_us", 1e6 * st.stemmer_seconds / n, "us");
  report->Add("text.stem_mb_per_s",
              static_cast<double>(probe.bytes) / 1e6 / probe.stem_seconds, "MB/s");
  report->Add("detect.match_us", Median(probe.match_us), "us");
  report->Add("detect.match_runtime_us", 1e6 * st.match_seconds / n, "us");
  report->Add("framework.score_us", 1e6 * st.score_seconds / n, "us");
  report->Add("framework.rank_mb_per_s", st.RankerMBps(), "MB/s");
  report->Add("detect.detections_per_doc", static_cast<double>(st.detections) / n,
              "count");
  report->Add("detect.sig_doc_reject_ratio",
              probe.sig_docs_tested == 0
                  ? 0.0
                  : static_cast<double>(probe.sig_docs_rejected) /
                        static_cast<double>(probe.sig_docs_tested),
              "ratio");
  report->Add("detect.sig_window_reject_ratio",
              probe.sig_windows_tested == 0
                  ? 0.0
                  : static_cast<double>(probe.sig_windows_rejected) /
                        static_cast<double>(probe.sig_windows_tested),
              "ratio");
  report->Add("framework.store_mb", r.StoreMb(), "MB");
  report->Add("core.pipeline_build_s", times.pipeline_build_s, "s");
  report->Add("core.dataset_build_s", times.dataset_build_s, "s");
  report->Add("ranksvm.train_s", times.train_s, "s");
  report->Add("framework.store_build_s", times.store_build_s, "s");
  report->Add("trace.annotate_unaccounted_pct", unaccounted_pct, "%");
  return Pct(on.p50_us - off.p50_us, off.p50_us);
}

// ------------------------------------------------------------------ search

size_t ShardsFor(const std::string& workload) {
  return workload == "search_bigshard" ? 1 : 4;
}

/// Every request of a daemon's lifetime, over one or more windowed runs.
struct SearchTally {
  std::vector<ServedRequest> served;
  uint64_t submitted = 0;
  uint64_t callbacks = 0;
  uint64_t stray = 0;

  void Absorb(const WindowedRun& run) {
    served.insert(served.end(), run.requests.begin(), run.requests.end());
    submitted += run.submitted;
    callbacks += run.callbacks;
    stray += run.stray_callbacks;
  }
};

/// The correctness gate and the daemon accounting check, after Stop():
/// every response must equal the exhaustive search, every Submit must
/// have had exactly one callback, and the run's registry must satisfy
/// admitted == completed + partial + shed_deadline + no_snapshot.
void CheckSearch(const ckr::ServingSnapshot& snapshot,
                 const std::vector<std::string>& queries,
                 ckr::obs::MetricRegistry& registry, const SearchTally& tally,
                 Report* report) {
  const size_t wrong = CountWrongAnswers(snapshot, queries, kTopK, tally.served,
                                         kSetupThreads);
  const uint64_t lost = tally.submitted - tally.served.size();
  report->attempted += tally.submitted;
  report->failed += wrong + lost;
  report->Fail("responses differ from the exhaustive search or failed", wrong);
  report->Fail("requests lost", lost);

  auto counter = [&](const char* name) {
    return registry.GetCounter(name)->Value();
  };
  const uint64_t admitted = counter("ckr.serve.admitted");
  const uint64_t accounted = counter("ckr.serve.completed") +
                             counter("ckr.serve.partial") +
                             counter("ckr.serve.shed_deadline") +
                             counter("ckr.serve.no_snapshot");
  std::printf("accounting: admitted %llu = completed+partial+shed_deadline+"
              "no_snapshot %llu; callbacks %llu for %llu submits, %llu stray\n",
              static_cast<unsigned long long>(admitted),
              static_cast<unsigned long long>(accounted),
              static_cast<unsigned long long>(tally.callbacks),
              static_cast<unsigned long long>(tally.submitted),
              static_cast<unsigned long long>(tally.stray));
  report->Fail("admitted != completed + partial + shed_deadline + no_snapshot",
               admitted == accounted ? 0 : 1);
  report->Fail("callbacks != submits", tally.callbacks == tally.submitted ? 0 : 1);
  report->Fail("stray callbacks", tally.stray);
}

void RunSearchTimed(const Args& args, Report* report) {
  const size_t shards = ShardsFor(args.workload);
  auto corpus = GenerateSearchCorpus(kSearchDocs, kCorpusSeed, kSetupThreads);
  CKR_CHECK(corpus.ok());
  const size_t pool = static_cast<size_t>(args.seconds + 2.0) * 15000;
  const std::vector<std::string> queries =
      MakeQueries(*corpus->world, args.seed, pool);

  // Each set-up is followed by its own daemon, warm-up and share of the
  // timed phase, so the rounds span the whole process lifetime.
  const double sub_seconds = args.seconds / kSetupRepeats;
  std::vector<double> setup_s;
  std::vector<RoundStats> rounds;
  uint64_t next_index = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNanos();
    auto built = BuildSnapshot(corpus->docs, shards, nullptr);
    setup_s.push_back(SecondsBetween(t0, NowNanos()));
    CKR_CHECK(built.ok());
    const ckr::ServingSnapshot& snap = **built;
    if (rep == 0) {
      std::printf("index: %zu docs in %zu shard(s), %llu docs per shard, "
                  "evaluator %s\n",
                  kSearchDocs, shards,
                  static_cast<unsigned long long>(snap.index.MaxShardDocs()),
                  snap.evaluator == ckr::QueryEvaluator::kMaxScore ? "maxscore"
                                                                   : "exhaustive");
    }

    ckr::obs::MetricRegistry registry;
    ckr::ServeDaemonConfig config;
    config.num_workers = kDaemonWorkers;
    config.metrics = &registry;
    ckr::ServeDaemon daemon(config);
    daemon.Publish(std::move(*built));  // `snap` lives as long as `daemon`.
    CKR_CHECK(daemon.Start().ok());
    WindowConfig window;
    window.window = kWindow;
    window.first_index = next_index;
    window.max_requests = kSearchWarmup;
    const WindowedRun warmup = RunWindowed(daemon, queries, kTopK, window);
    window.first_index += warmup.submitted;
    window.max_requests = 0;
    window.run_nanos = ToNanos(sub_seconds);
    const WindowedRun run = RunWindowed(daemon, queries, kTopK, window);
    next_index = window.first_index + run.submitted;
    daemon.Stop();

    const std::vector<RoundStats> sub = RoundsOf(run, sub_seconds);
    rounds.insert(rounds.end(), sub.begin(), sub.end());
    SearchTally tally;
    tally.Absorb(warmup);
    tally.Absorb(run);
    CheckSearch(snap, queries, registry, tally, report);
    if (rep == 0) {
      uint64_t digest = 0;
      report->Fail("warm-up missed a request",
                   OutputDigest(warmup.requests, 0, kSearchWarmup, &digest) ? 0 : 1);
      std::printf("output digest (fnv1a, %llu requests, seed %llu): %016llx\n",
                  static_cast<unsigned long long>(kSearchWarmup),
                  static_cast<unsigned long long>(args.seed),
                  static_cast<unsigned long long>(digest));
    }
  }
  const PhaseSummary s = Summarize(rounds);
  PrintPhase("search windowed", s);
  AddEndToEnd(report, setup_s, s);
}

/// The search stack over `num_docs` docs in `shards` shards, traced.
/// Returns the traced-minus-untraced p50 share.
double TraceSearch(const Args& args, size_t num_docs, size_t shards,
                   double phase_seconds, Report* report, SpanLog* spans) {
  const int64_t g0 = NowNanos();
  auto corpus = GenerateSearchCorpus(num_docs, kCorpusSeed, kSetupThreads);
  CKR_CHECK(corpus.ok());
  const double generate_s = SecondsBetween(g0, NowNanos());
  const size_t pool = static_cast<size_t>(2.0 * phase_seconds + 2.0) * 15000;
  const std::vector<std::string> queries =
      MakeQueries(*corpus->world, args.seed, pool);
  IndexBuildTimes times;
  auto built = BuildSnapshot(corpus->docs, shards, &times);
  CKR_CHECK(built.ok());
  const ckr::ServingSnapshot& snap = **built;
  double index_bytes = 0.0, block_bytes = 0.0;
  for (size_t s = 0; s < snap.index.NumShards(); ++s) {
    index_bytes += static_cast<double>(snap.index.shard(s).MemoryBytes());
    block_bytes += static_cast<double>(snap.index.shard(s).block_index().MemoryBytes());
  }

  ckr::obs::MetricRegistry registry;
  ckr::ServeDaemonConfig config;
  config.num_workers = kDaemonWorkers;
  config.metrics = &registry;
  ckr::ServeDaemon daemon(config);
  daemon.Publish(std::move(*built));
  CKR_CHECK(daemon.Start().ok());
  WindowConfig window;
  window.window = kWindow;
  window.max_requests = kSearchWarmup;
  const WindowedRun warmup = RunWindowed(daemon, queries, kTopK, window);
  SearchTally tally;
  tally.Absorb(warmup);
  std::vector<ServedRequest> traced;
  // Untraced and traced sub-phases alternate, so host drift hits both.
  window.max_requests = 0;
  window.run_nanos = ToNanos(phase_seconds / kTraceAlternations);
  window.first_index = kSearchWarmup;
  std::vector<RoundStats> off_rounds, on_rounds;
  for (int a = 0; a < 2 * kTraceAlternations; ++a) {
    const bool trace = a % 2 == 1;
    const WindowedRun run =
        RunWindowed(daemon, queries, kTopK, window, trace ? spans : nullptr);
    window.first_index += run.submitted;
    tally.Absorb(run);
    if (trace) traced.insert(traced.end(), run.requests.begin(), run.requests.end());
    (trace ? on_rounds : off_rounds)
        .push_back(WholePhase(run, phase_seconds / kTraceAlternations));
  }
  daemon.Stop();
  CheckSearch(snap, queries, registry, tally, report);
  const DirectPassStats direct =
      RunDirectPass(snap, queries, kTopK, 0, kDirectQueries, spans);
  report->failed += direct.mismatches;
  report->Fail("merged shard lists differ from the scatter", direct.mismatches);

  const PhaseSummary off = Summarize(off_rounds);
  const PhaseSummary on = Summarize(on_rounds);
  PrintPhase("search untraced", off);
  PrintPhase("search traced", on);

  std::vector<double> queue_us, service_us, unaccounted;
  for (const ServedRequest& r : traced) {
    const double e2e = static_cast<double>(r.finish_nanos - r.submit_nanos) / 1e3;
    queue_us.push_back(r.queue_seconds * 1e6);
    service_us.push_back((r.total_seconds - r.queue_seconds) * 1e6);
    unaccounted.push_back(Pct(e2e - r.total_seconds * 1e6, e2e));
  }
  const double unaccounted_pct = Median(unaccounted);
  std::printf(
      "reconcile search (%zu docs, %zu shards): queue wait + service leave "
      "%.2f%% of Submit-to-callback unaccounted (median over %zu requests; "
      "tolerance %.1f%%): %s\n",
      num_docs, shards, unaccounted_pct, unaccounted.size(),
      kReconcileTolerancePct,
      std::fabs(unaccounted_pct) <= kReconcileTolerancePct ? "within" : "OUTSIDE");

  auto counter = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name)->Value());
  };
  const double q = static_cast<double>(direct.queries);
  const double service_p50 = Median(service_us);
  const double scatter_p50 = Median(direct.scatter_us);
  report->Add("serve.queue_wait_p50_us", ExactPercentile(queue_us, 0.5), "us");
  report->Add("serve.queue_wait_p99_us", ExactPercentile(queue_us, 0.99), "us");
  report->Add("serve.service_us", service_p50, "us");
  report->Add("serve.scatter_us", scatter_p50, "us");
  report->Add("serve.handoff_us", service_p50 - scatter_p50, "us");
  report->Add("serve.merge_us", Median(direct.merge_us), "us");
  report->Add("index.shard_search_p50_us",
              ExactPercentile(direct.shard_search_us, 0.5), "us");
  report->Add("index.shard_search_p99_us",
              ExactPercentile(direct.shard_search_us, 0.99), "us");
  report->Add("index.postings_scored_per_query",
              static_cast<double>(direct.postings_scored) / q, "count");
  report->Add("index.blocks_decoded_per_query",
              static_cast<double>(direct.blocks_decoded) / q, "count");
  const uint64_t blocks = direct.blocks_decoded + direct.blocks_skipped;
  report->Add("index.blocks_skipped_ratio",
              blocks == 0 ? 0.0
                          : static_cast<double>(direct.blocks_skipped) /
                                static_cast<double>(blocks),
              "ratio");
  report->Add("index.docs_touched_per_query",
              static_cast<double>(direct.docs_touched) / q, "count");
  report->Add("index.memory_mb", index_bytes / 1e6, "MB");
  report->Add("index.block_index_mb", block_bytes / 1e6, "MB");
  report->Add("corpus.generate_s", generate_s, "s");
  report->Add("index.add_s", times.add_s, "s");
  report->Add("index.finalize_s", times.finalize_s, "s");
  report->Add("serve.stats_merge_s", times.stats_merge_s, "s");
  report->Add("serve.admitted", counter("ckr.serve.admitted"), "count");
  report->Add("serve.completed", counter("ckr.serve.completed"), "count");
  report->Add("serve.shed",
              counter("ckr.serve.shed_queue_full") + counter("ckr.serve.shed_deadline"),
              "count");
  report->Add("trace.search_unaccounted_pct", unaccounted_pct, "%");
  return Pct(on.p50_us - off.p50_us, off.p50_us);
}

void RunTraced(const Args& args, Report* report) {
  SpanLog spans;
  const double phase = args.seconds / 2.0;
  double overhead_pct = 0.0;
  if (args.workload == "annotate") {
    overhead_pct = TraceAnnotate(args, phase, report, &spans);
    (void)TraceSearch(args, kPaperWebDocs, 1, kSecondaryPhaseSeconds, report, &spans);
  } else {
    overhead_pct = TraceSearch(args, kSearchDocs, ShardsFor(args.workload),
                               phase, report, &spans);
    (void)TraceAnnotate(args, kSecondaryPhaseSeconds, report, &spans);
  }
  std::printf("tracing overhead on %s: traced p50 is %+.2f%% of untraced\n",
              args.workload.c_str(), overhead_pct);
  report->Add("trace.overhead_pct", overhead_pct, "%");

  // Self time per span name.
  const std::vector<Span>& all = spans.spans();
  const std::vector<double> self = spans.SelfSeconds();
  std::vector<std::string> names;
  for (const Span& s : all) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
  }
  for (const std::string& name : names) {
    std::vector<double> us;
    for (size_t i = 0; i < all.size(); ++i) {
      if (name == all[i].name) us.push_back(self[i] * 1e6);
    }
    std::printf("self time %-28s n=%-8zu p50 %9.2f us  p99 %9.2f us\n",
                name.c_str(), us.size(), ExactPercentile(us, 0.5),
                ExactPercentile(us, 0.99));
  }
  if (!args.trace_out.empty()) {
    if (spans.WriteJsonl(args.trace_out)) {
      std::printf("spans: %zu written to %s\n", all.size(), args.trace_out.c_str());
    } else {
      report->Fail("could not write the span file", 1);
    }
  }
}

void PrintStamp(const Args& args) {
  std::printf(
      "stamp: workload=%s seed=%llu seconds=%g trace=%d nproc=%u compiler=\"%s\" "
      "build_type=%s commit=%s src_digest=%s setup_threads=%u setup_repeats=%d ",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      CKR_PERFBENCH_COMPILER, CKR_PERFBENCH_BUILD_TYPE, args.commit.c_str(),
      args.src_digest.c_str(), kSetupThreads, kSetupRepeats);
  if (args.workload == "annotate") {
    std::printf("load=closed_loop clients=%u doc_pool=%zu warmup_docs=%zu\n",
                kAnnotateClients, kAnnotateDocs, kAnnotateDocs);
  } else {
    std::printf("load=windowed generator_threads=1 daemon_workers=%u "
                "window=%zu top_k=%zu docs=%zu shards=%zu warmup_requests=%llu\n",
                kDaemonWorkers, kWindow, kTopK, kSearchDocs,
                ShardsFor(args.workload),
                static_cast<unsigned long long>(kSearchWarmup));
  }
}

void PrintResult(const Report& report) {
  for (const Metric& m : report.metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ckr_perfbench --workload annotate|search|search_bigshard "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  PrintStamp(args);
  Report report;
  if (args.trace) {
    RunTraced(args, &report);
  } else if (args.workload == "annotate") {
    RunAnnotateTimed(args, &report);
  } else {
    RunSearchTimed(args, &report);
  }
  if (report.attempted == 0) report.Fail("nothing attempted", 1);
  std::fflush(stdout);
  PrintResult(report);
  return report.correct ? 0 : 1;
}
