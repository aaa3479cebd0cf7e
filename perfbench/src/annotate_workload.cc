#include "annotate_workload.h"

#include <atomic>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/epoch_set.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "core/experiment.h"
#include "corpus/doc_generator.h"
#include "obs/metrics.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace perfbench {
namespace {

uint64_t CounterValue(const char* name) {
  return ckr::obs::MetricRegistry::Global().GetCounter(name)->Value();
}

}  // namespace

std::vector<std::string> MakeNewsDocs(const ckr::WorldConfig& world_config,
                                      uint64_t seed, size_t count) {
  auto world = ckr::World::Create(world_config);
  CKR_CHECK(world.ok());
  ckr::DocGenerator gen(**world);
  const uint64_t base = 1'000'000 + ckr::Mix64(seed) % 1'000'000'000;
  std::vector<std::string> docs;
  docs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    docs.push_back(gen.Generate(ckr::Document::Kind::kNews,
                                static_cast<ckr::DocId>(base + i))
                       .text);
  }
  return docs;
}

ckr::ContextualRankerOptions PinnedRankerOptions(
    const ckr::PipelineConfig& pipeline, unsigned threads) {
  ckr::ContextualRankerOptions options;
  options.pipeline = pipeline;
  options.dataset.num_threads = threads;
  options.svm.num_threads = threads;
  return options;
}

double StepwiseRanker::StoreMb() const {
  return static_cast<double>(interestingness.PayloadBytes() +
                             relevance->PayloadBytes()) /
         1e6;
}

ckr::StatusOr<std::unique_ptr<StepwiseRanker>> BuildStepwiseRanker(
    const ckr::ContextualRankerOptions& options, RankerSetupTimes* times) {
  auto r = std::make_unique<StepwiseRanker>();
  const int64_t t0 = NowNanos();
  auto pipeline = ckr::Pipeline::Build(options.pipeline);
  if (!pipeline.ok()) return pipeline.status();
  r->pipeline = std::move(*pipeline);
  const ckr::Pipeline& p = *r->pipeline;
  const int64_t t1 = NowNanos();
  auto dataset = ckr::DatasetBuilder(p, options.dataset).Build();
  if (!dataset.ok()) return dataset.status();
  r->dataset = std::move(*dataset);
  const int64_t t2 = NowNanos();

  // The deployed model spec of ContextualRanker::Train.
  ckr::ModelSpec spec;
  spec.group_mask = ckr::kAllFeatureGroups;
  spec.use_interestingness = true;
  spec.include_relevance = true;
  spec.relevance_resource = options.relevance_resource;
  spec.tie_break_relevance = true;
  spec.svm = options.svm;
  auto model = ckr::ExperimentRunner(r->dataset).TrainFullModel(spec);
  if (!model.ok()) return model.status();
  const int64_t t3 = NowNanos();

  // Store population, as ContextualRanker::Train does it: every
  // dictionary entity plus every multi-term unit the detector can emit.
  std::vector<std::pair<std::string, ckr::EntityType>> candidates;
  for (const ckr::Entity& e : p.world().entities()) {
    if (e.in_dictionary) candidates.emplace_back(e.key, e.type);
  }
  for (const ckr::UnitInfo* u : p.units().MultiTermUnits()) {
    ckr::EntityId id = p.world().FindByKey(u->phrase);
    if (id != ckr::kInvalidEntity && p.world().entity(id).in_dictionary) {
      continue;
    }
    candidates.emplace_back(u->phrase, ckr::EntityType::kConcept);
  }
  r->relevance = std::make_unique<ckr::PackedRelevanceStore>(&r->tids);
  std::vector<ckr::InterestingnessVector> ivecs(candidates.size());
  std::vector<std::vector<ckr::RelevantTerm>> mined(candidates.size());
  ckr::ParallelFor(candidates.size(), options.dataset.num_threads,
                   [&](size_t i) {
    const auto& [key, type] = candidates[i];
    ivecs[i] = p.interestingness().Extract(key, type);
    mined[i] = p.relevance_miner().Mine(key, options.relevance_resource,
                                        options.dataset.relevance_terms);
  });
  for (size_t i = 0; i < candidates.size(); ++i) {
    r->interestingness.Add(candidates[i].first, ivecs[i]);
    r->relevance->Add(candidates[i].first, std::move(mined[i]));
  }
  r->interestingness.Finalize();
  r->relevance->Finalize();
  r->runtime = std::make_unique<ckr::RuntimeRanker>(
      p.detector(), r->interestingness, *r->relevance, r->tids,
      std::move(*model));
  const int64_t t4 = NowNanos();
  if (times != nullptr) {
    times->pipeline_build_s = SecondsBetween(t0, t1);
    times->dataset_build_s = SecondsBetween(t1, t2);
    times->train_s = SecondsBetween(t2, t3);
    times->store_build_s = SecondsBetween(t3, t4);
  }
  return r;
}

uint64_t AnnotationDigest(const std::vector<ckr::RankedAnnotation>& ranked) {
  Fnv1a h;
  h.U64(ranked.size());
  for (const ckr::RankedAnnotation& a : ranked) {
    h.Str(a.key);
    h.U64(a.begin);
    h.U64(a.end);
    h.U64(static_cast<uint64_t>(a.type));
    h.F64(a.score);
  }
  return h.value();
}

std::vector<uint64_t> SequentialDigests(const ckr::RuntimeRanker& ranker,
                                        const std::vector<std::string>& docs) {
  ckr::RankerScratch scratch;
  std::vector<uint64_t> digests;
  digests.reserve(docs.size());
  for (const std::string& doc : docs) {
    digests.push_back(
        AnnotationDigest(ranker.ProcessDocument(doc, &scratch, nullptr)));
  }
  return digests;
}

ClosedLoopRun RunClosedLoop(const ckr::RuntimeRanker& ranker,
                            const std::vector<std::string>& docs,
                            const ClosedLoopConfig& config) {
  ClosedLoopRun run;
  std::atomic<uint64_t> next{config.first_index};
  const uint64_t limit = config.max_requests == 0
                             ? UINT64_MAX
                             : config.first_index + config.max_requests;
  run.start_nanos = NowNanos();
  const int64_t end_nanos =
      config.run_nanos == 0 ? INT64_MAX : run.start_nanos + config.run_nanos;

  struct ClientState {
    std::vector<AnnotatedDoc> done;
    ckr::RuntimeStats stats;
    SpanLog spans;
  };
  std::vector<ClientState> clients(config.clients);
  auto client = [&](ClientState& state) {
    ckr::RankerScratch scratch;
    while (NowNanos() < end_nanos) {
      const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= limit) break;
      const std::string& doc = docs[i % docs.size()];
      ckr::RuntimeStats stats;
      const int64_t start = NowNanos();
      std::vector<ckr::RankedAnnotation> ranked = ranker.ProcessDocument(
          doc, &scratch, config.trace ? &stats : nullptr);
      const int64_t finish = NowNanos();
      state.done.push_back(
          AnnotatedDoc{i, start, finish, AnnotationDigest(ranked)});
      if (config.trace) {
        // RuntimeStats reports stage durations, not start times: the
        // stages run back to back, so lay them out from the call start.
        const int64_t root = state.spans.Add("framework.process_document",
                                             start, finish, -1, i);
        int64_t at = start;
        const std::pair<const char*, double> stages[] = {
            {"runtime.stem", stats.stemmer_seconds},
            {"runtime.match", stats.match_seconds},
            {"runtime.score", stats.score_seconds}};
        for (const auto& [name, seconds] : stages) {
          const int64_t end = at + static_cast<int64_t>(seconds * 1e9);
          state.spans.Add(name, at, end, root, i);
          at = end;
        }
        state.stats.Merge(stats);
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 1; c < config.clients; ++c) {
    threads.emplace_back(client, std::ref(clients[c]));
  }
  client(clients[0]);
  for (std::thread& t : threads) t.join();
  for (ClientState& state : clients) {
    run.docs.insert(run.docs.end(), state.done.begin(), state.done.end());
    run.stats.Merge(state.stats);
    run.spans.Absorb(state.spans);
  }
  return run;
}

size_t CountWrongAnnotations(const std::vector<AnnotatedDoc>& done,
                             const std::vector<uint64_t>& reference) {
  size_t wrong = 0;
  for (const AnnotatedDoc& d : done) {
    if (d.digest != reference[d.index % reference.size()]) ++wrong;
  }
  return wrong;
}

bool AnnotateOutputDigest(const std::vector<AnnotatedDoc>& done,
                          uint64_t count, uint64_t* digest) {
  std::vector<const AnnotatedDoc*> by_index(count, nullptr);
  for (const AnnotatedDoc& d : done) {
    if (d.index < count) by_index[d.index] = &d;
  }
  Fnv1a h;
  for (const AnnotatedDoc* d : by_index) {
    if (d == nullptr) return false;
    h.U64(d->digest);
  }
  *digest = h.value();
  return true;
}

StageProbe RunStageProbe(const ckr::EntityDetector& detector,
                         const ckr::GlobalTidTable& tids,
                         const std::vector<std::string>& docs, SpanLog* spans) {
  StageProbe probe;
  ckr::RankerScratch scratch;
  const uint64_t docs0 = CounterValue("ckr.sig.docs_tested");
  const uint64_t docs_rej0 = CounterValue("ckr.sig.docs_rejected");
  const uint64_t win0 = CounterValue("ckr.sig.windows_tested");
  const uint64_t win_rej0 = CounterValue("ckr.sig.windows_rejected");
  for (size_t i = 0; i < docs.size(); ++i) {
    const std::string& doc = docs[i];
    const int64_t t0 = NowNanos();
    ckr::TokenizeInto(doc, &scratch.detect.tokens);
    scratch.context.Reset(tids.size());
    for (const ckr::Token& tok : scratch.detect.tokens) {
      if (ckr::IsStopWord(tok.text)) continue;
      ckr::PorterStemInto(tok.text, &scratch.stem_buf);
      const uint32_t tid = tids.Lookup(scratch.stem_buf);
      if (tid != ckr::GlobalTidTable::kMaxTid) scratch.context.Insert(tid);
    }
    const int64_t t1 = NowNanos();
    (void)detector.DetectRawPreTokenized(doc, &scratch.detect);
    const int64_t t2 = NowNanos();
    probe.stem_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    probe.match_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    probe.stem_seconds += SecondsBetween(t0, t1);
    probe.bytes += doc.size();
    if (spans != nullptr) {
      const int64_t root = spans->Add("annotate.stage_probe", t0, t2, -1, i);
      spans->Add("text.stem", t0, t1, root, i);
      spans->Add("detect.match", t1, t2, root, i);
    }
  }
  probe.sig_docs_tested = CounterValue("ckr.sig.docs_tested") - docs0;
  probe.sig_docs_rejected = CounterValue("ckr.sig.docs_rejected") - docs_rej0;
  probe.sig_windows_tested = CounterValue("ckr.sig.windows_tested") - win0;
  probe.sig_windows_rejected =
      CounterValue("ckr.sig.windows_rejected") - win_rej0;
  return probe;
}

}  // namespace perfbench
