// The `annotate` workload: news documents through the §VI runtime
// (RuntimeRanker::ProcessDocument), driven by closed-loop client threads
// that each own a RankerScratch.
#ifndef PERFBENCH_ANNOTATE_WORKLOAD_H_
#define PERFBENCH_ANNOTATE_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/status.h"
#include "core/contextual_ranker.h"
#include "framework/runtime_ranker.h"

namespace perfbench {

/// News documents with ids drawn from `seed`: `count` consecutive ids
/// from a seed-chosen base far above the training corpus ids.
std::vector<std::string> MakeNewsDocs(const ckr::WorldConfig& world_config,
                                      uint64_t seed, size_t count);

/// Training options with every set-up thread count pinned to `threads`.
ckr::ContextualRankerOptions PinnedRankerOptions(
    const ckr::PipelineConfig& pipeline, unsigned threads);

/// Durations of the public set-up calls of ContextualRanker::Train.
struct RankerSetupTimes {
  double pipeline_build_s = 0.0;  ///< Pipeline::Build
  double dataset_build_s = 0.0;   ///< DatasetBuilder::Build
  double train_s = 0.0;           ///< ExperimentRunner::TrainFullModel
  double store_build_s = 0.0;     ///< Store extraction, Add and Finalize
};

/// The runtime ContextualRanker::Train deploys, rebuilt step by step
/// through the same public calls so each step can be timed.
struct StepwiseRanker {
  std::unique_ptr<ckr::Pipeline> pipeline;
  ckr::ClickDataset dataset;
  ckr::GlobalTidTable tids;
  ckr::QuantizedInterestingnessStore interestingness;
  std::unique_ptr<ckr::PackedRelevanceStore> relevance;
  std::unique_ptr<ckr::RuntimeRanker> runtime;

  double StoreMb() const;
};

ckr::StatusOr<std::unique_ptr<StepwiseRanker>> BuildStepwiseRanker(
    const ckr::ContextualRankerOptions& options, RankerSetupTimes* times);

/// FNV-1a over every field of a ranked list (scores by bit pattern).
uint64_t AnnotationDigest(const std::vector<ckr::RankedAnnotation>& ranked);

/// Reference outputs: one sequential pass with a single scratch.
std::vector<uint64_t> SequentialDigests(const ckr::RuntimeRanker& ranker,
                                        const std::vector<std::string>& docs);

/// One processed document. Request `index` annotates docs[index % size].
struct AnnotatedDoc {
  uint64_t index = 0;
  int64_t start_nanos = 0;
  int64_t finish_nanos = 0;
  uint64_t digest = 0;
};

struct ClosedLoopConfig {
  unsigned clients = 2;
  uint64_t first_index = 0;
  uint64_t max_requests = 0;  ///< 0 = no count limit.
  int64_t run_nanos = 0;      ///< 0 = no time limit.
  /// Record a framework.process_document span per call, with the stem,
  /// match and score stages RuntimeStats reports as its children.
  bool trace = false;
};

struct ClosedLoopRun {
  std::vector<AnnotatedDoc> docs;  ///< Grouped by client.
  ckr::RuntimeStats stats;         ///< Summed over calls (trace only).
  SpanLog spans;
  int64_t start_nanos = 0;
};

/// Each client takes the next request index from a shared counter and
/// calls ProcessDocument with zero think time until the limits are hit.
ClosedLoopRun RunClosedLoop(const ckr::RuntimeRanker& ranker,
                            const std::vector<std::string>& docs,
                            const ClosedLoopConfig& config);

/// Requests whose digest differs from the sequential reference.
size_t CountWrongAnnotations(const std::vector<AnnotatedDoc>& done,
                             const std::vector<uint64_t>& reference);

/// FNV-1a over the digests of requests [0, count) in index order; false
/// when one of them is missing.
bool AnnotateOutputDigest(const std::vector<AnnotatedDoc>& done,
                          uint64_t count, uint64_t* digest);

/// The runtime's first two stages called from outside on each document:
/// the stemmer (TokenizeInto, PorterStemInto, GlobalTidTable::Lookup)
/// and EntityDetector::DetectRawPreTokenized, with the signature
/// prefilter counters read around the detector calls.
struct StageProbe {
  std::vector<double> stem_us;
  std::vector<double> match_us;
  double stem_seconds = 0.0;
  uint64_t bytes = 0;
  uint64_t sig_docs_tested = 0;
  uint64_t sig_docs_rejected = 0;
  uint64_t sig_windows_tested = 0;
  uint64_t sig_windows_rejected = 0;
};

StageProbe RunStageProbe(const ckr::EntityDetector& detector,
                         const ckr::GlobalTidTable& tids,
                         const std::vector<std::string>& docs, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_ANNOTATE_WORKLOAD_H_
