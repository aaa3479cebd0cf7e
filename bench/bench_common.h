// Shared scaffolding for the experiment binaries: builds the paper-scale
// pipeline + click dataset once and provides the result-printing helpers
// used by the Table III/IV/V reproductions.
#ifndef CKR_BENCH_BENCH_COMMON_H_
#define CKR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <utility>

#include "core/dataset.h"
#include "core/experiment.h"
#include "core/pipeline.h"

namespace ckr_bench {

/// True when the command line selects microbenchmarks with
/// --benchmark_filter. The perf binaries then run those instead of their
/// summary, which takes minutes and rewrites its BENCH_*.json in the
/// working directory. Call before benchmark::Initialize, which removes the
/// flags it consumes from argv.
inline bool HasBenchmarkFilter(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_filter=")) {
      return true;
    }
  }
  return false;
}

struct Lab {
  std::unique_ptr<ckr::Pipeline> pipeline;
  ckr::ClickDataset dataset;
};

/// Builds the default (paper-scale) world and dataset; exits on failure.
inline Lab BuildLab() {
  ckr::PipelineConfig config;
  auto pipeline_or = ckr::Pipeline::Build(config);
  if (!pipeline_or.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 pipeline_or.status().ToString().c_str());
    std::exit(1);
  }
  Lab lab;
  lab.pipeline = std::move(*pipeline_or);
  ckr::DatasetBuilder builder(*lab.pipeline, ckr::DatasetConfig{});
  auto dataset_or = builder.Build();
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 dataset_or.status().ToString().c_str());
    std::exit(1);
  }
  lab.dataset = std::move(*dataset_or);
  return lab;
}

inline void PrintDatasetHeader(const Lab& lab) {
  const ckr::ClickDataset& ds = lab.dataset;
  std::printf("dataset: %zu stories survive cleaning (paper: 870), "
              "%zu windows (paper: 947), %zu concept instances (paper: "
              "6420), %llu sampled clicks (paper: 16549)\n\n",
              ds.surviving_stories.size(), ds.num_windows,
              ds.instances.size(),
              static_cast<unsigned long long>(ds.total_clicks));
}

/// Prints one technique's row: weighted error + NDCG@{1,2,3}.
inline void PrintRow(const char* name, double paper_werr,
                     const ckr::EvalResult& r) {
  if (paper_werr > 0) {
    std::printf("  %-34s %6.2f%%  [%5.2f, %5.2f]   (paper: %5.2f%%)\n", name,
                100.0 * r.weighted_error_rate, 100.0 * r.weighted_error_ci.lo,
                100.0 * r.weighted_error_ci.hi, paper_werr);
  } else {
    std::printf("  %-34s %6.2f%%  [%5.2f, %5.2f]\n", name,
                100.0 * r.weighted_error_rate, 100.0 * r.weighted_error_ci.lo,
                100.0 * r.weighted_error_ci.hi);
  }
}

inline void PrintNdcg(const char* name, const ckr::EvalResult& r) {
  std::printf("  %-34s ndcg@1=%.3f  ndcg@2=%.3f  ndcg@3=%.3f\n", name,
              r.ndcg[0], r.ndcg[1], r.ndcg[2]);
}

/// The paper evaluates linear and RBF kernels with default parameters and
/// reports the best result (Section V-A.3).
inline ckr::EvalResult BestOfKernels(const ckr::ExperimentRunner& runner,
                                     ckr::ModelSpec spec) {
  spec.svm.kernel = ckr::SvmKernel::kLinear;
  auto linear = runner.EvaluateModelCV(spec);
  spec.svm.kernel = ckr::SvmKernel::kRbfFourier;
  auto rbf = runner.EvaluateModelCV(spec);
  if (!linear.ok()) {
    std::fprintf(stderr, "model: %s\n", linear.status().ToString().c_str());
    std::exit(1);
  }
  if (!rbf.ok()) return *linear;
  return linear->weighted_error_rate <= rbf->weighted_error_rate ? *linear
                                                                 : *rbf;
}

}  // namespace ckr_bench

#endif  // CKR_BENCH_BENCH_COMMON_H_
