// Small measurement helpers shared by the benchmark workloads and their
// tests: the benchmark's own clock, exact percentiles, per-round
// summaries, the FNV-1a output digest, peak RSS and the span recorder of
// the traced run.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The benchmark's clock: steady_clock nanoseconds. ServeDaemon's
/// RealClock reads the same clock, so its stamps are comparable.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start, int64_t end) {
  return static_cast<double>(end - start) / 1e9;
}

/// Exact nearest-rank percentile: the smallest sample such that at least
/// q * n samples are <= it. q in [0, 1]; 0.0 for no samples. Returns a
/// sample value, never an interpolation.
inline double ExactPercentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// The usual median: the middle sample, or the mean of the two middle
/// samples of an even count; 0.0 for no samples.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

/// One completed request on the benchmark's clock.
struct LatencySample {
  int64_t finish_nanos = 0;
  double latency_us = 0.0;
};

/// Figures of one round of the timed phase.
struct RoundStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double throughput_per_s = 0.0;
  size_t samples = 0;
};

/// Medians over rounds: a burst of host slowness moves one round, not the
/// reported value.
struct PhaseSummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double throughput_per_s = 0.0;
  size_t samples = 0;        ///< Requests completed inside the rounds.
  size_t min_round_samples = 0;
  size_t rounds = 0;
};

/// Splits [start, start + rounds * round_nanos) into equal rounds by
/// completion time and summarizes each; samples outside are ignored.
inline std::vector<RoundStats> PerRound(
    const std::vector<LatencySample>& samples, int64_t start,
    int64_t round_nanos, size_t rounds) {
  std::vector<std::vector<double>> by_round(rounds);
  for (const LatencySample& s : samples) {
    if (s.finish_nanos < start) continue;
    const size_t r = static_cast<size_t>((s.finish_nanos - start) / round_nanos);
    if (r < rounds) by_round[r].push_back(s.latency_us);
  }
  std::vector<RoundStats> out(rounds);
  for (size_t r = 0; r < rounds; ++r) {
    out[r].samples = by_round[r].size();
    out[r].throughput_per_s = static_cast<double>(by_round[r].size()) /
                              (static_cast<double>(round_nanos) / 1e9);
    out[r].p50_us = ExactPercentile(by_round[r], 0.5);
    out[r].p99_us = ExactPercentile(std::move(by_round[r]), 0.99);
  }
  return out;
}

inline PhaseSummary Summarize(const std::vector<RoundStats>& rounds) {
  PhaseSummary s;
  s.rounds = rounds.size();
  std::vector<double> p50, p99, tput;
  s.min_round_samples = rounds.empty() ? 0 : rounds[0].samples;
  for (const RoundStats& r : rounds) {
    p50.push_back(r.p50_us);
    p99.push_back(r.p99_us);
    tput.push_back(r.throughput_per_s);
    s.samples += r.samples;
    s.min_round_samples = std::min(s.min_round_samples, r.samples);
  }
  s.p50_us = Median(std::move(p50));
  s.p99_us = Median(std::move(p99));
  s.throughput_per_s = Median(std::move(tput));
  return s;
}

/// 64-bit FNV-1a over explicit little-endian fields.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Bytes(b, 8);
  }
  /// Exact bit pattern: two doubles digest alike only if bit-identical.
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// Peak resident set size of this process in MiB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// One span of the traced run: a layer call timed from outside.
struct Span {
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
  int64_t parent = -1;  ///< Index into the same recorder; -1 for a root.
  uint64_t request = 0;
};

/// Append-only in-memory span log of one thread; written out at exit.
class SpanLog {
 public:
  int64_t Add(const char* name, int64_t start, int64_t end, int64_t parent,
              uint64_t request) {
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void SetEnd(int64_t span, int64_t end) {
    spans_[static_cast<size_t>(span)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Appends `other`'s spans, re-basing their parent indices.
  void Absorb(const SpanLog& other) {
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  /// Self time of every span: its duration minus the part of its
  /// interval that its children cover (children of one span do not
  /// overlap here, so their clipped durations add up).
  std::vector<double> SelfSeconds() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = SecondsBetween(spans_[i].start, spans_[i].end);
    }
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<size_t>(s.parent)];
      const int64_t lo = std::max(s.start, p.start);
      const int64_t hi = std::min(s.end, p.end);
      if (hi > lo) self[static_cast<size_t>(s.parent)] -= SecondsBetween(lo, hi);
    }
    return self;
  }

  /// One JSON object per line: name, start/end (ns), parent, request.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start\":%lld,\"end\":%lld,"
                   "\"parent\":%lld,\"request\":%llu}\n",
                   s.name, static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
