// The benchmark's own summary arithmetic: percentiles over latency samples
// and the reference kNN vote the served answers are checked against. It
// depends on nothing in the library, so no change to src/ can move the
// benchmark's clock or its notion of a correct answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `pct`% of the
/// samples at or below it (`pct` in (0, 100]). `samples` need not be
/// sorted. Returns 0 for an empty vector.
double Percentile(std::vector<double> samples, double pct);

/// Number of samples strictly beyond the nearest-rank `pct` percentile of
/// `n` samples.
size_t SamplesBeyond(size_t n, double pct);

/// The highest of 99.9, 99 and 90 that leaves at least ten samples beyond
/// it, or 0 when even the 90th percentile would not (then only the median
/// may be reported).
double TailPercentile(size_t n);

/// Median and tail of one latency population, with the sample count the
/// percentiles rest on.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< 0 when the population is too small for a tail
  double tail = 0.0;
};

/// Summarises `samples`; the tail is `tail_pct` when given (it must leave
/// at least ten samples beyond it, else the tail is omitted), otherwise
/// TailPercentile(count).
LatencySummary Summarize(const std::vector<double>& samples,
                         double tail_pct = 0.0);

/// One candidate neighbour of the reference kNN: its distance to the query
/// and its training-sample id.
struct Neighbor {
  double distance = 0.0;
  size_t id = 0;
};

/// The reference answer: label -1 is an abstention.
struct VoteResult {
  int label = -1;
  double confidence = 0.0;
};

/// The documented kNN rule, written out independently of src/predict:
/// order every candidate by (distance, id), keep the k nearest, admit those
/// within `theta` (distance <= theta), and vote one unit per admitted
/// neighbour (1 / (distance + 1e-3) when `weighted`). The label with the
/// most votes wins; a tie goes to the label whose closest admitted
/// neighbour is nearer, then to the smaller label. Confidence is the
/// winner's share of all admitted votes. No admitted neighbour is an
/// abstention. `labels[id]` is the label of training sample `id`.
VoteResult ReferenceVote(std::vector<Neighbor> candidates,
                         const std::vector<int>& labels, int k, double theta,
                         bool weighted = false);

/// True when the two doubles have the same bit pattern.
bool SameBits(double a, double b);

/// FNV-1a, 64-bit, over `size` bytes, continuing from `hash`.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t hash = 0xcbf29ce484222325ULL);

}  // namespace perfbench
