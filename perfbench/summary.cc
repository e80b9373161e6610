#include "summary.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double pct) {
  // 1-based rank ceil(pct/100 * n), clamped to [1, n]. The product is
  // rounded to 9 decimals first so that e.g. 99% of 1000 is rank 990, not
  // 991 from 990.0000000001.
  const double exact = std::round(pct / 100.0 * static_cast<double>(n) * 1e9) / 1e9;
  size_t rank = static_cast<size_t>(std::ceil(exact));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), pct);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double pct) {
  if (n == 0) return 0;
  return n - NearestRank(n, pct);
}

double TailPercentile(size_t n) {
  for (double pct : {99.9, 99.0, 90.0}) {
    if (SamplesBeyond(n, pct) >= 10) return pct;
  }
  return 0.0;
}

LatencySummary Summarize(const std::vector<double>& samples, double tail_pct) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = Percentile(samples, 50.0);
  if (tail_pct <= 0.0) tail_pct = TailPercentile(s.count);
  if (tail_pct > 0.0 && SamplesBeyond(s.count, tail_pct) >= 10) {
    s.tail_pct = tail_pct;
    s.tail = Percentile(samples, tail_pct);
  }
  return s;
}

VoteResult ReferenceVote(std::vector<Neighbor> candidates,
                         const std::vector<int>& labels, int k, double theta,
                         bool weighted) {
  VoteResult out;
  if (k < 1 || candidates.empty()) return out;
  std::sort(candidates.begin(), candidates.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.id < b.id;
            });
  const size_t keep = std::min(candidates.size(), static_cast<size_t>(k));
  // label -> (vote mass, closest admitted distance), summed in (distance,
  // id) order.
  std::map<int, std::pair<double, double>> tally;
  double total = 0.0;
  for (size_t i = 0; i < keep; ++i) {
    const Neighbor& c = candidates[i];
    if (c.distance > theta) break;
    const int label = labels[c.id];
    if (label < 0) continue;
    const double w = weighted ? 1.0 / (c.distance + 1e-3) : 1.0;
    auto [it, inserted] = tally.try_emplace(
        label, 0.0, std::numeric_limits<double>::infinity());
    it->second.first += w;
    it->second.second = std::min(it->second.second, c.distance);
    total += w;
  }
  double best = 0.0;
  for (const auto& [label, v] : tally) best = std::max(best, v.first);
  if (best <= 0.0) return out;
  double best_nearest = std::numeric_limits<double>::infinity();
  for (const auto& [label, v] : tally) {
    if (SameBits(v.first, best) && v.second < best_nearest) {
      best_nearest = v.second;
      out.label = label;
    }
  }
  out.confidence = best / total;
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
