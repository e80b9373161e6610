// Tests of the benchmark's own summary code: percentiles on known vectors,
// the tail-selection rule, the reference kNN vote on a hand-computed toy
// training set, and the span summariser.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"
#include "summary.h"

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankOnKnownVectors) {
  EXPECT_EQ(Percentile(Range(10), 50.0), 5.0);
  EXPECT_EQ(Percentile(Range(10), 90.0), 9.0);
  EXPECT_EQ(Percentile(Range(10), 91.0), 10.0);
  EXPECT_EQ(Percentile(Range(10), 100.0), 10.0);
  EXPECT_EQ(Percentile(Range(1000), 99.0), 990.0);
  EXPECT_EQ(Percentile(Range(1000), 99.9), 999.0);
  EXPECT_EQ(Percentile({7.5}, 50.0), 7.5);
  EXPECT_EQ(Percentile({3.0, 1.0}, 50.0), 1.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(Percentile, TailLeavesTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(99), 0.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(9999), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  for (size_t n = 1; n <= 3000; ++n) {
    const double pct = TailPercentile(n);
    if (pct > 0.0) {
      EXPECT_GE(SamplesBeyond(n, pct), 10u) << n;
    }
  }
}

TEST(Percentile, SummarizeReportsCountAndRefusesShortTails) {
  const LatencySummary s = Summarize(Range(1000), 99.0);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  // 99th percentile of 500 samples has only 5 beyond it: no tail.
  const LatencySummary short_run = Summarize(Range(500), 99.0);
  EXPECT_EQ(short_run.count, 500u);
  EXPECT_EQ(short_run.tail_pct, 0.0);
  EXPECT_EQ(Summarize(Range(500)).tail_pct, 90.0);
  EXPECT_EQ(Summarize(Range(500)).tail, 450.0);
}

// Toy training set: ids 0..5 with labels {0, 1, 1, 2, 0, 2}.
const std::vector<int> kLabels = {0, 1, 1, 2, 0, 2};

TEST(ReferenceVote, MajorityWithinThreshold) {
  // k = 3 nearest: id 1 (0.05, label 1), id 2 (0.10, label 1), id 0 (0.12,
  // label 0) -> label 1 with 2 of 3 votes. id 3 is fourth and not counted.
  const VoteResult v = ReferenceVote(
      {{0.12, 0}, {0.05, 1}, {0.10, 2}, {0.13, 3}, {0.50, 4}, {0.60, 5}},
      kLabels, 3, 0.2);
  EXPECT_EQ(v.label, 1);
  EXPECT_TRUE(SameBits(v.confidence, 2.0 / 3.0));
}

TEST(ReferenceVote, TieGoesToTheNearerNeighbourThenTheSmallerLabel) {
  // k = 2: id 3 (label 2) at 0.08 and id 4 (label 0) at 0.10: one vote
  // each; label 2 owns the nearer neighbour and wins.
  VoteResult v = ReferenceVote({{0.10, 4}, {0.08, 3}, {0.30, 1}}, kLabels, 2, 0.2);
  EXPECT_EQ(v.label, 2);
  EXPECT_TRUE(SameBits(v.confidence, 0.5));
  // Equal distances: (distance, id) order keeps ids 0 and 1; labels 0 and
  // 1 tie on votes and on nearest distance, so the smaller label wins.
  v = ReferenceVote({{0.1, 1}, {0.1, 0}, {0.1, 2}}, kLabels, 2, 0.2);
  EXPECT_EQ(v.label, 0);
  EXPECT_TRUE(SameBits(v.confidence, 0.5));
}

TEST(ReferenceVote, AbstainsWhenNoNeighbourIsWithinThreshold) {
  const VoteResult v = ReferenceVote({{0.21, 0}, {0.30, 1}}, kLabels, 3, 0.2);
  EXPECT_EQ(v.label, -1);
  EXPECT_EQ(v.confidence, 0.0);
  // The threshold admits a neighbour at exactly theta.
  EXPECT_EQ(ReferenceVote({{0.2, 5}}, kLabels, 3, 0.2).label, 2);
  // Only the k nearest are considered even if more are within theta.
  EXPECT_TRUE(SameBits(
      ReferenceVote({{0.0, 0}, {0.0, 1}, {0.0, 2}}, kLabels, 1, 0.2).confidence,
      1.0));
}

TEST(ReferenceVote, WeightedVotesFavourCloseNeighbours) {
  // Label 1: 1/(0.30+1e-3) + 1/(0.31+1e-3); label 0: 1/(0.001+1e-3).
  const VoteResult v =
      ReferenceVote({{0.30, 1}, {0.31, 2}, {0.001, 0}}, kLabels, 3, 0.5, true);
  EXPECT_EQ(v.label, 0);
  const double w0 = 1.0 / (0.001 + 1e-3);
  const double total = w0 + 1.0 / (0.30 + 1e-3) + 1.0 / (0.31 + 1e-3);
  EXPECT_NEAR(v.confidence, w0 / total, 1e-12);
}

TEST(Spans, SelfTimeAndStepAccounting) {
  std::vector<Span> spans = {
      {0, -1, "serve.append", "s", 1, 0, 100},
      {1, -1, "serve.advise", "s", 1, 100, 1100},
      {2, -1, "mirror.step", "s", 1, 2000, 3200},
      {3, 2, "actions.execute", "s", 1, 2000, 2050},
      {4, 2, "session.context", "s", 1, 2050, 2070},
      {5, 2, "distance.prepare", "s", 1, 2070, 2080},
      {6, 2, "predict.predict", "s", 1, 2080, 3000},
      {7, -1, "plain.append", "s", 1, 4000, 4100},
      {8, -1, "plain.advise", "s", 1, 4100, 5000},
  };
  const std::string path = ::testing::TempDir() + "/perfbench_spans.tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  for (const Span& s : spans) {
    std::fprintf(f, "%d\t%d\t%s\t%s\t%d\t%lld\t%lld\n", s.id, s.parent,
                 s.name.c_str(), s.session.c_str(), s.step,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
  std::vector<Span> read;
  ASSERT_TRUE(ReadSpans(path, &read));
  ASSERT_EQ(read.size(), spans.size());
  const SpanSummary sum = SummarizeSpans(read);
  // mirror.step: 1200 ns minus its children's 1000 ns.
  EXPECT_NEAR(sum.layers.at("mirror.step").self_total_s, 200e-9, 1e-15);
  EXPECT_EQ(sum.layers.at("predict.predict").count, 1u);
  // Step: append + advise = 1100 ns; layers = 1000 ns.
  EXPECT_NEAR(sum.overhead_s, 100e-9, 1e-15);
  EXPECT_NEAR(sum.advise_accounted_pct, 92.0, 1e-9);
  EXPECT_NEAR(sum.step_accounted_pct, 100.0 * 1000.0 / 1100.0, 1e-9);
  EXPECT_NEAR(sum.trace_overhead_pct, 100.0 * (1100.0 / 1000.0 - 1.0), 1e-9);
  EXPECT_EQ(sum.first_advises, 1u);
  EXPECT_NEAR(sum.first_advise_s, 1000e-9, 1e-15);
}

TEST(Spans, WrittenFileReadsBack) {
  SpanLog log;
  const int outer = log.Begin("outer");
  const int inner = log.Begin("inner", outer, "sess", 3);
  log.End(inner);
  log.End(outer);
  const std::string path = ::testing::TempDir() + "/perfbench_spans2.tsv";
  ASSERT_TRUE(log.WriteFile(path));
  std::vector<Span> read;
  ASSERT_TRUE(ReadSpans(path, &read));
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[1].parent, 0);
  EXPECT_EQ(read[1].session, "sess");
  EXPECT_EQ(read[1].step, 3);
  EXPECT_LE(read[0].start_ns, read[1].start_ns);
  EXPECT_GE(read[0].end_ns, read[1].end_ns);
}

}  // namespace
}  // namespace perfbench
