// Spans of the traced run and their summary. The traced run records one
// span around every call it makes into a layer, keeps them in memory and
// writes them out once at the end; the summariser reads the written file
// back, so the per-layer numbers come from the spans alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 for a root
  std::string name;
  std::string session;  ///< "-" outside a session
  int step = -1;        ///< session step, -1 outside a session
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// In-memory span recorder of one thread (the traced run is single-client).
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its id; close it with End.
  int Begin(const std::string& name, int parent = -1,
            const std::string& session = "-", int step = -1);
  void End(int id);

  /// One line per span: id, parent, name, session, step, start_ns, end_ns,
  /// tab-separated.
  bool WriteFile(const std::string& path) const;

 private:
  int64_t Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Reads a file written by SpanLog::WriteFile; false on a malformed line.
bool ReadSpans(const std::string& path, std::vector<Span>* out);

/// Per-name figures: call count, median duration, median and total self
/// time (duration minus the durations of the span's children).
struct LayerTimes {
  size_t count = 0;
  double median_s = 0.0;
  double total_s = 0.0;
  double self_median_s = 0.0;
  double self_total_s = 0.0;
};

/// What the summariser derives from a traced live run's spans.
struct SpanSummary {
  std::map<std::string, LayerTimes> layers;
  /// serve.advise durations split by step: the first advise of a session
  /// versus every later one (medians, seconds; counts alongside).
  double first_advise_s = 0.0;
  size_t first_advises = 0;
  double later_advise_s = 0.0;
  size_t later_advises = 0;
  /// Median over steps of (serve.append + serve.advise) minus the mirror's
  /// actions.execute + session.context + distance.prepare + predict.predict.
  double overhead_s = 0.0;
  /// Share (%) of the total serve.advise time that predict.predict
  /// accounts for, and of serve.append + serve.advise that the four layer
  /// spans account for.
  double advise_accounted_pct = 0.0;
  double step_accounted_pct = 0.0;
  /// Total serve.* time over total plain.* time, minus one, in percent:
  /// the cost of running the manager with metrics attached.
  double trace_overhead_pct = 0.0;
};

SpanSummary SummarizeSpans(const std::vector<Span>& spans);

}  // namespace perfbench
