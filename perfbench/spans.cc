#include "spans.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "summary.h"

namespace perfbench {

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Begin(const std::string& name, int parent,
                   const std::string& session, int step) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.name = name;
  s.session = session;
  s.step = step;
  spans_.push_back(std::move(s));
  // Read the clock last so the bookkeeping above is outside the span.
  spans_.back().start_ns = Now();
  return spans_.back().id;
}

void SpanLog::End(int id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }

bool SpanLog::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "%d\t%d\t%s\t%s\t%d\t%lld\t%lld\n", s.id, s.parent,
                 s.name.c_str(), s.session.c_str(), s.step,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

bool ReadSpans(const std::string& path, std::vector<Span>* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->clear();
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Span s;
    long long start = 0, end = 0;
    if (!(fields >> s.id >> s.parent >> s.name >> s.session >> s.step >>
          start >> end)) {
      return false;
    }
    s.start_ns = start;
    s.end_ns = end;
    out->push_back(std::move(s));
  }
  return true;
}

SpanSummary SummarizeSpans(const std::vector<Span>& spans) {
  SpanSummary out;
  std::map<int, double> child_seconds;  // parent id -> children's durations
  for (const Span& s : spans) {
    if (s.parent >= 0) child_seconds[s.parent] += s.seconds();
  }
  std::map<std::string, std::vector<double>> durations, selfs;
  // (session, step) -> name -> seconds, for the per-step join below.
  std::map<std::pair<std::string, int>, std::map<std::string, double>> steps;
  std::vector<double> first, later;
  for (const Span& s : spans) {
    const double d = s.seconds();
    const auto c = child_seconds.find(s.id);
    const double self = d - (c == child_seconds.end() ? 0.0 : c->second);
    durations[s.name].push_back(d);
    selfs[s.name].push_back(self);
    if (s.step >= 0) steps[{s.session, s.step}][s.name] += d;
    if (s.name == "serve.advise") (s.step <= 1 ? first : later).push_back(d);
  }
  for (const auto& [name, ds] : durations) {
    LayerTimes& l = out.layers[name];
    l.count = ds.size();
    l.median_s = Percentile(ds, 50.0);
    for (double d : ds) l.total_s += d;
    l.self_median_s = Percentile(selfs[name], 50.0);
    for (double d : selfs[name]) l.self_total_s += d;
  }
  out.first_advise_s = Percentile(first, 50.0);
  out.first_advises = first.size();
  out.later_advise_s = Percentile(later, 50.0);
  out.later_advises = later.size();

  static const char* kLayers[] = {"actions.execute", "session.context",
                                  "distance.prepare", "predict.predict"};
  std::vector<double> overheads;
  double served = 0.0, advised = 0.0, layered = 0.0, predicted = 0.0;
  double plain = 0.0, traced = 0.0;
  for (const auto& [key, by_name] : steps) {
    const auto get = [&](const char* name) {
      const auto it = by_name.find(name);
      return it == by_name.end() ? -1.0 : it->second;
    };
    const double append = get("serve.append"), advise = get("serve.advise");
    const double plain_step = get("plain.append") + get("plain.advise");
    if (append < 0.0 || advise < 0.0) continue;
    double layers = 0.0;
    bool complete = true;
    for (const char* name : kLayers) {
      const double d = get(name);
      if (d < 0.0) complete = false;
      layers += d;
    }
    if (get("plain.append") >= 0.0 && get("plain.advise") >= 0.0) {
      plain += plain_step;
      traced += append + advise;
    }
    if (!complete) continue;
    overheads.push_back(append + advise - layers);
    served += append + advise;
    advised += advise;
    layered += layers;
    predicted += get("predict.predict");
  }
  out.overhead_s = Percentile(overheads, 50.0);
  if (advised > 0.0) out.advise_accounted_pct = 100.0 * predicted / advised;
  if (served > 0.0) out.step_accounted_pct = 100.0 * layered / served;
  if (plain > 0.0) out.trace_overhead_pct = 100.0 * (traced / plain - 1.0);
  return out;
}

}  // namespace perfbench
