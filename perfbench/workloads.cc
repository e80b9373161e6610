#include "workloads.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "distance/ground.h"
#include "distance/ted.h"
#include "engine/engine.h"
#include "eval/loocv.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "offline/labeling.h"
#include "offline/training.h"
#include "predict/knn.h"
#include "serve/session_manager.h"
#include "session/ncontext.h"
#include "spans.h"
#include "summary.h"
#include "synth/generator.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ida::DisplayPtr;
using ida::ModelConfig;
using ida::Prediction;
using ida::SessionRecord;
using ida::TrainingSample;
using ida::engine::Predictor;
using ida::engine::TrainedModel;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Workload definitions.

enum class ModelKind { kServing, kReference, kNormalized };

const char* KindName(ModelKind k) {
  switch (k) {
    case ModelKind::kServing: return "serving";
    case ModelKind::kReference: return "reference";
    case ModelKind::kNormalized: return "normalized";
  }
  return "?";
}

struct Spec {
  const char* name;
  uint64_t world_seed;     ///< generator seed of the workload's fixed corpus
  size_t sessions;         ///< recorded sessions in the generated world
  size_t rows;             ///< rows per generated dataset
  size_t holdout_every;    ///< every k-th recorded session is held out
  size_t warmup_sessions;  ///< first held-out sessions, driven untimed
  size_t min_advises;      ///< a timed run makes at least this many advises
  double tail_pct;         ///< the reported advise tail percentile
  std::vector<ModelKind> models;  ///< fitted, in this order
  ModelKind served;               ///< the model the sessions are served by
  int fit_reps;            ///< repetitions of each fit except Reference-Based
  bool full_loocv;         ///< engine::EvaluateLoocv on every model, else
                           ///< PredictLoo over a stride of the served model
  size_t loocv_stride;     ///< one leave-one-out query per ~stride samples
  size_t traced_sessions;  ///< timed sessions the traced round covers
  size_t reference_steps;  ///< advises checked against brute force
};

// Each workload serves a fixed generated corpus split into training and
// held-out sessions; --seed orders the held-out sessions within each round
// (README.md, "Inputs"). Sizes keep one run of each workload under about
// 40 s on a 4-core box.
const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"live_advise", 42, 454, 400, 7, 4, 1000, 99.0,
       {ModelKind::kServing}, ModelKind::kServing, 5, false, 32, 16, 8},
      {"large_model", 4242, 2700, 150, 52, 4, 200, 90.0,
       {ModelKind::kServing}, ModelKind::kServing, 3, false, 256, 6, 3},
      {"offline_train", 42, 454, 400, 7, 4, 1000, 90.0,
       {ModelKind::kReference, ModelKind::kNormalized},
       ModelKind::kReference, 5, true, 32, 16, 8},
  };
  return specs;
}

/// splitmix64: the benchmark's own generator for the order of each round.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The configuration of each model kind. kServing is loadgen's ServeConfig
/// (tools/loadgen): every state is kept, so the training set is dense
/// enough to serve against. Every phase runs on one thread: on the 4-vCPU reference VM, three or four busy
/// threads drifted by 20-45% (interquartile range over median) between runs
/// of identical work, single-threaded work by under 15% (README.md,
/// "Stability").
ModelConfig ConfigFor(ModelKind kind) {
  ModelConfig c;
  switch (kind) {
    case ModelKind::kServing:
      c = ida::DefaultNormalizedConfig();
      c.theta_interest = -1e300;
      c.knn.distance_threshold = 0.25;
      break;
    case ModelKind::kReference:
      c = ida::DefaultReferenceBasedConfig();
      break;
    case ModelKind::kNormalized:
      c = ida::DefaultNormalizedConfig();
      break;
  }
  c.distance.num_threads = 1;
  return c;
}

// ---------------------------------------------------------------------------
// Inputs.

struct World {
  ida::SynthBenchmark bench;
  ida::SessionLog train;
  std::vector<size_t> warmup;  ///< record indices
  std::vector<size_t> timed;   ///< record indices
  std::map<std::string, DisplayPtr> roots;

  const SessionRecord& record(size_t i) const { return bench.log.records()[i]; }
};

/// A permutation of 0..n-1 drawn from `seed` (Fisher-Yates).
std::vector<size_t> Shuffled(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  uint64_t state = seed;
  for (size_t i = 0; i + 1 < n; ++i) {
    const size_t j = i + static_cast<size_t>(NextRandom(&state) % (n - i));
    std::swap(order[i], order[j]);
  }
  return order;
}

bool MakeWorld(const Spec& spec, World* w, double* gen_s) {
  ida::GeneratorOptions g;
  g.num_users = 56;
  g.num_sessions = spec.sessions;
  g.rows_per_dataset = spec.rows;
  g.seed = spec.world_seed;
  const auto t0 = Clock::now();
  ida::Result<ida::SynthBenchmark> bench = ida::GenerateBenchmark(g);
  *gen_s = SecondsSince(t0);
  if (!bench.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 bench.status().ToString().c_str());
    return false;
  }
  w->bench = std::move(bench).value();
  const auto& records = w->bench.log.records();
  std::vector<size_t> held;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i % spec.holdout_every == spec.holdout_every - 1) {
      held.push_back(i);
    } else {
      w->train.Add(records[i]);
    }
  }
  const size_t warm = std::min(spec.warmup_sessions, held.size());
  w->warmup.assign(held.begin(), held.begin() + static_cast<long>(warm));
  w->timed.assign(held.begin() + static_cast<long>(warm), held.end());
  for (const auto& [id, table] : w->bench.registry) {
    w->roots[id] = ida::Display::MakeRoot(table);
  }
  return !w->timed.empty();
}

size_t CountSteps(const World& w, const std::vector<size_t>& sessions) {
  size_t n = 0;
  for (size_t i : sessions) n += w.record(i).steps.size();
  return n;
}

/// Replays a recorded session to its end outside the serving path.
bool ReplayTree(const World& w, size_t i, const ida::ActionExecutor& exec,
                std::unique_ptr<ida::SessionTree>* out) {
  const SessionRecord& r = w.record(i);
  auto tree = std::make_unique<ida::SessionTree>(
      r.session_id, r.user_id, r.dataset_id, w.roots.at(r.dataset_id));
  for (const auto& [parent, action] : r.steps) {
    if (!tree->ApplyFrom(parent, action, exec).ok()) return false;
  }
  *out = std::move(tree);
  return true;
}

// ---------------------------------------------------------------------------
// Serving.

struct Answer {
  bool ok = false;
  int label = -1;
  double confidence = 0.0;
};

bool SameAnswer(const Answer& a, const Answer& b) {
  return a.ok && b.ok && a.label == b.label &&
         SameBits(a.confidence, b.confidence);
}

Answer FromPrediction(const Prediction& p) { return {true, p.label, p.confidence}; }

using SessionAnswers = std::vector<Answer>;

struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Open -> (Append -> Advise)* -> Close of one recorded session.
void DriveSession(ida::serve::SessionManager& m, const std::string& sid,
                  const World& w, size_t rec, SessionAnswers* answers,
                  std::vector<double>* append_s, std::vector<double>* advise_s,
                  OpCounts* ops) {
  const SessionRecord& r = w.record(rec);
  answers->assign(r.steps.size(), Answer{});
  const bool opened =
      m.Open(sid, w.roots.at(r.dataset_id), r.user_id, r.dataset_id).ok();
  ops->Add(opened);
  for (size_t k = 0; k < r.steps.size(); ++k) {
    if (!opened) {
      ops->Add(false);
      ops->Add(false);
      continue;
    }
    const auto t0 = Clock::now();
    const bool appended = m.Append(sid, r.steps[k].first, r.steps[k].second).ok();
    const auto t1 = Clock::now();
    ops->Add(appended);
    if (!appended) {
      ops->Add(false);
      continue;
    }
    ida::Result<Prediction> p = m.Advise(sid);
    const auto t2 = Clock::now();
    ops->Add(p.ok());
    if (!p.ok()) continue;
    (*answers)[k] = FromPrediction(*p);
    append_s->push_back(std::chrono::duration<double>(t1 - t0).count());
    advise_s->push_back(std::chrono::duration<double>(t2 - t1).count());
  }
  if (opened) ops->Add(m.Close(sid).ok());
}

struct ServeRun {
  std::vector<double> append_s;
  std::vector<double> advise_s;
  OpCounts ops;
  double wall_s = 0.0;
  size_t advises = 0;
  /// answers[round][position in the session list]
  std::vector<std::vector<SessionAnswers>> answers;
};

/// One closed-loop client with zero think time drives whole rounds over
/// `sessions`, each round in its own order drawn from `seed`; a new round
/// starts while the run is younger than `min_seconds` or has made fewer
/// than `min_advises` advises.
ServeRun ServeRounds(ida::serve::SessionManager& m, const World& w,
                     const std::vector<size_t>& sessions, double min_seconds,
                     size_t min_advises, const std::string& prefix,
                     uint64_t seed) {
  ServeRun run;
  const size_t advises_per_round = CountSteps(w, sessions);
  const auto start = Clock::now();
  for (size_t round = 0;; ++round) {
    if (round > 0 && SecondsSince(start) >= min_seconds &&
        run.advises >= min_advises) {
      break;
    }
    std::vector<SessionAnswers>& answers = run.answers.emplace_back(sessions.size());
    for (size_t pos : Shuffled(sessions.size(), seed * 1000003 + round)) {
      const std::string sid = prefix + std::to_string(round) + "-" + std::to_string(pos);
      DriveSession(m, sid, w, sessions[pos], &answers[pos], &run.append_s,
                   &run.advise_s, &run.ops);
    }
    run.advises += advises_per_round;
  }
  run.wall_s = SecondsSince(start);
  return run;
}

// ---------------------------------------------------------------------------
// Result collection.

class Checks {
 public:
  explicit Checks(RunResult* r) : r_(r) {}
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    r_->correct = false;
    r_->problems.push_back(what);
  }

 private:
  RunResult* r_;
};

void Put(RunResult* r, const std::string& name, double value,
         const std::string& unit) {
  r->metrics.push_back({name, value, unit});
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

// ---------------------------------------------------------------------------
// Checks against computations outside the serving path.

/// Brute-force kNN of the benchmark's own: the one-shot ExtractNContext,
/// SessionDistance::Distance(query, sample) against every training sample
/// and ReferenceVote.
Answer BruteForceAnswer(const TrainedModel& model, const ida::SessionTree& tree,
                        int t) {
  const ModelConfig& c = model.config();
  const ida::NContext q = ida::ExtractNContext(tree, t, c.n_context_size);
  const ida::SessionDistance metric(c.distance);
  std::vector<Neighbor> candidates;
  std::vector<int> labels;
  candidates.reserve(model.size());
  labels.reserve(model.size());
  for (size_t i = 0; i < model.size(); ++i) {
    candidates.push_back({metric.Distance(q, model.samples()[i].context), i});
    labels.push_back(model.samples()[i].label);
  }
  const VoteResult v = ReferenceVote(std::move(candidates), labels, c.knn.k,
                                     c.knn.distance_threshold,
                                     c.knn.distance_weighted);
  return {true, v.label, v.confidence};
}

/// A fixed sample of timed steps: up to a quarter abstentions, the rest
/// answered steps, each evenly spaced over the run's step order.
std::vector<std::pair<size_t, int>> PickReferenceSteps(
    const std::vector<SessionAnswers>& round, size_t count) {
  std::vector<std::pair<size_t, int>> abstained, answered, out;
  for (size_t s = 0; s < round.size(); ++s) {
    for (size_t k = 0; k < round[s].size(); ++k) {
      (round[s][k].label < 0 ? abstained : answered)
          .emplace_back(s, static_cast<int>(k + 1));
    }
  }
  const auto take = [&](const std::vector<std::pair<size_t, int>>& from,
                        size_t n) {
    n = std::min(n, from.size());
    for (size_t i = 0; i < n; ++i) out.push_back(from[i * from.size() / n]);
  };
  const size_t abst = std::min(abstained.size(), std::max<size_t>(1, count / 4));
  take(abstained, abst);
  take(answered, count - std::min(count, abst));
  return out;
}

struct DominanceStats {
  double max_share = 0.0;
  double steps_per_switch = 0.0;
};

/// From the labels alone: the largest share of labeled steps on which one
/// measure is dominant, and labeled steps per change of the primary
/// dominant measure within a session (the paper's "switch about every 2.2
/// steps").
DominanceStats Dominance(const std::vector<ida::LabeledStep>& labeled,
                         size_t measures) {
  DominanceStats d;
  std::vector<size_t> dominant(measures, 0);
  std::map<int, std::vector<std::pair<int, int>>> by_tree;  // step, primary
  for (const ida::LabeledStep& s : labeled) {
    for (int m : s.result.dominant) {
      if (m >= 0 && static_cast<size_t>(m) < measures) ++dominant[static_cast<size_t>(m)];
    }
    const int primary = s.result.dominant.empty() ? -1 : s.result.dominant[0];
    by_tree[s.tree_index].emplace_back(s.step, primary);
  }
  for (size_t c : dominant) {
    d.max_share = std::max(d.max_share, static_cast<double>(c) /
                                            static_cast<double>(labeled.size()));
  }
  size_t steps = 0, switches = 0;
  for (auto& [tree, seq] : by_tree) {
    std::sort(seq.begin(), seq.end());
    steps += seq.size();
    for (size_t i = 1; i < seq.size(); ++i) {
      if (seq[i].second != seq[i - 1].second) ++switches;
    }
  }
  if (switches > 0) {
    d.steps_per_switch = static_cast<double>(steps) / static_cast<double>(switches);
  }
  return d;
}

/// The accepted range for the steps per dominant-measure switch: the
/// paper reports 2.2; half to one and a half times that is "of the
/// paper's order".
constexpr double kMinStepsPerSwitch = 1.1;
constexpr double kMaxStepsPerSwitch = 3.3;

void CheckDominance(Checks& checks, const std::vector<ida::LabeledStep>& labeled,
                    size_t measures, const char* method) {
  const DominanceStats d = Dominance(labeled, measures);
  std::printf(
      "{\"labels\":\"%s\",\"steps\":%zu,\"max_dominant_share\":%.4f,"
      "\"steps_per_switch\":%.4f}\n",
      method, labeled.size(), d.max_share, d.steps_per_switch);
  checks.Expect(!labeled.empty() && d.max_share < 0.5,
                std::string(method) + ": one measure dominates half the steps or more");
  checks.Expect(d.steps_per_switch >= kMinStepsPerSwitch &&
                    d.steps_per_switch <= kMaxStepsPerSwitch,
                std::string(method) + ": steps per dominant switch out of range");
}

// ---------------------------------------------------------------------------
// Leave-one-out queries.

struct LoocvRun {
  size_t queries = 0;
  double seconds = 0.0;
  std::vector<Prediction> answers;  ///< by position in the query list
  ida::PredictStats totals;          ///< summed when stats were requested
};

/// The samples whose context fingerprint hashes to 0 modulo `stride`: about
/// one in `stride`, a fixed query set that does not depend on sample order.
std::vector<size_t> HashSelected(const TrainedModel& model, size_t stride) {
  std::vector<size_t> out;
  for (size_t i = 0; i < model.size(); ++i) {
    const std::string fp = model.samples()[i].context.Fingerprint();
    if (Fnv1a(fp.data(), fp.size()) % stride == 0) out.push_back(i);
  }
  return out;
}

std::vector<size_t> Strided(size_t n, size_t count) {
  std::vector<size_t> out;
  count = std::min(count, n);
  for (size_t i = 0; i < count; ++i) out.push_back(i * n / count);
  return out;
}

/// IKnnClassifier::PredictLoo over `ids`.
LoocvRun LoocvPass(const ida::IKnnClassifier& cls, const std::vector<size_t>& ids,
                   bool with_stats) {
  LoocvRun run;
  run.queries = ids.size();
  const auto start = Clock::now();
  for (size_t id : ids) {
    ida::PredictStats stats;
    run.answers.push_back(cls.PredictLoo(id, with_stats ? &stats : nullptr));
    if (!with_stats) continue;
    run.totals.ted.display_computes += stats.ted.display_computes;
    run.totals.index.Merge(stats.index);
  }
  run.seconds = SecondsSince(start);
  return run;
}

ida::IKnnClassifier ClassifierOf(const TrainedModel& model, bool indexed) {
  const ModelConfig& c = model.config();
  return ida::IKnnClassifier(model.samples(), ida::SessionDistance(c.distance),
                             c.knn, indexed ? model.index() : nullptr, c.approx);
}

// ---------------------------------------------------------------------------
// The run.

struct Setup {
  World world;
  double setup_s = 0.0;
  std::vector<double> generate_s;
};

bool DoSetup(const Spec& spec, Setup* s) {
  // Set up three times and keep the last world: setup_s is the median.
  std::vector<double> totals;
  for (int rep = 0; rep < 3; ++rep) {
    World w;
    double gen = 0.0;
    const auto t0 = Clock::now();
    if (!MakeWorld(spec, &w, &gen)) return false;
    totals.push_back(SecondsSince(t0));
    s->generate_s.push_back(gen);
    s->world = std::move(w);
  }
  s->setup_s = Median(totals);
  std::printf("{\"setup_reps_s\":[%.4f,%.4f,%.4f]}\n", totals[0], totals[1], totals[2]);
  return true;
}

void PrintFingerprint(const Spec& spec, const World& w, const TrainedModel& served,
                      size_t advises_per_round) {
  // Content of every display the timed sessions bring, against the pool of
  // the served model.
  std::unordered_map<uint64_t, std::vector<ida::DisplayView>> pool;
  size_t pool_displays = 0;
  {
    std::unordered_map<const ida::Display*, bool> seen;
    for (const TrainingSample& s : served.samples()) {
      for (const ida::NContextNode& n : s.context.nodes()) {
        if (!seen.emplace(n.display.get(), true).second) continue;
        const ida::DisplayView v = n.display->View();
        pool[ida::ContentFingerprint(v)].push_back(v);
        ++pool_displays;
      }
    }
  }
  ida::ActionExecutor exec;
  size_t live = 0, novel = 0;
  uint64_t digest = Fnv1a("", 0);
  for (size_t i : w.timed) {
    std::unique_ptr<ida::SessionTree> tree;
    if (!ReplayTree(w, i, exec, &tree)) continue;
    for (int node = 1; node < tree->num_nodes(); ++node) {
      const ida::DisplayView v = tree->node(node).display->View();
      ++live;
      const auto it = pool.find(ida::ContentFingerprint(v));
      bool found = false;
      if (it != pool.end()) {
        for (const ida::DisplayView& p : it->second) {
          if (ida::ContentEquals(v, p)) {
            found = true;
            break;
          }
        }
      }
      if (!found) ++novel;
    }
    for (const auto& [parent, action] : w.record(i).steps) {
      const std::string line = std::to_string(parent) + " " + action.Serialize() + "\n";
      digest = Fnv1a(line.data(), line.size(), digest);
    }
  }
  std::printf(
      "{\"fingerprint\":{\"workload\":\"%s\",\"world_sessions\":%zu,"
      "\"world_steps\":%zu,\"train_sessions\":%zu,\"warmup_sessions\":%zu,"
      "\"timed_sessions\":%zu,\"advises_per_round\":%zu,"
      "\"training_samples\":%zu,\"pool_displays\":%zu,"
      "\"novel_display_share\":%.4f,\"actions_digest\":\"%016llx\"}}\n",
      spec.name, w.bench.log.size(), w.bench.log.total_actions(),
      w.train.size(), w.warmup.size(), w.timed.size(), advises_per_round,
      served.size(), pool_displays,
      live > 0 ? static_cast<double>(novel) / static_cast<double>(live) : 0.0,
      static_cast<unsigned long long>(digest));
}

/// Timed repetitions of load + first answer behind the traced run's
/// `engine.load_us` and `engine.first_answer_ms`.
constexpr int kLoads = 15;

/// Flushes a just-written artifact to disk, so that its write-back does not
/// land inside the timed loads (a deployment loads artifacts written long
/// before).
bool SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

/// Loads the artifact and answers one query: once untimed, then `reps`
/// timed times; returns the medians and keeps the last predictor.
struct LoadRun {
  double load_median_s = 0.0;
  double first_median_s = 0.0;
  std::shared_ptr<const Predictor> predictor;
  bool ok = true;
};

LoadRun LoadArtifact(const std::string& path, const ida::NContext& first_query,
                     int reps) {
  LoadRun out;
  if (!SyncFile(path)) {
    out.ok = false;
    return out;
  }
  std::vector<double> load, first;
  for (int r = -1; r < reps; ++r) {
    const auto t0 = Clock::now();
    ida::Result<Predictor> p =
        Predictor::LoadFromFile(path, ida::obs::DisabledObsConfig());
    const auto t1 = Clock::now();
    if (!p.ok()) {
      out.ok = false;
      return out;
    }
    p->Predict(first_query);
    const auto t2 = Clock::now();
    if (r < 0) continue;
    load.push_back(std::chrono::duration<double>(t1 - t0).count());
    first.push_back(std::chrono::duration<double>(t2 - t1).count());
    out.predictor = std::make_shared<const Predictor>(std::move(p).value());
  }
  out.load_median_s = Median(load);
  out.first_median_s = Median(first);
  std::printf("{\"load\":{\"reps\":%d,\"load_ms\":%.3f,\"first_answer_ms\":%.3f}}\n",
              reps, out.load_median_s * 1e3, out.first_median_s * 1e3);
  return out;
}

/// Everything the offline half produced for one model.
struct Fitted {
  ModelKind kind;
  TrainedModel model;
  double fit_s = 0.0;  ///< median Trainer::Fit time
};

class Runner {
 public:
  Runner(const Spec& spec, const RunOptions& opt, RunResult* result)
      : spec_(spec), opt_(opt), r_(result), checks_(result) {}

  bool Run() {
    if (!DoSetup(spec_, &setup_)) return false;
    Mark("setup");
    const World& w = setup_.world;
    std::printf(
        "{\"run\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.1f,"
        "\"trace\":%d}}\n",
        spec_.name, static_cast<unsigned long long>(opt_.seed), opt_.seconds,
        opt_.trace ? 1 : 0);
    if (!FirstQuery(w)) return false;
    const bool ok = opt_.trace ? RunTraced() : RunTimed();
    std::printf("{\"phases_s\":{");
    for (size_t i = 0; i < phases_.size(); ++i) {
      std::printf("%s\"%s\":%.3f", i == 0 ? "" : ",", phases_[i].first.c_str(),
                  phases_[i].second);
    }
    std::printf("}}\n");
    return ok;
  }

  /// Records the wall time since the previous mark under `name`.
  void Mark(const char* name) {
    phases_.emplace_back(name, SecondsSince(mark_));
    mark_ = Clock::now();
  }

 private:
  // The n-context of the corpus' first session after its first step (the
  // same query whatever the seed): the "first answer" a freshly loaded
  // predictor gives.
  bool FirstQuery(const World& w) {
    ida::ActionExecutor exec;
    if (!ReplayTree(w, 0, exec, &first_tree_)) {
      std::fprintf(stderr, "a timed session does not replay\n");
      return false;
    }
    const int n = ConfigFor(spec_.served).n_context_size;
    first_query_ = ida::ExtractNContext(*first_tree_, 1, n);
    return true;
  }

  bool FitModels(std::vector<Fitted>* out) {
    for (ModelKind kind : spec_.models) {
      const ModelConfig config = ConfigFor(kind);
      const int reps = kind == ModelKind::kReference ? 1 : spec_.fit_reps;
      std::vector<double> times;
      Fitted f{kind, {}, 0.0};
      for (int rep = 0; rep < reps; ++rep) {
        // Drop the previous repetition's model, so that peak_rss_mb sees one
        // model at a time.
        f.model = TrainedModel();
        ida::engine::Trainer trainer(config, ida::obs::DisabledObsConfig());
        const auto t0 = Clock::now();
        ida::Result<TrainedModel> m =
            trainer.Fit(setup_.world.train, setup_.world.bench.registry);
        times.push_back(SecondsSince(t0));
        r_->attempted++;
        if (!m.ok()) {
          r_->failed++;
          std::fprintf(stderr, "fit failed: %s\n", m.status().ToString().c_str());
          return false;
        }
        f.model = std::move(m).value();
      }
      f.fit_s = Median(times);
      out->push_back(std::move(f));
    }
    return true;
  }

  const TrainedModel& Served(const std::vector<Fitted>& fitted) const {
    for (const Fitted& f : fitted) {
      if (f.kind == spec_.served) return f.model;
    }
    return fitted.back().model;
  }

  std::string ArtifactPath() const { return opt_.out_dir + "/model.idamodel"; }

  // Leave-one-out phase; returns queries per second. offline_train runs
  // the paper's engine::EvaluateLoocv on every model; the other workloads
  // run PredictLoo over a fixed stride of the served model's samples.
  double TimedLoocv(const std::vector<Fitted>& fitted,
                    std::vector<ida::engine::EvaluationReport>* reports) {
    if (!spec_.full_loocv) {
      const LoocvRun run = CounterPass(fitted, nullptr);
      r_->attempted += run.queries;
      return run.seconds > 0.0 ? static_cast<double>(run.queries) / run.seconds : 0.0;
    }
    size_t queries = 0;
    double seconds = 0.0;
    for (const Fitted& f : fitted) {
      const auto t0 = Clock::now();
      ida::Result<ida::engine::EvaluationReport> rep = ida::engine::EvaluateLoocv(
          f.model, opt_.seed, ida::obs::DisabledObsConfig());
      seconds += SecondsSince(t0);
      r_->attempted++;
      if (!rep.ok()) {
        r_->failed++;
        continue;
      }
      queries += rep->samples;
      reports->push_back(*rep);
    }
    return seconds > 0.0 ? static_cast<double>(queries) / seconds : 0.0;
  }

  /// Strided PredictLoo over the served model (every model on
  /// offline_train), summing per-query work counters into `totals` when
  /// given. Returns the queries and their wall time.
  LoocvRun CounterPass(const std::vector<Fitted>& fitted,
                       ida::PredictStats* totals) {
    LoocvRun all;
    for (const Fitted& f : fitted) {
      if (!spec_.full_loocv && f.kind != spec_.served) continue;
      const ida::IKnnClassifier cls = ClassifierOf(f.model, true);
      const LoocvRun run =
          LoocvPass(cls, HashSelected(f.model, spec_.loocv_stride), totals != nullptr);
      all.queries += run.queries;
      all.seconds += run.seconds;
      if (totals != nullptr) Accumulate(run, totals);
    }
    return all;
  }

  static void Accumulate(const LoocvRun& run, ida::PredictStats* totals) {
    totals->ted.display_computes += run.totals.ted.display_computes;
    totals->index.Merge(run.totals.index);
  }

  // Brute-force and in-memory answers on a fixed sample of timed steps.
  void CheckReference(const TrainedModel& model,
                      const std::vector<SessionAnswers>& round) {
    const World& w = setup_.world;
    ida::ActionExecutor exec;
    auto mem = Predictor::Load(model, ida::obs::DisabledObsConfig());
    checks_.Expect(mem.ok(), "in-memory predictor failed to load");
    if (!mem.ok()) return;
    size_t checked = 0, abstentions = 0;
    std::map<size_t, std::unique_ptr<ida::SessionTree>> trees;
    for (const auto& [pos, step] : PickReferenceSteps(round, spec_.reference_steps)) {
      auto& tree = trees[pos];
      if (tree == nullptr && !ReplayTree(w, w.timed[pos], exec, &tree)) {
        checks_.Expect(false, "a timed session does not replay");
        continue;
      }
      const Answer served = round[pos][static_cast<size_t>(step - 1)];
      const Answer brute = BruteForceAnswer(model, *tree, step);
      const Answer in_memory = FromPrediction(mem->PredictState(*tree, step));
      checks_.Expect(SameAnswer(served, brute),
                     "served answer differs from brute-force kNN at " +
                         w.record(w.timed[pos]).session_id + "@" + std::to_string(step));
      checks_.Expect(SameAnswer(served, in_memory),
                     "loaded artifact differs from in-memory model at " +
                         w.record(w.timed[pos]).session_id + "@" + std::to_string(step));
      ++checked;
      if (brute.label < 0) ++abstentions;
    }
    std::printf("{\"reference_check\":{\"steps\":%zu,\"abstentions\":%zu}}\n",
                checked, abstentions);
  }

  void CheckRoundsAgree(const std::vector<std::vector<SessionAnswers>>& rounds,
                        const std::vector<SessionAnswers>& against,
                        const char* what) {
    size_t mismatches = 0;
    for (const auto& round : rounds) {
      for (size_t s = 0; s < round.size() && s < against.size(); ++s) {
        for (size_t k = 0; k < round[s].size(); ++k) {
          if (!round[s][k].ok) continue;  // counted as a failed operation
          if (!SameAnswer(round[s][k], against[s][k])) ++mismatches;
        }
      }
    }
    checks_.Expect(mismatches == 0, std::string(what) + ": " +
                                        std::to_string(mismatches) +
                                        " answers differ");
  }

  void CheckAccuracy(const std::vector<Fitted>& fitted,
                     const std::vector<ida::engine::EvaluationReport>& reports) {
    for (size_t i = 0; i < reports.size() && i < fitted.size(); ++i) {
      const auto& rep = reports[i];
      std::printf(
          "{\"loocv\":{\"model\":\"%s\",\"samples\":%zu,\"knn_accuracy\":%.4f,"
          "\"knn_coverage\":%.4f,\"random_accuracy\":%.4f}}\n",
          KindName(fitted[i].kind), rep.samples, rep.knn.accuracy,
          rep.knn.coverage, rep.random.accuracy);
      checks_.Expect(rep.knn.accuracy > rep.random.accuracy,
                     std::string(KindName(fitted[i].kind)) +
                         ": I-kNN accuracy not above RANDOM");
    }
  }

  /// Indexed leave-one-out answers equal the unindexed scan's, bitwise, on
  /// a fixed stride of queries.
  void CheckIndexedLoocv(const std::vector<Fitted>& fitted) {
    for (const Fitted& f : fitted) {
      const ida::IKnnClassifier indexed = ClassifierOf(f.model, true);
      const ida::IKnnClassifier brute = ClassifierOf(f.model, false);
      const std::vector<size_t> ids = HashSelected(f.model, spec_.loocv_stride);
      const LoocvRun a = LoocvPass(indexed, ids, false);
      const LoocvRun b = LoocvPass(brute, ids, false);
      size_t diff = 0;
      for (size_t i = 0; i < ids.size(); ++i) {
        if (!SameAnswer(FromPrediction(a.answers[i]), FromPrediction(b.answers[i]))) ++diff;
      }
      checks_.Expect(indexed.index() != nullptr,
                     std::string(KindName(f.kind)) + ": model carries no index");
      checks_.Expect(diff == 0, std::string(KindName(f.kind)) + ": " +
                                    std::to_string(diff) +
                                    " indexed LOOCV answers differ from the scan");
    }
  }

  // Labels of the Normalized comparison, recomputed (cheap).
  void CheckNormalizedLabels() {
    const ModelConfig c = ConfigFor(ModelKind::kNormalized);
    auto repo = ida::engine::Replay(setup_.world.train, setup_.world.bench.registry);
    checks_.Expect(repo.ok(), "replay of the training log failed");
    if (!repo.ok()) return;
    auto labeler = ida::engine::MakeLabeler(c, *repo);
    checks_.Expect(labeler.ok(), "Normalized labeler failed");
    if (!labeler.ok()) return;
    auto labeled = ida::LabelRepository(*repo, labeler->get());
    checks_.Expect(labeled.ok(), "Normalized labeling failed");
    if (labeled.ok()) CheckDominance(checks_, *labeled, c.measures.size(), "normalized");
  }

  bool RunTimed() {
    const World& w = setup_.world;
    std::vector<Fitted> fitted;
    if (!FitModels(&fitted)) return false;
    Mark("fit");
    const TrainedModel& served = Served(fitted);
    double fit_s = 0.0;
    for (const Fitted& f : fitted) fit_s += f.fit_s;

    r_->attempted++;
    if (!served.SaveToFile(ArtifactPath()).ok()) {
      r_->failed++;
      std::fprintf(stderr, "artifact save failed\n");
      return false;
    }
    ida::Result<Predictor> loaded =
        Predictor::LoadFromFile(ArtifactPath(), ida::obs::DisabledObsConfig());
    r_->attempted++;
    if (!loaded.ok()) {
      r_->failed++;
      std::fprintf(stderr, "artifact load failed\n");
      return false;
    }
    const auto predictor = std::make_shared<const Predictor>(std::move(loaded).value());

    Mark("artifact");
    std::vector<ida::engine::EvaluationReport> reports;
    const double loocv_per_s = TimedLoocv(fitted, &reports);
    Mark("loocv");

    ida::serve::SessionManager manager(predictor, {}, ida::obs::DisabledObsConfig());
    if (!w.warmup.empty()) {
      const ServeRun warm = ServeRounds(manager, w, w.warmup, 0.0, 0, "w", opt_.seed);
      checks_.Expect(warm.ops.failed == 0, "warm-up operations failed");
    }
    const ServeRun run = ServeRounds(manager, w, w.timed, opt_.seconds,
                                     spec_.min_advises, "t", opt_.seed);
    r_->attempted += run.ops.attempted;
    r_->failed += run.ops.failed;
    std::printf(
        "{\"serve\":{\"rounds\":%zu,\"advises\":%zu,\"appends\":%zu,"
        "\"wall_s\":%.3f}}\n",
        run.answers.size(), run.advises, run.append_s.size(), run.wall_s);

    Mark("serve");
    CheckRoundsAgree(run.answers, run.answers.front(), "rounds of the timed run");
    CheckReference(served, run.answers.front());
    if (spec_.full_loocv) {
      CheckAccuracy(fitted, reports);
      CheckIndexedLoocv(fitted);
      CheckNormalizedLabels();
    }
    PrintFingerprint(spec_, w, served, CountSteps(w, w.timed));
    Mark("checks");

    const LatencySummary advise = Summarize(run.advise_s, spec_.tail_pct);
    const LatencySummary append = Summarize(run.append_s);
    std::printf(
        "{\"advise_ms\":{\"count\":%zu,\"p50\":%.4f,\"p%g\":%.4f},"
        "\"append_us\":{\"count\":%zu,\"p50\":%.2f}}\n",
        advise.count, advise.p50 * 1e3, advise.tail_pct, advise.tail * 1e3,
        append.count, append.p50 * 1e6);
    checks_.Expect(advise.tail_pct > 0.0, "too few advises for the tail percentile");

    Put(r_, "setup_s", setup_.setup_s, "s");
    Put(r_, "fit_s", fit_s, "s");
    Put(r_, "loocv_per_s", loocv_per_s, "1/s");
    Put(r_, "advise_p50_ms", advise.p50 * 1e3, "ms");
    Put(r_, "advise_tail_ms", advise.tail * 1e3, "ms");
    Put(r_, "advise_per_s",
        run.wall_s > 0.0 ? static_cast<double>(run.advises) / run.wall_s : 0.0, "1/s");
    Put(r_, "append_p50_us", append.p50 * 1e6, "us");
    Put(r_, "peak_rss_mb", PeakRssMb(), "MB");
    return true;
  }

  // -------------------------------------------------------------------------
  // Traced run.

  /// The labels of one model kind through the calls Trainer::Fit starts
  /// with (engine::Replay -> engine::MakeLabeler -> LabelRepository): the
  /// dominance check needs the labels, and the per-layer metrics need the
  /// labeler's ComparisonTimings, which Trainer::Fit does not expose.
  bool Label(ModelKind kind, std::vector<ida::LabeledStep>* labels) {
    const ModelConfig config = ConfigFor(kind);
    const World& w = setup_.world;
    auto repo = ida::engine::Replay(w.train, w.bench.registry);
    if (!repo.ok()) return false;
    const int s = spans_.Begin(kind == ModelKind::kReference ? "offline.make_labeler"
                                                             : "stats.normalize");
    auto labeler = ida::engine::MakeLabeler(config, *repo);
    spans_.End(s);
    if (!labeler.ok()) return false;
    auto labeled = ida::LabelRepository(*repo, labeler->get());
    if (!labeled.ok()) return false;
    const ida::ComparisonTimings& t = (*labeler)->timings();
    if (kind == ModelKind::kReference) {
      reference_execute_s_ += t.action_execution;
      reference_executes_ += static_cast<double>(t.reference_actions_executed);
    }
    score_s_ += t.score_calculation;
    *labels = std::move(labeled).value();
    return true;
  }

  bool RunTraced() {
    const World& w = setup_.world;
    for (double g : setup_.generate_s) generate_s_.push_back(g);

    // Trainer::Fit of every model with a registry attached: the offline
    // per-layer times are its own ida.engine.fit.* histograms.
    ida::obs::MetricsRegistry fit_registry;
    ida::obs::ObsConfig fit_obs;
    fit_obs.registry = &fit_registry;
    std::vector<Fitted> fitted;
    for (ModelKind kind : spec_.models) {
      ida::engine::Trainer trainer(ConfigFor(kind), fit_obs);
      auto m = trainer.Fit(w.train, w.bench.registry);
      r_->attempted++;
      if (!m.ok()) {
        r_->failed++;
        std::fprintf(stderr, "fit failed: %s\n", m.status().ToString().c_str());
        return false;
      }
      fitted.push_back({kind, std::move(m).value(), 0.0});
      std::vector<ida::LabeledStep> labels;
      r_->attempted++;
      if (!Label(kind, &labels)) {
        r_->failed++;
        std::fprintf(stderr, "labeling failed\n");
        return false;
      }
      if (kind != ModelKind::kServing) {
        CheckDominance(checks_, labels, ConfigFor(kind).measures.size(), KindName(kind));
      }
    }
    Mark("fit");
    const auto fit_seconds = [&](const char* name) {
      return fit_registry.GetHistogram(name)->sum();
    };
    const TrainedModel& served = Served(fitted);
    int s = spans_.Begin("engine.save");
    const bool saved = served.SaveToFile(ArtifactPath()).ok();
    spans_.End(s);
    r_->attempted++;
    if (!saved) {
      r_->failed++;
      return false;
    }
    const LoadRun load = LoadArtifact(ArtifactPath(), first_query_, kLoads);
    r_->attempted += kLoads;
    if (!load.ok) {
      r_->failed += kLoads;
      return false;
    }
    struct stat st {};
    const double artifact_mb =
        stat(ArtifactPath().c_str(), &st) == 0 ? static_cast<double>(st.st_size) / 1048576.0 : 0.0;

    // Leave-one-out over the fitted models, with per-query counters.
    std::vector<ida::engine::EvaluationReport> reports;
    ida::PredictStats loo_totals;
    s = spans_.Begin("eval.loocv");
    LoocvRun loo_pass;
    if (spec_.full_loocv) {
      TimedLoocv(fitted, &reports);
    } else {
      loo_pass = CounterPass(fitted, &loo_totals);
    }
    spans_.End(s);
    if (spec_.full_loocv) loo_pass = CounterPass(fitted, &loo_totals);
    r_->attempted += loo_pass.queries;
    const size_t loo_queries = loo_pass.queries;
    CheckAccuracy(fitted, reports);
    Mark("artifact_loocv");

    // One untimed round through the loaded artifact.
    ida::serve::SessionManager loaded(load.predictor, {}, ida::obs::DisabledObsConfig());
    if (!w.warmup.empty()) ServeRounds(loaded, w, w.warmup, 0.0, 0, "w", opt_.seed);
    const ServeRun round = ServeRounds(loaded, w, w.timed, 0.0, 0, "m", opt_.seed);
    r_->attempted += round.ops.attempted;
    r_->failed += round.ops.failed;

    // The traced single-client round.
    ida::obs::MetricsRegistry serve_registry, mirror_registry;
    ida::obs::ObsConfig serve_obs, mirror_obs;
    serve_obs.registry = &serve_registry;
    mirror_obs.registry = &mirror_registry;
    auto plain_p = Predictor::Load(served, ida::obs::DisabledObsConfig());
    auto traced_p = Predictor::Load(served, serve_obs);
    auto mirror_p = Predictor::Load(served, mirror_obs);
    if (!plain_p.ok() || !traced_p.ok() || !mirror_p.ok()) return false;
    const auto plain_ptr = std::make_shared<const Predictor>(std::move(plain_p).value());
    const auto traced_ptr = std::make_shared<const Predictor>(std::move(traced_p).value());
    const Predictor& mirror = *mirror_p;
    ida::serve::SessionManager plain(plain_ptr, {}, ida::obs::DisabledObsConfig());
    ida::serve::SessionManager traced(traced_ptr, {}, serve_obs);
    // Warm both managers' shared caches as the timed run does.
    for (size_t i : w.warmup) {
      SessionAnswers a;
      std::vector<double> x, y;
      OpCounts ops;
      std::string sid = "w";
      sid += std::to_string(i);
      DriveSession(plain, sid, w, i, &a, &x, &y, &ops);
      DriveSession(traced, sid, w, i, &a, &x, &y, &ops);
    }
    // Counter values after the warm-up: the per-advise figures are deltas.
    std::map<std::string, double> base;
    const auto counter = [&](const char* name) {
      return static_cast<double>(serve_registry.GetCounter(name)->value()) - base[name];
    };
    for (const char* name : kServeCounters) base[name] = counter(name);
    ida::obs::Histogram* search = serve_registry.GetHistogram("ida.engine.predict.distance_seconds");
    ida::obs::Histogram* vote = serve_registry.GetHistogram("ida.engine.predict.vote_seconds");
    const double search_sum0 = search->sum(), vote_sum0 = vote->sum();
    const double search_n0 = static_cast<double>(search->count());
    const double vote_n0 = static_cast<double>(vote->count());
    const size_t traced_sessions = std::min(spec_.traced_sessions, w.timed.size());
    size_t advises = 0, mismatches = 0;
    OpCounts ops;
    for (size_t pos = 0; pos < traced_sessions; ++pos) {
      TraceSession(pos, mirror, plain, traced, round.answers.front()[pos], &ops,
                   &mismatches, &advises);
    }
    r_->attempted += ops.attempted;
    r_->failed += ops.failed;
    Mark("serve_traced");
    checks_.Expect(mismatches == 0,
                   std::to_string(mismatches) +
                       " traced, mirrored or plain answers differ from the "
                       "round through the loaded artifact");
    CheckReference(served, round.answers.front());
    PrintFingerprint(spec_, w, served, CountSteps(w, w.timed));

    // Ground metric on a fixed sample of (live display, pool display) pairs.
    const double ground_pair_us = TimeGroundPairs(served);

    const std::string spans_path = opt_.out_dir + "/spans.tsv";
    checks_.Expect(spans_.WriteFile(spans_path), "could not write the spans");
    std::vector<Span> read_back;
    checks_.Expect(ReadSpans(spans_path, &read_back), "could not read the spans");
    const SpanSummary sum = SummarizeSpans(read_back);
    PrintLayers(sum);
    Mark("checks");

    // Per-layer metrics.
    const auto layer = [&](const char* name) {
      const auto it = sum.layers.find(name);
      return it == sum.layers.end() ? LayerTimes{} : it->second;
    };
    const auto per = [&](double v, double n) { return n > 0.0 ? v / n : 0.0; };
    const double adv = static_cast<double>(advises);
    const double train_n = static_cast<double>(served.size());
    const double pairs = counter("ida.distance.display_cache.computes");
    const double ground_ms = ground_pair_us * per(pairs, adv) / 1e3;
    const LayerTimes advise_l = layer("serve.advise");
    const double advise_mean_ms = per(advise_l.total_s, static_cast<double>(advise_l.count)) * 1e3;
    const double exact = counter("ida.index.exact_teds");
    const double searches = counter("ida.index.searches");
    const double loo_q = static_cast<double>(loo_queries);

    Put(r_, "synth.generate_s", Median(generate_s_), "s");
    Put(r_, "actions.execute_us", layer("actions.execute").median_s * 1e6, "us");
    Put(r_, "actions.reference_execute_s", reference_execute_s_, "s");
    Put(r_, "actions.reference_executes", reference_executes_, "count");
    Put(r_, "measures.score_s", score_s_, "s");
    Put(r_, "stats.normalize_s", layer("stats.normalize").total_s, "s");
    Put(r_, "offline.replay_s", fit_seconds("ida.engine.fit.replay_seconds"), "s");
    Put(r_, "offline.label_s", fit_seconds("ida.engine.fit.label_seconds"), "s");
    Put(r_, "offline.training_set_s", fit_seconds("ida.engine.fit.build_seconds"), "s");
    Put(r_, "index.build_s", fit_seconds("ida.engine.fit.index_build_seconds"), "s");
    Put(r_, "engine.save_ms", layer("engine.save").total_s * 1e3, "ms");
    Put(r_, "engine.load_us", load.load_median_s * 1e6, "us");
    Put(r_, "engine.first_answer_ms", load.first_median_s * 1e3, "ms");
    Put(r_, "engine.artifact_mb", artifact_mb, "MB");
    Put(r_, "eval.loocv_s", layer("eval.loocv").total_s, "s");
    Put(r_, "session.context_us", layer("session.context").median_s * 1e6, "us");
    Put(r_, "distance.prepare_us", layer("distance.prepare").median_s * 1e6, "us");
    Put(r_, "predict.predict_us", layer("predict.predict").median_s * 1e6, "us");
    Put(r_, "predict.search_ms", per(search->sum() - search_sum0, static_cast<double>(search->count()) - search_n0) * 1e3, "ms");
    Put(r_, "predict.vote_us", per(vote->sum() - vote_sum0, static_cast<double>(vote->count()) - vote_n0) * 1e6, "us");
    Put(r_, "distance.ground_pairs_per_advise", per(pairs, adv), "count");
    Put(r_, "distance.ground_l1_hits_per_advise",
        per(counter("ida.distance.display_cache.l1_hits"), adv), "count");
    Put(r_, "distance.ground_shared_hits_per_advise",
        per(counter("ida.distance.display_cache.shared_hits"), adv), "count");
    Put(r_, "distance.ground_pair_us", ground_pair_us, "us");
    Put(r_, "distance.ground_ms_per_advise", ground_ms, "ms");
    Put(r_, "distance.ground_share_pct", per(100.0 * ground_ms, advise_mean_ms), "%");
    Put(r_, "distance.ted_calls_per_advise", per(counter("ida.distance.ted.calls"), adv), "count");
    Put(r_, "distance.ground_pairs_per_query",
        per(static_cast<double>(loo_totals.ted.display_computes), loo_q), "count");
    Put(r_, "index.exact_teds_per_advise", per(exact, adv), "count");
    Put(r_, "index.core_teds_per_advise", per(counter("ida.index.core_teds"), adv), "count");
    Put(r_, "index.nodes_visited_per_advise", per(counter("ida.index.nodes_visited"), adv), "count");
    Put(r_, "index.pruned_pct", 100.0 * (1.0 - per(exact, searches * train_n)), "%");
    Put(r_, "index.size_pruned_per_advise", per(counter("ida.index.lb_pruned"), adv), "count");
    Put(r_, "index.structure_pruned_per_advise", per(counter("ida.index.structure_pruned"), adv), "count");
    Put(r_, "index.hist_pruned_per_advise", per(counter("ida.index.hist_pruned"), adv), "count");
    Put(r_, "index.triangle_pruned_per_advise", per(counter("ida.index.triangle_pruned"), adv), "count");
    Put(r_, "index.core_pruned_per_advise", per(counter("ida.index.core_pruned"), adv), "count");
    Put(r_, "index.subtree_pruned_per_advise", per(counter("ida.index.subtree_pruned"), adv), "count");
    Put(r_, "index.exact_teds_per_query",
        per(static_cast<double>(loo_totals.index.exact_teds), loo_q), "count");
    Put(r_, "index.nodes_visited_per_query",
        per(static_cast<double>(loo_totals.index.nodes_visited), loo_q), "count");
    Put(r_, "serve.advise_us", advise_l.median_s * 1e6, "us");
    Put(r_, "serve.append_us", layer("serve.append").median_s * 1e6, "us");
    Put(r_, "serve.overhead_us", sum.overhead_s * 1e6, "us");
    Put(r_, "serve.first_advise_ms", sum.first_advise_s * 1e3, "ms");
    Put(r_, "serve.later_advise_ms", sum.later_advise_s * 1e3, "ms");
    Put(r_, "serve.advise_accounted_pct", sum.advise_accounted_pct, "%");
    Put(r_, "serve.step_accounted_pct", sum.step_accounted_pct, "%");
    Put(r_, "obs.trace_overhead_pct", sum.trace_overhead_pct, "%");
    return true;
  }

  /// Drives one timed session three ways — the plain manager, the manager
  /// with metrics attached, and the mirror built from the layer calls the
  /// manager is made of — rotating their order per step.
  void TraceSession(size_t pos, const Predictor& mirror,
                    ida::serve::SessionManager& plain,
                    ida::serve::SessionManager& traced,
                    const SessionAnswers& loaded, OpCounts* ops,
                    size_t* mismatches, size_t* advises) {
    const World& w = setup_.world;
    const SessionRecord& r = w.record(w.timed[pos]);
    const std::string sid = r.session_id;
    const DisplayPtr& root = w.roots.at(r.dataset_id);
    const int n = mirror.config().n_context_size;
    ops->Add(plain.Open(sid, root, r.user_id, r.dataset_id).ok());
    ops->Add(traced.Open(sid, root, r.user_id, r.dataset_id).ok());
    auto tree = std::make_unique<ida::SessionTree>(sid, r.user_id, r.dataset_id, root);
    ida::NContextBuilder builder(tree.get());
    ida::PredictScratch scratch;
    ida::NContext context;
    ida::FlatContext flat;
    ida::ActionExecutor exec;
    for (size_t k = 0; k < r.steps.size(); ++k) {
      const int step = static_cast<int>(k + 1);
      const auto& [parent, action] = r.steps[k];
      Answer a_plain, a_traced, a_mirror;
      for (int turn = 0; turn < 3; ++turn) {
        switch ((static_cast<int>(k + pos) + turn) % 3) {
          case 0: {
            int s = spans_.Begin("plain.append", -1, sid, step);
            const bool ok = plain.Append(sid, parent, action).ok();
            spans_.End(s);
            ops->Add(ok);
            s = spans_.Begin("plain.advise", -1, sid, step);
            auto p = plain.Advise(sid);
            spans_.End(s);
            ops->Add(p.ok());
            if (p.ok()) a_plain = FromPrediction(*p);
            break;
          }
          case 1: {
            int s = spans_.Begin("serve.append", -1, sid, step);
            const bool ok = traced.Append(sid, parent, action).ok();
            spans_.End(s);
            ops->Add(ok);
            s = spans_.Begin("serve.advise", -1, sid, step);
            auto p = traced.Advise(sid);
            spans_.End(s);
            ops->Add(p.ok());
            if (p.ok()) a_traced = FromPrediction(*p);
            ++*advises;
            break;
          }
          default: {
            const int m = spans_.Begin("mirror.step", -1, sid, step);
            int s = spans_.Begin("actions.execute", m, sid, step);
            const bool ok = tree->ApplyFrom(parent, action, exec).ok();
            spans_.End(s);
            ops->Add(ok);
            s = spans_.Begin("session.context", m, sid, step);
            builder.Extract(tree->num_steps(), n, &context);
            spans_.End(s);
            s = spans_.Begin("distance.prepare", m, sid, step);
            flat = ida::SessionDistance::Prepare(context);
            spans_.End(s);
            s = spans_.Begin("predict.predict", m, sid, step);
            const Prediction p = mirror.PredictPrepared(flat, scratch);
            spans_.End(s);
            spans_.End(m);
            a_mirror = FromPrediction(p);
            break;
          }
        }
      }
      if (!SameAnswer(a_traced, a_mirror) || !SameAnswer(a_traced, a_plain) ||
          !SameAnswer(a_traced, loaded[k])) {
        ++*mismatches;
      }
    }
    ops->Add(plain.Close(sid).ok());
    ops->Add(traced.Close(sid).ok());
  }

  double TimeGroundPairs(const TrainedModel& model) {
    const World& w = setup_.world;
    std::vector<DisplayPtr> live, pool;
    std::vector<std::unique_ptr<ida::SessionTree>> trees;
    ida::ActionExecutor exec;
    for (size_t i : w.timed) {
      std::unique_ptr<ida::SessionTree> tree;
      if (!ReplayTree(w, i, exec, &tree)) continue;
      for (int node = 1; node < tree->num_nodes(); ++node) {
        live.push_back(tree->node(node).display);
      }
      trees.push_back(std::move(tree));
    }
    {
      std::unordered_map<const ida::Display*, bool> seen;
      for (const TrainingSample& s : model.samples()) {
        for (const ida::NContextNode& n : s.context.nodes()) {
          if (seen.emplace(n.display.get(), true).second) pool.push_back(n.display);
        }
      }
    }
    std::vector<std::pair<const ida::Display*, const ida::Display*>> pairs;
    for (size_t a : Strided(live.size(), 64)) {
      for (size_t b : Strided(pool.size(), 32)) {
        pairs.emplace_back(live[a].get(), pool[b].get());
      }
    }
    if (pairs.empty()) return 0.0;
    std::vector<double> per_pair;
    double sink = 0.0;
    for (int pass = 0; pass < 5; ++pass) {
      const auto t0 = Clock::now();
      for (const auto& [a, b] : pairs) sink += ida::DisplayContentDistance(*a, *b);
      per_pair.push_back(SecondsSince(t0) * 1e6 / static_cast<double>(pairs.size()));
    }
    std::printf("{\"ground_pairs\":{\"pairs\":%zu,\"checksum\":%.6f}}\n",
                pairs.size(), sink);
    return Median(per_pair);
  }

  static void PrintLayers(const SpanSummary& sum) {
    std::printf("{\"layers\":{");
    bool first = true;
    for (const auto& [name, l] : sum.layers) {
      std::printf("%s\"%s\":{\"count\":%zu,\"median_us\":%.2f,\"self_median_us\":%.2f,"
                  "\"total_s\":%.4f,\"self_total_s\":%.4f}",
                  first ? "" : ",", name.c_str(), l.count, l.median_s * 1e6,
                  l.self_median_s * 1e6, l.total_s, l.self_total_s);
      first = false;
    }
    std::printf("},\"first_advises\":%zu,\"later_advises\":%zu,"
                "\"advise_accounted_pct\":%.2f,\"step_accounted_pct\":%.2f,"
                "\"trace_overhead_pct\":%.2f}\n",
                sum.first_advises, sum.later_advises, sum.advise_accounted_pct,
                sum.step_accounted_pct, sum.trace_overhead_pct);
  }

  static constexpr const char* kServeCounters[] = {
      "ida.distance.display_cache.computes", "ida.distance.display_cache.l1_hits",
      "ida.distance.display_cache.shared_hits", "ida.distance.ted.calls",
      "ida.index.searches", "ida.index.exact_teds", "ida.index.core_teds",
      "ida.index.nodes_visited", "ida.index.lb_pruned", "ida.index.structure_pruned",
      "ida.index.hist_pruned", "ida.index.triangle_pruned", "ida.index.core_pruned",
      "ida.index.subtree_pruned"};

  const Spec& spec_;
  const RunOptions& opt_;
  RunResult* r_;
  Checks checks_;
  Setup setup_;
  std::unique_ptr<ida::SessionTree> first_tree_;
  ida::NContext first_query_;
  SpanLog spans_;
  Clock::time_point mark_ = Clock::now();
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<double> generate_s_;
  double reference_execute_s_ = 0.0;
  double reference_executes_ = 0.0;
  double score_s_ = 0.0;
};

}  // namespace

bool RunWorkload(const RunOptions& options, RunResult* result) {
  for (const Spec& spec : Specs()) {
    if (options.workload == spec.name) {
      Runner runner(spec, options, result);
      return runner.Run();
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
  return false;
}

}  // namespace perfbench
