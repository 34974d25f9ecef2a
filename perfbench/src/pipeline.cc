#include "perfbench/src/pipeline.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>

#include "perfbench/src/checks.h"
#include "perfbench/src/trace.h"
#include "src/datasets/disturbance.h"
#include "src/datasets/synthetic.h"
#include "src/explain/para.h"
#include "src/explain/verify.h"
#include "src/gnn/trainer.h"
#include "src/serve/shard_registry.h"
#include "src/stream/maintain.h"
#include "src/stream/update.h"
#include "src/util/latency.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace perfbench {

using namespace robogexp;  // NOLINT: the benchmark drives the whole library

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Writes one repetition figure per value to standard error, so the spread
/// behind a run's mean or median can be read from its log.
void LogSeries(const char* what, const std::vector<double>& values) {
  std::fprintf(stderr, "%s:", what);
  for (double v : values) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, "\n");
}

int Cores() {
  return std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
}

// Fixed parts of every workload (README.md, "What a run does").
constexpr double kScale = 0.5;
constexpr int kTestNodes = 80;
constexpr int kLocalBudget = 1;
constexpr int kMinMaintainReps = 3;
// Maintenance phase: 20 batches of 2 updates, 30 % insertions, with a
// checkpoint every 5 batches.
constexpr int kStreamBatches = 20;
constexpr int kUpdatesPerBatch = 2;
constexpr double kInsertFraction = 0.3;
constexpr int kCheckpointEvery = 5;
// Serving phase: Zipf(1) reads, phase B at 3000 reads/s, a flip batch every
// 500 ms. At 1000 reads/s the refills after each batch's invalidations made
// up half of a read's cost and moved it with where the batch fell; at 3000
// they are a smaller share, spread over more reads.
constexpr double kZipfExponent = 1.0;
constexpr double kOpenRatePerS = 3000.0;
constexpr double kFlipIntervalMs = 500.0;

/// Executors of the open-loop phase: a read parked by a maintenance epoch
/// holds up one of them, not the schedule.
constexpr int kOpenLoopExecutors = 8;

/// Alternating closed-loop / open-loop slices of the serving phase.
constexpr int kServeSlices = 6;

/// Seeds of the independent input streams of one run.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ull + stream;
}

// ---------------------------------------------------------------------------
// Set-up: dataset, trained model, explainable nodes
// ---------------------------------------------------------------------------

constexpr uint64_t kTrainSeed = 42;
constexpr uint64_t kPoolSeed = 43;

struct Setup {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<GnnModel> model;
  /// Every node the model classifies correctly and whose label depends on
  /// its neighbourhood (the nodes that can have a counterfactual witness),
  /// ascending.
  std::vector<NodeId> explainable;
};

Setup BuildSetup(const InputSpec& spec) {
  Setup s;
  s.graph = std::make_unique<Graph>(spec.dataset == "PPI"
                                        ? MakePpiSim(kScale)
                                        : MakeCiteSeerSim(kScale));
  TrainOptions topts;
  topts.hidden_dims = {32, 32};
  topts.epochs = 100;
  topts.seed = kTrainSeed;
  s.model =
      TrainGcn(*s.graph, SampleTrainNodes(*s.graph, 0.5, kTrainSeed), topts);
  s.explainable = SelectExplainableTestNodes(*s.model, *s.graph,
                                             s.graph->num_nodes(), {},
                                             kPoolSeed);
  return s;
}

/// One generated portfolio: its seeded test nodes and the generator's
/// result, with the state a maintainer adopts it from.
struct Portfolio {
  std::vector<NodeId> test_nodes;
  GenerateResult gen;
  PortfolioState state;
};

/// An input as a run uses it: set-up and the portfolios generated on it.
/// Maintenance repetitions and serving slices take them in turn, so their
/// medians span several sets of test nodes, not one.
struct Input {
  Setup setup;
  std::vector<Portfolio> portfolios;
};

WitnessConfig MakeConfig(const InputSpec& spec, const Graph* graph,
                         const GnnModel* model, std::vector<NodeId> nodes) {
  WitnessConfig cfg;
  cfg.graph = graph;
  cfg.model = model;
  cfg.test_nodes = std::move(nodes);
  cfg.k = spec.k;
  cfg.local_budget = kLocalBudget;
  cfg.hop_radius = spec.hop_radius;
  cfg.max_ball_nodes = spec.max_ball_nodes;
  cfg.max_contrast_classes = spec.max_contrast_classes;
  return cfg;
}

/// Generation as a user runs it: paraRoboGExp with one worker per core, or
/// sequential RoboGExp on a fresh engine (the body of
/// WitnessMaintainer::Initialize, called directly so its stats show).
GenerateResult Generate(const InputSpec& spec, const WitnessConfig& cfg,
                        ParallelStats* pstats, int workers = Cores()) {
  if (spec.parallel) {
    ParallelOptions popts;
    popts.num_threads = workers;
    return ParaGenerateRcw(cfg, popts, pstats);
  }
  InferenceEngine engine(cfg.model, cfg.graph);
  return GenerateRcw(cfg, MaintainOptions{}.gen, &engine);
}

/// Algorithm 1 for every test node on its own, sharing one engine: the
/// whole portfolio is checked, where one VerifyRcw call over all nodes stops
/// at the first node that fails.
void VerifyEachNode(const WitnessConfig& cfg, const Witness& witness) {
  InferenceEngine engine(cfg.model, cfg.graph);
  WitnessConfig one = cfg;
  for (NodeId v : cfg.test_nodes) {
    one.test_nodes = {v};
    (void)VerifyRcw(one, witness, &engine);
  }
}

/// A seeded stream of deletions and insertions near `focus`, whose
/// deletions spare the pairs in `avoid`.
std::vector<UpdateBatch> SampleStream(const Graph& graph,
                                      const std::vector<NodeId>& focus,
                                      int num_batches, int ops_per_batch,
                                      double insert_fraction,
                                      std::unordered_set<uint64_t> avoid,
                                      Rng* rng) {
  StreamSampleOptions sopts;
  sopts.avoid_keys = std::move(avoid);
  sopts.num_batches = num_batches;
  sopts.ops_per_batch = ops_per_batch;
  sopts.insert_fraction = insert_fraction;
  sopts.focus_nodes = focus;
  sopts.hop_radius = 2;
  return SampleUpdateStream(graph, sopts, rng);
}

PortfolioState StateOf(const GenerateResult& gen, const Graph& graph,
                       const GnnModel& model) {
  PortfolioState state;
  state.witness = gen.witness;
  state.unsecured = gen.unsecured;
  std::sort(state.unsecured.begin(), state.unsecured.end());
  state.mutation_version = graph.mutation_version();
  state.graph_fingerprint = GraphFingerprint(graph);
  state.model_fingerprint = ModelFingerprint(model);
  return state;
}

std::vector<NodeId> Secured(const std::vector<NodeId>& nodes,
                            const std::vector<NodeId>& unsecured) {
  const std::unordered_set<NodeId> skip(unsecured.begin(), unsecured.end());
  std::vector<NodeId> out;
  for (NodeId v : nodes) {
    if (skip.count(v) == 0) out.push_back(v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Phase records
// ---------------------------------------------------------------------------

struct ExplainRep {
  bool traced = false;
  double generate_s = 0.0;
  double verify_s = 0.0;
  double generate_cpu_s = 0.0;
  double verify_cpu_s = 0.0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

struct MaintainRep {
  double maintain_s = 0.0;
  double cpu_s = 0.0;
  double apply_ms = 0.0;
  double tier_ms[5] = {};
  int tier_batches[5] = {};
  int64_t ball_nodes = 0;
  int64_t inference_calls = 0;
  double checkpoint_ms = 0.0;
  EngineStats engine;
};

struct ServeRecord {
  double reads_per_s = 0.0;
  std::vector<double> open_latency_us;
  std::vector<double> open_parked_us;
  std::vector<double> open_unparked_us;
  std::vector<double> generator_late_us;
  SchedulerStats scheduler;
  /// Per-slice percentiles of the scheduler's latency recorders.
  std::vector<double> queue_wait_p50_us, queue_wait_p99_us;
  std::vector<double> ticket_p50_us, ticket_p99_us;
  WaitBufferStats wait_buffer;
  EngineStats engine;
};

int TierIndex(MaintainAction action) {
  switch (action) {
    case MaintainAction::kUntouched:
      return 1;
    case MaintainAction::kCertified:
      return 2;
    case MaintainAction::kResecured:
      return 3;
    case MaintainAction::kRegenerated:
      return 4;
    default:
      return 0;
  }
}

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Rng* rng) const {
    const double u = rng->Uniform();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Process CPU time and completed reads of the serving phases, leaving out
/// the windows in which the applier is inside `Apply`. What remains is the
/// cost of serving beside the write stream: the refills that the stream's
/// invalidations cause are in it, the maintenance work itself is not (that is
/// `maintain_cpu_s`). Every event closes a segment of the timeline; a segment
/// counts toward the phase it lies in unless a batch was being applied.
class ReadLedger {
 public:
  static constexpr int kIdle = -1;
  static constexpr int kPhases = 2;

  void CountRead() { reads_.fetch_add(1, std::memory_order_relaxed); }
  void SetPhase(int phase) {
    std::lock_guard<std::mutex> lock(mu_);
    Close();
    phase_ = phase;
  }
  void BeginApply() {
    std::lock_guard<std::mutex> lock(mu_);
    Close();
    applying_ = true;
  }
  void EndApply() {
    std::lock_guard<std::mutex> lock(mu_);
    Close();
    applying_ = false;
  }
  double cpu_s(int phase) const { return cpu_s_[phase]; }
  int64_t reads(int phase) const { return reads_of_[phase]; }

 private:
  void Close() {
    const double cpu = ProcessCpuSeconds();
    const int64_t reads = reads_.load(std::memory_order_relaxed);
    if (!applying_ && phase_ != kIdle) {
      cpu_s_[phase_] += cpu - mark_cpu_s_;
      reads_of_[phase_] += reads - mark_reads_;
    }
    mark_cpu_s_ = cpu;
    mark_reads_ = reads;
  }

  std::mutex mu_;
  std::atomic<int64_t> reads_{0};
  int phase_ = kIdle;
  bool applying_ = false;
  double mark_cpu_s_ = 0.0;
  int64_t mark_reads_ = 0;
  double cpu_s_[kPhases] = {};
  int64_t reads_of_[kPhases] = {};
};

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

class Run {
 public:
  Run(const WorkloadSpec& spec, const RunOptions& opts)
      : spec_(spec), opts_(opts), open_rng_(StreamSeed(opts.seed, 5)) {
    for (int c = 0; c < Cores() - 1; ++c) {
      client_rngs_.emplace_back(
          StreamSeed(opts.seed, 100 + static_cast<uint64_t>(c)));
    }
  }

  RunResult Execute();

 private:
  void PhaseSetup();
  void PhaseExplain();
  void PrepareLifecycle();
  std::vector<NodeId> PickTestNodes(const Input& input, uint64_t stream,
                                    int index) const;
  void ServeSlice(const Portfolio& portfolio, int slice, double closed_s,
                  double open_s);
  void PhaseMaintain();
  void PhaseServe();
  void CheckPortfolio();
  void CheckFault();
  void Report(RunResult* out) const;

  bool Traced() const { return opts_.trace; }
  double Budget(double share) const { return share * opts_.seconds; }

  const WorkloadSpec& spec_;
  const RunOptions& opts_;
  CheckLog checks_;

  /// The generation input, and the maintenance and serving one (the same
  /// object unless the workload keeps them apart).
  Input explain_in_;
  Input lifecycle_own_;
  Input* life_ = &explain_in_;
  const InputSpec& LifeSpec() const {
    return spec_.lifecycle ? *spec_.lifecycle : spec_.explain;
  }
  /// The maintained configuration of `portfolio` over `graph`, a copy of
  /// the lifecycle input's graph.
  WitnessConfig LifeConfig(const Graph* graph,
                           const Portfolio& portfolio) const {
    return MakeConfig(LifeSpec(), graph, life_->setup.model.get(),
                      portfolio.test_nodes);
  }

  std::vector<double> setup_s_;
  std::vector<ExplainRep> explain_;
  ParallelStats para_;
  std::vector<ParallelStats> para_traced_;

  std::vector<MaintainRep> maintain_;
  std::string checkpoint_path_;
  int64_t checkpoint_bytes_ = 0;

  ServeRecord serve_;
  std::vector<Rng> client_rngs_;
  Rng open_rng_;
  std::atomic<uint64_t> next_request_{0};
  int64_t closed_reads_ = 0;
  double closed_seconds_ = 0.0;
  /// Process CPU time of phase B outside the windows in which a batch was
  /// being applied, and the reads completed in them (ReadLedger).
  double open_cpu_s_ = 0.0;
  int64_t open_reads_ = 0;
  /// Every batch applied, from its due time to the return of Apply: in the
  /// maintenance phase a batch is due when the previous one returned, in
  /// the serving phase at its scheduled time.
  std::vector<double> update_lag_ms_;
};

RunResult Run::Execute() {
  std::filesystem::create_directories(opts_.out_dir);
  checkpoint_path_ = opts_.out_dir + "/" + spec_.name + ".rwp";
  Tracer::Get().set_enabled(false);

  Timer clock;
  auto step = [&](const char* what, void (Run::*phase)()) {
    (this->*phase)();
    std::fprintf(stderr, "[%7.2fs] %s done\n", clock.Seconds(), what);
  };
  step("set-up", &Run::PhaseSetup);
  step("explain", &Run::PhaseExplain);
  if (spec_.lifecycle) {
    step("lifecycle portfolio", &Run::PrepareLifecycle);
  }
  step("portfolio checks", &Run::CheckPortfolio);
  step("maintain", &Run::PhaseMaintain);
  step("serve", &Run::PhaseServe);
  if (spec_.fault_check) step("fault check", &Run::CheckFault);

  RunResult out;
  Report(&out);
  if (Traced()) {
    Tracer::Get().set_enabled(false);
    const std::string path = opts_.out_dir + "/trace-" + spec_.name + "-" +
                             std::to_string(opts_.seed) + ".jsonl";
    if (!Tracer::Get().WriteJsonl(path)) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
  }
  return out;
}

/// Set-up is repeated and its median reported, so work moved into set-up
/// shows against a steady figure.
void Run::PhaseSetup() {
  constexpr int kSetupReps = 3;
  for (int i = 0; i < kSetupReps; ++i) {
    const double cpu0 = ProcessCpuSeconds();
    explain_in_.setup = BuildSetup(spec_.explain);
    setup_s_.push_back(ProcessCpuSeconds() - cpu0);
  }
}

/// The `index`-th set of test nodes drawn from the input's explainable nodes
/// with seed stream `stream`. A pass is the first whole multiple of |VT|
/// explainable nodes (ascending ids, so the same on every seed); consecutive
/// sets are disjoint chunks of one seeded permutation of it, and each pass
/// draws a new permutation. So whole passes cover the same nodes on every
/// seed, grouped differently.
std::vector<NodeId> Run::PickTestNodes(const Input& input, uint64_t stream,
                                       int index) const {
  const auto& pool = input.setup.explainable;
  const int chunks = static_cast<int>(pool.size()) / kTestNodes;
  RCW_CHECK_MSG(chunks >= 1, "dataset has too few explainable nodes");
  const int cycle = index / chunks;
  const int chunk = index % chunks;
  Rng rng(StreamSeed(opts_.seed, stream + 100 * static_cast<uint64_t>(cycle)));
  std::vector<NodeId> order(pool.begin(), pool.begin() + chunks * kTestNodes);
  rng.Shuffle(&order);
  std::vector<NodeId> nodes(order.begin() + chunk * kTestNodes,
                            order.begin() + (chunk + 1) * kTestNodes);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

Portfolio MakePortfolio(const Input& input, std::vector<NodeId> nodes,
                        GenerateResult gen) {
  Portfolio p;
  p.test_nodes = std::move(nodes);
  p.state = StateOf(gen, *input.setup.graph, *input.setup.model);
  p.gen = std::move(gen);
  return p;
}

/// Generation then verification (Alg. 2 or 3, then Alg. 1), repeated, each
/// repetition on its own seeded test nodes. The phase runs a fixed number of
/// whole passes over the explainable nodes (PickTestNodes), so the mean over
/// its repetitions covers the same nodes on every seed. In the traced run
/// repetitions come in pairs on the same nodes, the second one traced, so the
/// two halves give the tracing overhead.
void Run::PhaseExplain() {
  TracingModel tracing_model(explain_in_.setup.model.get());
  const int pass = static_cast<int>(explain_in_.setup.explainable.size()) /
                   kTestNodes * (Traced() ? 2 : 1);
  for (int rep = 0; rep < pass * spec_.explain_passes; ++rep) {
    ExplainRep r;
    r.traced = Traced() && rep % 2 == 1;
    std::vector<NodeId> nodes =
        PickTestNodes(explain_in_, 1000, Traced() ? rep / 2 : rep);
    const WitnessConfig cfg = MakeConfig(
        spec_.explain, explain_in_.setup.graph.get(),
        r.traced ? &tracing_model : explain_in_.setup.model.get(), nodes);
    Tracer::Get().set_enabled(r.traced);
    r.begin_ns = NowNs();
    const double cpu0 = ProcessCpuSeconds();
    ParallelStats pstats;
    Timer timer;
    GenerateResult gen;
    {
      ScopedSpan span(kSpanGenerate);
      gen = Generate(spec_.explain, cfg, &pstats);
    }
    r.generate_s = timer.Seconds();
    r.generate_cpu_s = ProcessCpuSeconds() - cpu0;
    const double cpu1 = ProcessCpuSeconds();
    timer.Reset();
    {
      ScopedSpan span(kSpanVerify);
      VerifyEachNode(cfg, gen.witness);
    }
    r.verify_s = timer.Seconds();
    r.verify_cpu_s = ProcessCpuSeconds() - cpu1;
    r.end_ns = NowNs();
    Tracer::Get().set_enabled(false);
    if (r.traced) para_traced_.push_back(pstats);
    explain_.push_back(r);
    para_ = pstats;
    explain_in_.portfolios.push_back(
        MakePortfolio(explain_in_, std::move(nodes), std::move(gen)));
  }
  std::vector<double> gen_cpu, verify_cpu;
  for (const ExplainRep& r : explain_) {
    gen_cpu.push_back(r.generate_cpu_s);
    verify_cpu.push_back(r.verify_cpu_s);
  }
  LogSeries("generation CPU s", gen_cpu);
  LogSeries("verification CPU s", verify_cpu);
}

/// The input and portfolio the maintenance and serving phases start from,
/// when their input is not the generation input: built once, untimed.
void Run::PrepareLifecycle() {
  constexpr int kLifecyclePortfolios = 5;
  life_ = &lifecycle_own_;
  life_->setup = BuildSetup(LifeSpec());
  for (int i = 0; i < kLifecyclePortfolios; ++i) {
    std::vector<NodeId> nodes =
        PickTestNodes(*life_, 6000, i);
    const WitnessConfig cfg =
        MakeConfig(LifeSpec(), life_->setup.graph.get(),
                   life_->setup.model.get(), nodes);
    life_->portfolios.push_back(MakePortfolio(
        *life_, std::move(nodes), Generate(LifeSpec(), cfg, nullptr)));
  }
}

/// Stream maintenance from the generated portfolio, applied back to back
/// with a checkpoint every few batches, repeated from the same state with
/// another seeded stream each time.
void Run::PhaseMaintain() {
  Tracer::Get().set_enabled(Traced());
  Timer phase;
  for (int rep = 0;; ++rep) {
    const Portfolio& portfolio =
        life_->portfolios[static_cast<size_t>(rep) %
                          life_->portfolios.size()];
    Rng rng(StreamSeed(opts_.seed, 2000 + static_cast<uint64_t>(rep)));
    const std::vector<UpdateBatch> stream = SampleStream(
        *life_->setup.graph, portfolio.test_nodes, kStreamBatches,
        kUpdatesPerBatch, kInsertFraction, portfolio.state.witness.edge_keys(),
        &rng);
    Graph graph = *life_->setup.graph;
    WitnessMaintainer maintainer(&graph, LifeConfig(&graph, portfolio));
    RCW_CHECK(maintainer.AdoptState(portfolio.state).ok());
    MaintainRep r;
    const EngineStats before = maintainer.engine().stats();
    const double cpu0 = ProcessCpuSeconds();
    Timer total;
    for (size_t i = 0; i < stream.size(); ++i) {
      Timer apply;
      StatusOr<MaintainReport> report = [&] {
        ScopedSpan span(kSpanApply);
        return maintainer.Apply(stream[i]);
      }();
      const double ms = apply.Millis();
      update_lag_ms_.push_back(ms);
      RCW_CHECK_MSG(report.ok(), report.status().ToString().c_str());
      const int tier = TierIndex(report.value().action);
      r.apply_ms += ms;
      r.tier_ms[tier] += ms;
      ++r.tier_batches[tier];
      r.ball_nodes += report.value().ball_nodes;
      r.inference_calls += report.value().inference_calls;
      if ((i + 1) % kCheckpointEvery == 0) {
        Timer ckpt;
        ScopedSpan span(kSpanCheckpoint);
        const Status st = maintainer.Checkpoint(checkpoint_path_);
        RCW_CHECK_MSG(st.ok(), st.ToString().c_str());
        r.checkpoint_ms += ckpt.Millis();
      }
    }
    r.maintain_s = total.Seconds();
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    r.engine = maintainer.engine().stats() - before;
    maintain_.push_back(r);

    if (rep + 1 < kMinMaintainReps ||
        phase.Seconds() < Budget(spec_.maintain_share)) {
      continue;
    }
    // Checks of the final maintained state, outside the timed loop.
    std::string detail;
    checks_.Expect("maintained witness edges are graph edges",
                   WitnessEdgesPresent(graph, maintainer.witness(), &detail),
                   detail);
    checks_.Expect(
        "maintained witness is counterfactual for every covered node",
        IsCounterfactualWitness(
            graph, *life_->setup.model, maintainer.witness(),
            Secured(portfolio.test_nodes, maintainer.unsecured()), &detail),
        detail);
    const PortfolioState exported = maintainer.ExportState();
    const StatusOr<PortfolioState> loaded = LoadPortfolio(checkpoint_path_);
    const bool same = loaded.ok() && SamePortfolio(loaded.value(), exported,
                                                   &detail);
    checks_.Expect(".rwp reload equals ExportState()", same,
                   loaded.ok() ? detail : loaded.status().ToString());
    checkpoint_bytes_ = static_cast<int64_t>(
        std::filesystem::file_size(checkpoint_path_));
    break;
  }
  Tracer::Get().set_enabled(false);
  std::vector<double> stream_cpu;
  for (const MaintainRep& r : maintain_) stream_cpu.push_back(r.cpu_s);
  LogSeries("stream CPU s", stream_cpu);
}

/// Reads beside writes on maintained shards, in slices. Each slice restarts
/// one `ServeMaintained` shard from the next portfolio, runs phase A (a
/// closed loop of cores - 1 clients) and then phase B (an open loop at a
/// fixed rate, each read timed from its due time), while one applier applies
/// a flip stream on a fixed schedule. Alternating the phases in slices puts
/// a slow stretch of the machine on both, and rotating the portfolios puts
/// several sets of test nodes behind the figures.
void Run::PhaseServe() {
  const double closed_s = Budget(spec_.closed_share) / kServeSlices;
  const double open_s = Budget(spec_.open_share) / kServeSlices;
  Tracer::Get().set_enabled(Traced());
  for (int k = 0; k < kServeSlices; ++k) {
    ServeSlice(life_->portfolios[static_cast<size_t>(k) %
                                 life_->portfolios.size()],
               k, closed_s, open_s);
  }
  Tracer::Get().set_enabled(false);
  serve_.reads_per_s = static_cast<double>(closed_reads_) / closed_seconds_;
}

void Run::ServeSlice(const Portfolio& portfolio, int slice, double closed_s,
                     double open_s) {
  const uint64_t k = static_cast<uint64_t>(slice);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kFlipIntervalMs));
  Rng stream_rng(StreamSeed(opts_.seed, 3000 + k));
  const std::vector<UpdateBatch> flips = SampleStream(
      *life_->setup.graph, portfolio.test_nodes,
      static_cast<int>((closed_s + open_s) * 1000.0 / kFlipIntervalMs) + 2,
      kUpdatesPerBatch, kInsertFraction, portfolio.state.witness.edge_keys(),
      &stream_rng);

  // Read population: the explained nodes and their witness neighbourhoods,
  // in a seeded popularity order.
  std::vector<NodeId> population = portfolio.state.witness.Nodes();
  for (NodeId v : portfolio.test_nodes) population.push_back(v);
  std::sort(population.begin(), population.end());
  population.erase(std::unique(population.begin(), population.end()),
                   population.end());
  Rng pop_rng(StreamSeed(opts_.seed, 4000 + k));
  pop_rng.Shuffle(&population);
  const Zipf zipf(population.size(), kZipfExponent);

  Graph graph = *life_->setup.graph;
  MaintainOptions mopts;
  mopts.async_batching = true;
  mopts.scheduler.adaptive = true;
  WitnessMaintainer maintainer(&graph, LifeConfig(&graph, portfolio), mopts);
  std::atomic<size_t> applied{0};
  std::set<std::pair<int, NodeId>> requested;
  std::mutex requested_mu;
  ShardRegistry registry;
  StatusOr<GraphShard*> shard_or =
      ServeMaintained(&registry, 0, &maintainer, portfolio.state);
  RCW_CHECK_MSG(shard_or.ok(), shard_or.status().ToString().c_str());
  GraphShard* shard = shard_or.value();
  const InferenceEngine::ViewId views[3] = {InferenceEngine::kFullView,
                                            maintainer.views().sub_id(),
                                            maintainer.views().removed_id()};
  // Caches are filled before timing: every view of every node of the read
  // population.
  for (InferenceEngine::ViewId view : views) {
    shard->Submit(view, population).Wait();
  }
  const EngineStats engine_before = maintainer.engine().stats();
  const SchedulerStats sched_before = maintainer.scheduler()->stats();

  // A read's target: a Zipf-popular node on a view drawn from a fixed mix
  // (half full, a quarter each witness view).
  auto pick = [&](Rng* rng) {
    const NodeId v = population[zipf.Sample(rng)];
    const uint64_t draw = rng->UniformInt(uint64_t{4});
    return std::make_pair(draw < 2 ? 0 : static_cast<int>(draw - 1), v);
  };
  // One read, served through the shard and read back; true when parked.
  ReadLedger ledger;
  auto read = [&](std::pair<int, NodeId> target) {
    const InferenceEngine::ViewId view = views[target.first];
    const uint64_t request = next_request_.fetch_add(1) + 1;
    ScopedSpan span(kSpanRead, request);
    ServeTicket ticket = [&] {
      ScopedSpan submit(kSpanSubmit, request);
      return shard->Submit(view, {target.second});
    }();
    {
      ScopedSpan wait(kSpanWait, request);
      ticket.Wait();
    }
    (void)maintainer.engine().Logits(view, target.second);
    ledger.CountRead();
    {
      std::lock_guard<std::mutex> lock(requested_mu);
      requested.insert(target);
    }
    return ticket.parked();
  };

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point closed_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(closed_s));
  const Clock::time_point end =
      closed_end + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(open_s));

  std::thread applier([&] {
    for (size_t i = 0; i < flips.size(); ++i) {
      const Clock::time_point due = t0 + interval * static_cast<int64_t>(i);
      if (due >= end || Clock::now() >= end) break;
      std::this_thread::sleep_until(due);
      ledger.BeginApply();
      StatusOr<MaintainReport> report = [&] {
        ScopedSpan span(kSpanApply);
        return maintainer.Apply(flips[i]);
      }();
      ledger.EndApply();
      RCW_CHECK_MSG(report.ok(), report.status().ToString().c_str());
      update_lag_ms_.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
      applied = i + 1;
    }
  });

  // Phase A: closed loop.
  ledger.SetPhase(0);
  {
    std::atomic<int64_t> reads{0};
    std::vector<std::thread> clients;
    for (Rng& rng : client_rngs_) {
      clients.emplace_back([&] {
        int64_t n = 0;
        while (Clock::now() < closed_end) {
          (void)read(pick(&rng));
          ++n;
        }
        reads += n;
      });
    }
    for (auto& t : clients) t.join();
    ledger.SetPhase(ReadLedger::kIdle);
    closed_reads_ += reads.load();
    closed_seconds_ +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  }

  // Phase B: open loop. One generator releases each read at its due time to
  // a fixed set of executors, so a parked read holds up one executor, not
  // the schedule.
  {
    struct Due {
      Clock::time_point due;
      std::pair<int, NodeId> target;
    };
    std::deque<Due> queue;
    std::mutex queue_mu;
    std::condition_variable queue_cv;
    bool closed = false;
    std::mutex record_mu;
    std::vector<std::thread> executors;
    for (int e = 0; e < kOpenLoopExecutors; ++e) {
      executors.emplace_back([&] {
        for (;;) {
          Due item;
          {
            std::unique_lock<std::mutex> lock(queue_mu);
            queue_cv.wait(lock, [&] { return closed || !queue.empty(); });
            if (queue.empty()) return;
            item = queue.front();
            queue.pop_front();
          }
          const bool parked = read(item.target);
          const double us = std::chrono::duration<double, std::micro>(
                                Clock::now() - item.due)
                                .count();
          std::lock_guard<std::mutex> lock(record_mu);
          serve_.open_latency_us.push_back(us);
          (parked ? serve_.open_parked_us : serve_.open_unparked_us)
              .push_back(us);
        }
      });
    }
    ledger.SetPhase(1);
    const EngineStats b_before = maintainer.engine().stats();
    const size_t b_applied = applied;
    const Clock::time_point b0 = Clock::now();
    const auto gap = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kOpenRatePerS));
    for (int64_t i = 0;; ++i) {
      const Clock::time_point due = b0 + gap * i;
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      serve_.generator_late_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - due)
              .count());
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        queue.push_back({due, pick(&open_rng_)});
      }
      queue_cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      closed = true;
    }
    queue_cv.notify_all();
    for (auto& t : executors) t.join();
    ledger.SetPhase(ReadLedger::kIdle);
    const EngineStats b_work = maintainer.engine().stats() - b_before;
    std::fprintf(stderr,
                 "slice %d: phase A %lld reads; phase B %lld quiet reads at "
                 "%.1f us CPU each, %zu batches, %lld model invocations\n",
                 slice, static_cast<long long>(ledger.reads(0)),
                 static_cast<long long>(ledger.reads(1)),
                 1e6 * ledger.cpu_s(1) / static_cast<double>(ledger.reads(1)),
                 applied - b_applied,
                 static_cast<long long>(b_work.model_invocations));
    open_cpu_s_ += ledger.cpu_s(1);
    open_reads_ += ledger.reads(1);
  }
  applier.join();

  BatchScheduler* scheduler = maintainer.scheduler();
  serve_.scheduler += scheduler->stats() - sched_before;
  const LatencySummary queue_wait = scheduler->wait_latency().Summarize();
  const LatencySummary ticket = scheduler->ticket_latency().Summarize();
  serve_.queue_wait_p50_us.push_back(queue_wait.p50_us);
  serve_.queue_wait_p99_us.push_back(queue_wait.p99_us);
  serve_.ticket_p50_us.push_back(ticket.p50_us);
  serve_.ticket_p99_us.push_back(ticket.p99_us);
  serve_.engine += maintainer.engine().stats() - engine_before;

  // Every requested logit, as the shard serves it now, against a fresh
  // engine over a replica that applied the same batches with no readers.
  Graph replica_graph = *life_->setup.graph;
  WitnessMaintainer replica(&replica_graph,
                            LifeConfig(&replica_graph, portfolio));
  RCW_CHECK(replica.AdoptState(portfolio.state).ok());
  for (size_t i = 0; i < applied; ++i) {
    RCW_CHECK(replica.Apply(flips[i]).ok());
  }
  checks_.Expect("served witness equals the serialized replica's",
                 maintainer.witness() == replica.witness(),
                 "witnesses differ");
  InferenceEngine fresh(life_->setup.model.get(), &replica_graph);
  WitnessServeViews fresh_views(&fresh, &replica.witness());
  const char* names[3] = {"full", "sub", "removed"};
  int64_t mismatches = 0;
  for (int vi = 0; vi < 3; ++vi) {
    std::vector<NodeId> nodes;
    for (const auto& [view_index, v] : requested) {
      if (view_index == vi) nodes.push_back(v);
    }
    if (nodes.empty()) continue;
    shard->Submit(views[vi], nodes).Wait();
    const InferenceEngine::ViewId ref = fresh_views.views().at(names[vi]);
    for (NodeId v : nodes) {
      if (maintainer.engine().Logits(views[vi], v) != fresh.Logits(ref, v)) {
        ++mismatches;
      }
    }
  }
  checks_.Expect("every requested logit equals a fresh engine's",
                 mismatches == 0,
                 std::to_string(mismatches) + " logit vectors differ");
  const WaitBufferStats wb = shard->wait_buffer()->stats();
  checks_.Expect("parked reads were all woken by events",
                 wb.parked == wb.woken && wb.drained == 0,
                 "parked " + std::to_string(wb.parked) + ", woken " +
                     std::to_string(wb.woken) + ", drained " +
                     std::to_string(wb.drained));
  serve_.wait_buffer.parked += wb.parked;
  serve_.wait_buffer.woken += wb.woken;
  serve_.wait_buffer.epochs += wb.epochs;
}

/// Checks of the generated portfolios (last repetition).
void Run::CheckPortfolio() {
  auto check = [&](const Input& in) {
    const Portfolio& p = in.portfolios.back();
    const GenerateResult& gen = p.gen;
    std::string detail;
    checks_.Expect("witness edges are graph edges",
                   WitnessEdgesPresent(*in.setup.graph, gen.witness, &detail),
                   detail);
    checks_.Expect(
        "witness is counterfactual for every covered node",
        IsCounterfactualWitness(*in.setup.graph, *in.setup.model, gen.witness,
                                Secured(p.test_nodes, gen.unsecured),
                                &detail),
        detail);
  };
  check(explain_in_);
  if (spec_.lifecycle) check(*life_);
}

/// The known fault, on an input fixed apart from the run seed: the first
/// |VT| explainable nodes, a portfolio generated for them, and a fixed
/// stream of sampled protected (k, b) disturbances per node. Every node
/// that Algorithm 1 accepts on its own must stay counterfactual under every
/// sample; each such node is one operation.
void Run::CheckFault() {
  constexpr int kFaultCheckWorkers = 4;
  constexpr uint64_t kSampleSeed = 1;
  constexpr int kSamplesPerNode = 10;
  const Graph& graph = *explain_in_.setup.graph;
  const GnnModel& model = *explain_in_.setup.model;
  const std::vector<NodeId> fixed(
      explain_in_.setup.explainable.begin(),
      explain_in_.setup.explainable.begin() + kTestNodes);
  const WitnessConfig cfg = MakeConfig(spec_.explain, &graph, &model, fixed);
  // A fixed worker count keeps the partition, and so the portfolio, the
  // same on any machine.
  const GenerateResult gen =
      Generate(spec_.explain, cfg, nullptr, kFaultCheckWorkers);
  const std::vector<NodeId> covered = Secured(fixed, gen.unsecured);
  const std::unordered_set<uint64_t> protected_keys =
      gen.witness.ProtectedKeys();
  const FullView full(&graph);

  // Outcome per covered node: -1 rejected by Alg. 1, 0 broken, 1 survives.
  std::vector<int> outcome(covered.size(), -1);
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < Cores(); ++w) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < covered.size(); i = next++) {
        const NodeId v = covered[i];
        WitnessConfig one = cfg;
        one.test_nodes = {v};
        if (!VerifyRcw(one, gen.witness).ok) continue;
        const Label l = model.Predict(full, graph.features(), v);
        Rng rng(kSampleSeed * 1000003ull + static_cast<uint64_t>(v));
        DisturbanceOptions dopts;
        dopts.k = cfg.k;
        dopts.local_budget = cfg.local_budget;
        dopts.focus_nodes = {v};
        dopts.hop_radius = cfg.hop_radius;
        outcome[i] = 1;
        for (int s = 0; s < kSamplesPerNode; ++s) {
          const std::vector<Edge> flips =
              SampleDisturbance(graph, protected_keys, dopts, &rng);
          if (!SurvivesDisturbance(graph, model, gen.witness, v, l, flips)) {
            outcome[i] = 0;
            break;
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  for (size_t i = 0; i < covered.size(); ++i) {
    if (outcome[i] < 0) continue;
    checks_.KnownFault(
        "VerifyRcw-accepted witness survives sampled disturbances",
        outcome[i] == 1,
        "node " + std::to_string(covered[i]) +
            ": a protected disturbance makes (G + E) \\ Gs predict l again");
  }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void Run::Report(RunResult* out) const {
  out->correct = checks_.correct();
  out->attempted = checks_.attempted();
  out->failed = checks_.failed();
  auto add = [&](const char* name, double value, const char* unit) {
    out->metrics.push_back({name, value, unit});
  };
  auto median_of = [](const auto& reps, auto field) {
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(field(r));
    return Median(v);
  };
  auto mean_of = [](const auto& reps, auto field) {
    double total = 0.0;
    for (const auto& r : reps) total += field(r);
    return reps.empty() ? 0.0 : total / static_cast<double>(reps.size());
  };

  if (!Traced()) {
    add("setup_s", Median(setup_s_), "s");
    add("peak_rss_mb", PeakRssMb(), "MB");
    // Means over whole passes of the explainable nodes (PhaseExplain).
    add("generate_cpu_s", mean_of(explain_, [](const ExplainRep& r) {
          return r.generate_cpu_s;
        }), "s");
    add("verify_cpu_s", mean_of(explain_, [](const ExplainRep& r) {
          return r.verify_cpu_s;
        }), "s");
    add("maintain_cpu_s", median_of(maintain_, [](const MaintainRep& r) {
          return r.cpu_s;
        }), "s");
    add("read_cpu_us", 1e6 * open_cpu_s_ / static_cast<double>(open_reads_),
        "us");
    return;
  }

  // Per-layer figures: timings from the traced repetitions, counts from the
  // last repetition of each phase.
  const std::vector<Span> spans = Tracer::Get().Snapshot();
  std::vector<double> gen_ms, verify_ms, infer_ms, self_ms, cpu_s, traced_s,
      plain_s, gen_wall, verify_wall;
  for (const ExplainRep& r : explain_) {
    (r.traced ? traced_s : plain_s).push_back(r.generate_s + r.verify_s);
    if (!r.traced) {
      gen_wall.push_back(r.generate_s);
      verify_wall.push_back(r.verify_s);
      continue;
    }
    const double g = SpanMs(spans, kSpanGenerate, r.begin_ns, r.end_ns);
    const double g_model =
        CoveredMs(spans, kSpanGenerate, kSpanInfer, r.begin_ns, r.end_ns);
    gen_ms.push_back(g);
    verify_ms.push_back(SpanMs(spans, kSpanVerify, r.begin_ns, r.end_ns));
    infer_ms.push_back(
        g_model +
        CoveredMs(spans, kSpanVerify, kSpanInfer, r.begin_ns, r.end_ns));
    self_ms.push_back(g - g_model);
    cpu_s.push_back(r.generate_cpu_s);
  }
  const GenerateResult& last_gen = explain_in_.portfolios.back().gen;
  const GenerateStats& gs = last_gen.stats;
  add("explain.generate_ms", Median(gen_ms), "ms");
  // Wall-clock figures come from the untraced repetitions.
  add("explain.generate_wall_s", Median(gen_wall), "s");
  add("explain.verify_wall_s", Median(verify_wall), "s");
  add("stream.maintain_wall_s", median_of(maintain_, [](const MaintainRep& r) {
        return r.maintain_s;
      }), "s");
  add("explain.self_ms", Median(self_ms), "ms");
  add("explain.pri_calls", gs.pri_calls, "count");
  add("explain.expand_rounds", gs.expand_rounds, "count");
  add("explain.secure_rounds", gs.secure_rounds, "count");
  add("explain.partition_ms",
      median_of(para_traced_, [](const ParallelStats& p) {
        return p.partition_seconds * 1e3;
      }), "ms");
  add("explain.worker_ms", median_of(para_traced_, [](const ParallelStats& p) {
        return p.worker_seconds * 1e3;
      }), "ms");
  add("explain.coordinator_ms",
      median_of(para_traced_, [](const ParallelStats& p) {
        return p.coordinator_seconds * 1e3;
      }), "ms");
  add("explain.coordinator_reverified", para_.coordinator_reverified, "count");
  add("explain.cut_edges", static_cast<double>(para_.cut_edges), "count");
  add("explain.bitmap_bytes", static_cast<double>(para_.bitmap_bytes),
      "bytes");
  add("explain.verify_ms", Median(verify_ms), "ms");
  add("explain.witness_size",
      static_cast<double>(last_gen.witness.Size()),
      "count");
  add("gnn.infer_ms", Median(infer_ms), "ms");

  // Engine work of one pass: generation, the last maintenance repetition
  // and the serving phase.
  EngineStats engine;
  engine.node_queries = gs.node_queries;
  engine.cache_hits = gs.cache_hits;
  engine.model_invocations = gs.inference_calls;
  engine.batched_nodes = gs.batched_nodes;
  if (!maintain_.empty()) engine += maintain_.back().engine;
  engine += serve_.engine;
  add("gnn.model_invocations", static_cast<double>(engine.model_invocations),
      "count");
  add("gnn.node_queries", static_cast<double>(engine.node_queries), "count");
  add("gnn.cache_hits", static_cast<double>(engine.cache_hits), "count");
  add("gnn.cache_hit_ratio",
      engine.node_queries > 0 ? static_cast<double>(engine.cache_hits) /
                                    static_cast<double>(engine.node_queries)
                              : 0.0,
      "ratio");
  add("gnn.batched_nodes", static_cast<double>(engine.batched_nodes), "count");

  add("stream.apply_ms", median_of(maintain_, [](const MaintainRep& r) {
        return r.apply_ms;
      }), "ms");
  static const char* kApplyNames[5] = {
      "", "stream.apply_ms.untouched", "stream.apply_ms.certified",
      "stream.apply_ms.resecured", "stream.apply_ms.regenerated"};
  static const char* kBatchNames[5] = {
      "", "stream.batches.untouched", "stream.batches.certified",
      "stream.batches.resecured", "stream.batches.regenerated"};
  for (int t = 1; t < 5; ++t) {
    add(kApplyNames[t], median_of(maintain_, [t](const MaintainRep& r) {
          return r.tier_ms[t];
        }), "ms");
  }
  for (int t = 1; t < 5; ++t) {
    add(kBatchNames[t],
        maintain_.empty() ? 0.0 : maintain_.back().tier_batches[t], "count");
  }
  const MaintainRep last = maintain_.empty() ? MaintainRep{} : maintain_.back();
  add("stream.ball_nodes", static_cast<double>(last.ball_nodes), "count");
  add("stream.inference_calls", static_cast<double>(last.inference_calls),
      "count");
  add("stream.checkpoint_ms", median_of(maintain_, [](const MaintainRep& r) {
        return r.checkpoint_ms;
      }), "ms");
  add("stream.checkpoint_bytes", static_cast<double>(checkpoint_bytes_),
      "bytes");

  const SchedulerStats& ss = serve_.scheduler;
  add("serve.flushes", static_cast<double>(ss.flushes), "count");
  add("serve.coalesced_flushes", static_cast<double>(ss.coalesced_flushes),
      "count");
  add("serve.size_flushes", static_cast<double>(ss.size_flushes), "count");
  add("serve.deadline_flushes", static_cast<double>(ss.deadline_flushes),
      "count");
  add("serve.fastpath_flushes", static_cast<double>(ss.fastpath_flushes),
      "count");
  add("serve.batch_occupancy", ss.batch_occupancy(), "nodes");
  add("serve.queue_wait_p50_us", Median(serve_.queue_wait_p50_us), "us");
  add("serve.queue_wait_p99_us", Median(serve_.queue_wait_p99_us), "us");
  add("serve.ticket_p50_us", Median(serve_.ticket_p50_us), "us");
  add("serve.ticket_p99_us", Median(serve_.ticket_p99_us), "us");
  add("serve.parked", static_cast<double>(serve_.wait_buffer.parked), "count");
  add("serve.woken", static_cast<double>(serve_.wait_buffer.woken), "count");
  add("serve.epochs", static_cast<double>(serve_.wait_buffer.epochs), "count");
  add("serve.reads_per_s", serve_.reads_per_s, "1/s");
  add("serve.update_lag_ms", Median(update_lag_ms_), "ms");
  add("serve.read_p50_us", Percentile(serve_.open_latency_us, 50), "us");
  add("serve.read_p99_us", Percentile(serve_.open_latency_us, 99), "us");
  add("serve.read_parked_p50_us", Percentile(serve_.open_parked_us, 50), "us");
  add("serve.read_unparked_p50_us", Percentile(serve_.open_unparked_us, 50),
      "us");
  add("serve.generator_late_p99_us", Percentile(serve_.generator_late_us, 99),
      "us");
  add("util.cpu_s", Median(cpu_s), "s");
  const double plain = Median(plain_s);
  add("trace.overhead_pct",
      plain > 0.0 ? 100.0 * (Median(traced_s) - plain) / plain : 0.0, "%");
  add("trace.spans", static_cast<double>(spans.size()), "count");
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    // PPI-sim in the Fig. 4(d) configuration.
    InputSpec ppi;
    ppi.dataset = "PPI";
    ppi.k = 20;
    ppi.hop_radius = 2;
    ppi.max_ball_nodes = 4000;
    ppi.max_contrast_classes = 2;
    ppi.parallel = true;

    // CiteSeer-sim in the stream-maintenance configuration.
    InputSpec citeseer;
    citeseer.dataset = "CiteSeer";
    citeseer.k = 10;
    citeseer.hop_radius = 3;
    citeseer.max_contrast_classes = 3;

    std::vector<WorkloadSpec> w;

    // paraRoboGExp then Algorithm 1 on the densest dataset: ppr, la and gnn
    // do most of the work. Short maintenance and serving phases on
    // CiteSeer-sim complete the end-to-end figures.
    WorkloadSpec dense;
    dense.name = "explain_dense";
    dense.explain = ppi;
    dense.lifecycle = citeseer;
    dense.explain_passes = 1;
    dense.maintain_share = 0.3;
    dense.closed_share = 0.05;
    dense.open_share = 0.35;
    dense.fault_check = true;
    w.push_back(dense);

    // Sequential RoboGExp on CiteSeer-sim, then seeded streams applied back
    // to back with checkpoints, then reads beside a scheduled flip stream on
    // the maintained shard: stream and serve dominate.
    WorkloadSpec stream;
    stream.name = "maintain_stream";
    stream.explain = citeseer;
    stream.explain_passes = 2;
    stream.maintain_share = 0.35;
    stream.closed_share = 0.05;
    stream.open_share = 0.35;
    w.push_back(stream);
    return w;
  }();
  return workloads;
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& opts) {
  Run run(spec, opts);
  return run.Execute();
}

}  // namespace perfbench
