// The benchmark's workloads: one robogexp lifecycle — set-up, witness
// generation, verification, stream maintenance, serving beside writes —
// whose phases each workload weights differently (see README.md).
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// One input: a simulated dataset at scale 0.5, a GCN trained on it, 80
/// explained nodes drawn by the run seed from the dataset's explainable
/// nodes, and the witness configuration C = (G, VT, M, k) with b = 1.
struct InputSpec {
  std::string dataset;  // "PPI" or "CiteSeer"
  int k = 10;
  int hop_radius = 3;
  int max_ball_nodes = 20000;
  int max_contrast_classes = 0;
  /// paraRoboGExp (Alg. 3) on one worker per core; otherwise sequential
  /// RoboGExp (Alg. 2).
  bool parallel = false;
};

struct WorkloadSpec {
  std::string name;

  /// Input of the generation and verification phase.
  InputSpec explain;
  /// Input of the maintenance and serving phases, when it is another one.
  /// Maintenance on PPI-sim can regenerate the whole portfolio on most
  /// batches (see README.md), so explain_dense maintains and serves
  /// CiteSeer-sim.
  std::optional<InputSpec> lifecycle;

  /// Whole passes over the explainable nodes in the explain phase.
  int explain_passes = 1;
  /// Shares of --seconds given to the other timed phases.
  double maintain_share = 0.2;
  double closed_share = 0.15;
  double open_share = 0.15;

  /// Check Algorithm 1's verdicts against sampled disturbances on a fixed,
  /// seed-independent input (see README.md, "Known fault").
  bool fault_check = false;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for checkpoints and the span dump.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
