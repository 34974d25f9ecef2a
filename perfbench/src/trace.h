// In-memory span tracing for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around the calls it makes
// into each robogexp layer (generation, verification, maintenance batches,
// checkpoints, serving requests) and, through TracingModel, around every GNN
// inference the library issues. A span holds its name, start and end, the
// span that was open on the same thread when it began (its parent), and a
// request id shared by the spans of one serving request. Spans stay in
// memory and are written out as JSON lines when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/gnn/model.h"

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = no enclosing span on the recording thread
  uint64_t request = 0;  // 0 = not part of a serving request
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);

  /// Spans recorded so far, in completion order.
  std::vector<Span> Snapshot() const;
  /// Writes every recorded span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span for its scope when tracing is enabled; costs one relaxed
/// load otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Span names, grouped by layer.
inline constexpr const char kSpanGenerate[] = "explain.generate";
inline constexpr const char kSpanVerify[] = "explain.verify";
inline constexpr const char kSpanInfer[] = "gnn.infer";
inline constexpr const char kSpanApply[] = "stream.apply";
inline constexpr const char kSpanCheckpoint[] = "stream.checkpoint";
inline constexpr const char kSpanRead[] = "serve.read";
inline constexpr const char kSpanSubmit[] = "serve.submit";
inline constexpr const char kSpanWait[] = "serve.wait";

/// Total duration (ms) of the spans named `name` that began in [from, to).
double SpanMs(const std::vector<Span>& spans, const char* name, int64_t from,
              int64_t to);

/// Part (ms) of the spans named `parent` (begun in [from, to)) that spans
/// named `child` cover, counted once where children overlap — the child
/// share of the parent's self time. Children are matched by time, not by
/// thread, so model calls on paraRoboGExp's workers count toward the
/// coordinating generation span.
double CoveredMs(const std::vector<Span>& spans, const char* parent,
                 const char* child, int64_t from, int64_t to);

/// Forwarding GnnModel that records a gnn.infer span around every inference
/// entry point. Only usable where nothing fingerprints or serializes the
/// model: the model serializer dispatches on the concrete model type, so
/// portfolio checkpoints and AdoptState reject a wrapper.
class TracingModel : public robogexp::GnnModel {
 public:
  explicit TracingModel(const robogexp::GnnModel* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  int num_layers() const override { return inner_->num_layers(); }
  int num_classes() const override { return inner_->num_classes(); }
  int64_t num_features() const override { return inner_->num_features(); }
  int receptive_hops() const override { return inner_->receptive_hops(); }
  bool InferenceIsReceptiveLocal() const override {
    return inner_->InferenceIsReceptiveLocal();
  }
  bool BatchedInferenceAmortizes() const override {
    return inner_->BatchedInferenceAmortizes();
  }

  robogexp::Matrix InferSubset(
      const robogexp::GraphView& view, const robogexp::Matrix& features,
      const std::vector<robogexp::NodeId>& nodes) const override;
  std::vector<double> InferNode(const robogexp::GraphView& view,
                                const robogexp::Matrix& features,
                                robogexp::NodeId v) const override;
  robogexp::Matrix InferNodes(
      const robogexp::GraphView& view, const robogexp::Matrix& features,
      const std::vector<robogexp::NodeId>& nodes) const override;
  robogexp::Matrix BaseLogits(const robogexp::GraphView& view,
                              const robogexp::Matrix& features) const override;

 private:
  const robogexp::GnnModel* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
