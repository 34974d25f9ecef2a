#include "perfbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string_view>
#include <utility>

namespace perfbench {
namespace {

thread_local uint64_t t_open_span = 0;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream f(path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << "}\n";
  }
  return static_cast<bool>(f);
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.request = request;
  span_.id = tracer.NextId();
  span_.parent = t_open_span;
  t_open_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_open_span = span_.parent;
  Tracer::Get().Record(span_);
}

namespace {

bool Named(const Span& s, const char* name) {
  return std::string_view(s.name) == name;
}

}  // namespace

double SpanMs(const std::vector<Span>& spans, const char* name, int64_t from,
              int64_t to) {
  int64_t total = 0;
  for (const Span& s : spans) {
    if (Named(s, name) && s.start_ns >= from && s.start_ns < to) {
      total += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(total) / 1e6;
}

double CoveredMs(const std::vector<Span>& spans, const char* parent,
                 const char* child, int64_t from, int64_t to) {
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& s : spans) {
    if (Named(s, child)) children.emplace_back(s.start_ns, s.end_ns);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  for (const Span& p : spans) {
    if (!Named(p, parent) || p.start_ns < from || p.start_ns >= to) continue;
    int64_t reach = p.start_ns;  // end of the union covered so far
    for (const auto& [start, end] : children) {
      if (start >= p.end_ns) break;
      const int64_t lo = std::max(start, reach);
      const int64_t hi = std::min(end, p.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
  }
  return static_cast<double>(covered) / 1e6;
}

robogexp::Matrix TracingModel::InferSubset(
    const robogexp::GraphView& view, const robogexp::Matrix& features,
    const std::vector<robogexp::NodeId>& nodes) const {
  ScopedSpan span(kSpanInfer);
  return inner_->InferSubset(view, features, nodes);
}

std::vector<double> TracingModel::InferNode(const robogexp::GraphView& view,
                                            const robogexp::Matrix& features,
                                            robogexp::NodeId v) const {
  ScopedSpan span(kSpanInfer);
  return inner_->InferNode(view, features, v);
}

robogexp::Matrix TracingModel::InferNodes(
    const robogexp::GraphView& view, const robogexp::Matrix& features,
    const std::vector<robogexp::NodeId>& nodes) const {
  ScopedSpan span(kSpanInfer);
  return inner_->InferNodes(view, features, nodes);
}

robogexp::Matrix TracingModel::BaseLogits(
    const robogexp::GraphView& view, const robogexp::Matrix& features) const {
  ScopedSpan span(kSpanInfer);
  return inner_->BaseLogits(view, features);
}

}  // namespace perfbench
