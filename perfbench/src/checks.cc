#include "perfbench/src/checks.h"

#include <cstdio>

#include "src/graph/view.h"

namespace perfbench {

using robogexp::Edge;
using robogexp::FullView;
using robogexp::Graph;
using robogexp::Label;
using robogexp::NodeId;

void CheckLog::Expect(const std::string& what, bool ok,
                      const std::string& detail) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s: %s\n", what.c_str(), detail.c_str());
}

void CheckLog::KnownFault(const std::string& what, bool ok,
                          const std::string& detail) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "known fault: %s: %s\n", what.c_str(), detail.c_str());
}

Graph Toggled(const Graph& g, const std::vector<Edge>& pairs) {
  Graph out(g.num_nodes());
  for (const Edge& e : g.Edges()) (void)out.AddEdge(e.u, e.v);
  for (const Edge& e : pairs) {
    if (out.HasEdge(e.u, e.v)) {
      (void)out.RemoveEdge(e.u, e.v);
    } else {
      (void)out.AddEdge(e.u, e.v);
    }
  }
  return out;
}

Graph WitnessSubgraph(const Graph& g, const robogexp::Witness& w) {
  Graph out(g.num_nodes());
  for (const Edge& e : w.Edges()) (void)out.AddEdge(e.u, e.v);
  return out;
}

bool IsCounterfactualWitness(const Graph& g, const robogexp::GnnModel& model,
                             const robogexp::Witness& w,
                             const std::vector<NodeId>& nodes,
                             std::string* detail) {
  const Graph sub = WitnessSubgraph(g, w);
  const Graph rest = Toggled(g, w.Edges());
  const FullView full_view(&g), sub_view(&sub), rest_view(&rest);
  for (NodeId v : nodes) {
    const Label l = model.Predict(full_view, g.features(), v);
    if (model.Predict(sub_view, g.features(), v) != l) {
      *detail = "node " + std::to_string(v) + ": M(v, Gs) != M(v, G)";
      return false;
    }
    if (model.Predict(rest_view, g.features(), v) == l) {
      *detail = "node " + std::to_string(v) + ": M(v, G \\ Gs) == M(v, G)";
      return false;
    }
  }
  return true;
}

bool WitnessEdgesPresent(const Graph& g, const robogexp::Witness& w,
                         std::string* detail) {
  for (const Edge& e : w.Edges()) {
    if (!g.HasEdge(e.u, e.v)) {
      *detail = "witness edge " + std::to_string(e.u) + "-" +
                std::to_string(e.v) + " is not in the graph";
      return false;
    }
  }
  return true;
}

bool SamePortfolio(const robogexp::PortfolioState& a,
                   const robogexp::PortfolioState& b, std::string* detail) {
  const char* diff = nullptr;
  if (!(a.witness == b.witness)) {
    diff = "witness";
  } else if (a.witness.protected_pair_keys() !=
             b.witness.protected_pair_keys()) {
    diff = "protected pairs";
  } else if (a.unsecured != b.unsecured) {
    diff = "unsecured set";
  } else if (a.outstanding.size() != b.outstanding.size()) {
    diff = "outstanding flips";
  } else if (a.mutation_version != b.mutation_version) {
    diff = "mutation_version";
  } else if (a.graph_fingerprint != b.graph_fingerprint) {
    diff = "graph fingerprint";
  } else if (a.model_fingerprint != b.model_fingerprint) {
    diff = "model fingerprint";
  }
  for (auto ia = a.outstanding.begin(), ib = b.outstanding.begin();
       diff == nullptr && ia != a.outstanding.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second != ib->second) {
      diff = "outstanding flips";
    }
  }
  if (diff != nullptr) *detail = std::string("differs in ") + diff;
  return diff == nullptr;
}

bool SurvivesDisturbance(const Graph& g, const robogexp::GnnModel& model,
                         const robogexp::Witness& w, NodeId v, Label l,
                         const std::vector<Edge>& flips) {
  const Graph disturbed = Toggled(g, flips);
  const FullView disturbed_view(&disturbed);
  if (model.Predict(disturbed_view, g.features(), v) != l) return false;
  const Graph rest = Toggled(disturbed, w.Edges());
  const FullView rest_view(&rest);
  return model.Predict(rest_view, g.features(), v) != l;
}

}  // namespace perfbench
