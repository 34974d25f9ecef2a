// Output checks, computed apart from the code under test: graphs the
// benchmark builds itself from edge lists, and direct GnnModel inference on
// them. Every check counts as one attempted operation.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/explain/witness.h"
#include "src/gnn/model.h"
#include "src/graph/graph.h"
#include "src/stream/portfolio_io.h"

namespace perfbench {

class CheckLog {
 public:
  /// A check of a property the program guarantees: a failure makes the run
  /// incorrect.
  void Expect(const std::string& what, bool ok, const std::string& detail);
  /// A check that exposes the fault named in README.md ("Known fault"): a
  /// failure is counted, and the run stays correct.
  void KnownFault(const std::string& what, bool ok, const std::string& detail);

  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// G with the listed pairs toggled (present edges removed, absent ones
/// inserted). Structure only: inference takes features separately.
robogexp::Graph Toggled(const robogexp::Graph& g,
                        const std::vector<robogexp::Edge>& pairs);

/// The witness subgraph Gs on G's node set.
robogexp::Graph WitnessSubgraph(const robogexp::Graph& g,
                                const robogexp::Witness& w);

/// M(v, G) = l, M(v, Gs) = l and M(v, G \ Gs) != l for every node listed,
/// by direct inference. On failure names the first failing node.
bool IsCounterfactualWitness(const robogexp::Graph& g,
                             const robogexp::GnnModel& model,
                             const robogexp::Witness& w,
                             const std::vector<robogexp::NodeId>& nodes,
                             std::string* detail);

/// Every witness edge is an edge of g.
bool WitnessEdgesPresent(const robogexp::Graph& g, const robogexp::Witness& w,
                         std::string* detail);

/// Field-by-field equality of two portfolio states.
bool SamePortfolio(const robogexp::PortfolioState& a,
                   const robogexp::PortfolioState& b, std::string* detail);

/// Does the disturbance `flips` keep w a counterfactual witness of v with
/// label l: M(v, G ⊕ E) = l and M(v, (G ⊕ E) \ Gs) != l.
bool SurvivesDisturbance(const robogexp::Graph& g,
                         const robogexp::GnnModel& model,
                         const robogexp::Witness& w, robogexp::NodeId v,
                         robogexp::Label l,
                         const std::vector<robogexp::Edge>& flips);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
