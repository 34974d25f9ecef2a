// Plain-text graph serialization, so generated datasets and witnesses can be
// exported to / reloaded from disk (and inspected with standard tools).
//
// Format (line-oriented, '#' comments allowed):
//   rgx 1                      (format version)
//   graph <num_nodes> <num_edges> <num_features> <num_classes>
//   e <u> <v>                  (one per edge)
//   l <node> <label>           (one per labeled node)
//   f <node> <idx>:<value> ... (sparse feature row; omitted rows are zero)
//   n <node> <name>            (optional node name)
//   end                        (trailer; nothing may follow it)
// A file with a version line must end in the trailer, so a truncated one is
// rejected. Files without a version line (older writers, hand-written
// graphs) have no trailer and load as before.
#ifndef ROBOGEXP_GRAPH_IO_H_
#define ROBOGEXP_GRAPH_IO_H_

#include <string>

#include "src/graph/graph.h"
#include "src/util/status.h"

namespace robogexp {

/// Writes `graph` to `path`. Features are stored sparsely.
Status SaveGraph(const Graph& graph, const std::string& path);

/// Reads a graph previously written by SaveGraph.
StatusOr<Graph> LoadGraph(const std::string& path);

}  // namespace robogexp

#endif  // ROBOGEXP_GRAPH_IO_H_
