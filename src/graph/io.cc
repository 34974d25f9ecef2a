#include "src/graph/io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>

#include "src/util/atomic_file.h"

namespace robogexp {

namespace {

// The version SaveGraph writes; files without a version line predate it.
constexpr int kGraphFormatVersion = 1;

}  // namespace

Status SaveGraph(const Graph& graph, const std::string& path) {
  AtomicFileWriter writer(path);
  std::ostream& f = writer.stream();
  if (!writer.ok()) return Status::Internal("SaveGraph: cannot open " + path);
  f << "rgx " << kGraphFormatVersion << "\n";
  f << "graph " << graph.num_nodes() << " " << graph.num_edges() << " "
    << graph.num_features() << " " << graph.num_classes() << "\n";
  for (const Edge& e : graph.Edges()) {
    f << "e " << e.u << " " << e.v << "\n";
  }
  if (!graph.labels().empty()) {
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      f << "l " << u << " " << graph.labels()[static_cast<size_t>(u)] << "\n";
    }
  }
  if (graph.num_features() > 0) {
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      bool any = false;
      for (int64_t c = 0; c < graph.num_features(); ++c) {
        if (graph.features().at(u, c) != 0.0) {
          any = true;
          break;
        }
      }
      if (!any) continue;
      f << "f " << u;
      for (int64_t c = 0; c < graph.num_features(); ++c) {
        const double v = graph.features().at(u, c);
        if (v != 0.0) f << " " << c << ":" << v;
      }
      f << "\n";
    }
  }
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if (!graph.NodeName(u).empty()) {
      f << "n " << u << " " << graph.NodeName(u) << "\n";
    }
  }
  f << "end\n";
  return writer.Commit("SaveGraph");
}

namespace {

// Parses all of `text` as a number; false on an empty, partial or
// out-of-range parse.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

StatusOr<Graph> LoadGraph(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("LoadGraph: cannot open " + path);
  std::string line;
  Graph graph;
  Matrix features;
  std::vector<Label> labels;
  int num_classes = 0;
  int64_t declared_edges = 0;
  int64_t edges_read = 0;
  bool header_seen = false;
  // A versioned file must end in an `end` trailer, since the label, feature
  // and name sections declare no counts; unversioned files have no trailer.
  bool versioned = false;
  bool ended = false;

  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (ended) {
      return Status::InvalidArgument("LoadGraph: data after end trailer");
    }
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag == "rgx") {
      int version = 0;
      if (versioned || header_seen || !(ss >> version) ||
          version != kGraphFormatVersion) {
        return Status::InvalidArgument("LoadGraph: bad version line");
      }
      versioned = true;
    } else if (tag == "graph") {
      NodeId n;
      int64_t nf;
      ss >> n >> declared_edges >> nf >> num_classes;
      if (!ss || n < 0 || declared_edges < 0 || nf < 0) {
        return Status::InvalidArgument("LoadGraph: bad header");
      }
      graph = Graph(n);
      features = Matrix(n, nf);
      labels.assign(static_cast<size_t>(n), 0);
      header_seen = true;
    } else if (!header_seen) {
      return Status::InvalidArgument("LoadGraph: data before header");
    } else if (tag == "e") {
      NodeId u, v;
      if (!(ss >> u >> v)) {
        return Status::InvalidArgument("LoadGraph: bad edge");
      }
      RCW_RETURN_IF_ERROR(graph.AddEdge(u, v));
      ++edges_read;
    } else if (tag == "l") {
      NodeId u;
      Label l;
      if (!(ss >> u >> l) || !graph.ValidNode(u)) {
        return Status::InvalidArgument("LoadGraph: bad label node");
      }
      labels[static_cast<size_t>(u)] = l;
    } else if (tag == "f") {
      NodeId u;
      if (!(ss >> u) || !graph.ValidNode(u)) {
        return Status::InvalidArgument("LoadGraph: bad feature node");
      }
      std::string pair;
      while (ss >> pair) {
        const size_t colon = pair.find(':');
        int64_t idx;
        double value;
        if (colon == std::string::npos ||
            !ParseWhole(pair.substr(0, colon), &idx) ||
            !ParseWhole(pair.substr(colon + 1), &value)) {
          return Status::InvalidArgument("LoadGraph: bad feature pair");
        }
        if (idx < 0 || idx >= features.cols()) {
          return Status::InvalidArgument("LoadGraph: feature index range");
        }
        features.at(u, idx) = value;
      }
    } else if (tag == "n") {
      NodeId u;
      std::string name;
      if (!(ss >> u >> name) || !graph.ValidNode(u)) {
        return Status::InvalidArgument("LoadGraph: bad name node");
      }
      graph.SetNodeName(u, name);
    } else if (tag == "end" && versioned) {
      ended = true;
    } else {
      return Status::InvalidArgument("LoadGraph: unknown tag " + tag);
    }
  }
  if (!header_seen) return Status::InvalidArgument("LoadGraph: empty file");
  if (versioned && !ended) {
    return Status::InvalidArgument(
        "LoadGraph: missing end trailer (truncated file)");
  }
  if (edges_read != declared_edges) {
    return Status::InvalidArgument("LoadGraph: header declares " +
                                   std::to_string(declared_edges) +
                                   " edges, file has " +
                                   std::to_string(edges_read));
  }
  if (features.cols() > 0) graph.SetFeatures(std::move(features));
  if (num_classes > 0) graph.SetLabels(std::move(labels), num_classes);
  return graph;
}

}  // namespace robogexp
