#include "src/explain/witness_io.h"

#include <fstream>
#include <sstream>
#include <string>

#include "src/util/atomic_file.h"

namespace robogexp {

Status SaveWitness(const Witness& witness, const std::string& path) {
  AtomicFileWriter writer(path);
  std::ostream& f = writer.stream();
  if (!writer.ok()) return Status::Internal("SaveWitness: cannot open " + path);
  f << "witness " << witness.num_nodes() << " " << witness.num_edges() << "\n";
  for (NodeId u : witness.Nodes()) f << "node " << u << "\n";
  for (const Edge& e : witness.Edges()) {
    f << "edge " << e.u << " " << e.v << "\n";
  }
  return writer.Commit("SaveWitness");
}

StatusOr<Witness> LoadWitness(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("LoadWitness: cannot open " + path);
  std::string line;
  Witness w;
  bool header = false;
  size_t declared_nodes = 0, declared_edges = 0;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag == "witness") {
      if (header || !(ss >> declared_nodes >> declared_edges)) {
        return Status::InvalidArgument("LoadWitness: bad header");
      }
      header = true;
    } else if (!header) {
      return Status::InvalidArgument("LoadWitness: data before header");
    } else if (tag == "node") {
      NodeId u;
      if (!(ss >> u)) return Status::InvalidArgument("LoadWitness: bad node");
      w.AddNode(u);
    } else if (tag == "edge") {
      NodeId u, v;
      if (!(ss >> u >> v) || u == v) {
        return Status::InvalidArgument("LoadWitness: bad edge");
      }
      w.AddEdge(u, v);
    } else {
      return Status::InvalidArgument("LoadWitness: unknown tag " + tag);
    }
  }
  if (!header) return Status::InvalidArgument("LoadWitness: empty file");
  if (w.num_nodes() != declared_nodes || w.num_edges() != declared_edges) {
    return Status::InvalidArgument(
        "LoadWitness: header declares " + std::to_string(declared_nodes) +
        " nodes and " + std::to_string(declared_edges) + " edges, file has " +
        std::to_string(w.num_nodes()) + " and " +
        std::to_string(w.num_edges()));
  }
  return w;
}

}  // namespace robogexp
