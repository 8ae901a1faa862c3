#ifndef GPML_GRAPH_ADJACENCY_H_
#define GPML_GRAPH_ADJACENCY_H_

#include <cstdint>

namespace gpml {

/// Dense integer handle of a node within one PropertyGraph.
using NodeId = uint32_t;
/// Dense integer handle of an edge within one PropertyGraph.
using EdgeId = uint32_t;

inline constexpr uint32_t kInvalidId = 0xffffffffu;

/// How an edge is traversed within a path: a directed edge can be walked
/// along its direction (forward) or against it (backward); an undirected
/// edge has no orientation. Edge patterns of Figure 5 constrain which
/// traversals are admissible.
enum class Traversal : uint8_t { kForward, kBackward, kUndirected };

/// An edge's endpoint function (Def. 2.1): for directed edges the source
/// `u` and target `v`; for undirected edges the two endpoints in insertion
/// order. Self-loops (u == v) are allowed either way.
struct EdgeEnds {
  NodeId u = kInvalidId;
  NodeId v = kInvalidId;
  bool directed = true;
};

/// An incident-edge record in a node's adjacency range (and in the
/// label-partitioned buckets of CsrIndex, which store the same records
/// grouped by edge-label symbol).
struct Adjacency {
  EdgeId edge;
  NodeId neighbor;       // The endpoint reached by this traversal.
  Traversal traversal;   // How `edge` is crossed when leaving this node.
};

}  // namespace gpml

#endif  // GPML_GRAPH_ADJACENCY_H_
