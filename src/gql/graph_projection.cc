#include "gql/graph_projection.h"

#include <set>

#include "graph/graph_builder.h"

namespace gpml {

Result<PropertyGraph> ProjectGraph(const PropertyGraph& source,
                                   const MatchOutput& output) {
  std::set<NodeId> nodes;
  std::set<EdgeId> edges;
  for (const ResultRow& row : output.rows) {
    for (const auto& pb : row.bindings) {
      for (const ElementaryBinding& b : pb->reduced) {
        if (b.element.is_node()) {
          nodes.insert(b.element.id);
        } else {
          edges.insert(b.element.id);
        }
      }
    }
  }
  // Close over edge endpoints so the projection is a property graph.
  for (EdgeId e : edges) {
    nodes.insert(source.edge(e).u);
    nodes.insert(source.edge(e).v);
  }

  GraphBuilder builder;
  for (NodeId n : nodes) {
    const ElementView nd = source.node(n);
    builder.AddNode(nd.name, nd.labels(), nd.properties());
  }
  for (EdgeId e : edges) {
    const ElementView ed = source.edge(e);
    if (ed.directed) {
      builder.AddDirectedEdge(ed.name, source.node(ed.u).name,
                              source.node(ed.v).name, ed.labels(),
                              ed.properties());
    } else {
      builder.AddUndirectedEdge(ed.name, source.node(ed.u).name,
                                source.node(ed.v).name, ed.labels(),
                                ed.properties());
    }
  }
  return std::move(builder).Build();
}

}  // namespace gpml
