#ifndef GPML_GRAPH_GRAPH_BUILDER_H_
#define GPML_GRAPH_GRAPH_BUILDER_H_

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/property_graph.h"

namespace gpml {

/// Constructs PropertyGraph instances. Element names must be unique per kind
/// (they serve as external identifiers, like a1/t5 in the paper); edges refer
/// to endpoint nodes by name, resolved at Build().
///
/// Build rules (tests/property_graph_test.cc):
///  * a label set is a set: duplicates collapse; an empty set stays empty;
///  * a property whose value is NULL is absent (the partial property
///    function of Def. 2.1 is undefined there);
///  * a repeated key in one PropertyList keeps its last value.
///
/// Labels and values are written straight into the graph's interned
/// layout as elements are added; Build() renumbers the symbols into name
/// order and derives the indexes.
///
/// Usage:
///   GraphBuilder b;
///   b.AddNode("a1", {"Account"}, {{"owner", Value::String("Scott")}});
///   b.AddDirectedEdge("t1", "a1", "a3", {"Transfer"},
///                     {{"amount", Value::Int(8'000'000)}});
///   GPML_ASSIGN_OR_RETURN(PropertyGraph g, std::move(b).Build());
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Adds a node; returns its dense id. Duplicate names surface at Build().
  NodeId AddNode(std::string name, std::vector<std::string> labels = {},
                 PropertyList properties = {});

  /// Adds a directed edge from `from` to `to` (by node name).
  void AddDirectedEdge(std::string name, const std::string& from,
                       const std::string& to,
                       std::vector<std::string> labels = {},
                       PropertyList properties = {});

  /// Adds an undirected edge between `a` and `b` (by node name).
  void AddUndirectedEdge(std::string name, const std::string& a,
                         const std::string& b,
                         std::vector<std::string> labels = {},
                         PropertyList properties = {});

  size_t num_nodes() const { return nodes_.names.size(); }
  size_t num_edges() const { return edges_.names.size(); }

  /// Validates names/endpoints and produces the immutable graph.
  Result<PropertyGraph> Build() &&;

 private:
  /// The staged elements of one kind, in the graph's layout but with
  /// symbols numbered in first-seen order (Build() renumbers them).
  struct Staged {
    std::vector<std::string> names;
    std::vector<uint32_t> label_offsets{0};
    std::vector<Symbol> label_syms;
    std::vector<std::vector<Value>> columns;  // [key symbol][element id].
  };

  void Stage(Staged* kind, std::string name,
             const std::vector<std::string>& labels, PropertyList properties);

  SymbolTable labels_;
  SymbolTable keys_;
  Staged nodes_;
  Staged edges_;
  std::vector<EdgeEnds> ends_;  // Directedness; u/v resolved at Build().
  std::vector<std::pair<std::string, std::string>> endpoint_names_;
};

}  // namespace gpml

#endif  // GPML_GRAPH_GRAPH_BUILDER_H_
