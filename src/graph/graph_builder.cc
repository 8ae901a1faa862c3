#include "graph/graph_builder.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace gpml {

namespace {

/// Renumbers `table`'s symbols into name order; returns old -> new.
std::vector<Symbol> SortSymbols(SymbolTable* table) {
  std::vector<Symbol> by_name(table->size());
  std::iota(by_name.begin(), by_name.end(), 0);
  std::sort(by_name.begin(), by_name.end(), [&](Symbol a, Symbol b) {
    return table->name(a) < table->name(b);
  });
  SymbolTable sorted;
  std::vector<Symbol> remap(table->size());
  for (Symbol old : by_name) remap[old] = sorted.Intern(table->name(old));
  *table = std::move(sorted);
  return remap;
}

/// Applies a label renumbering to staged runs and restores the sorted,
/// duplicate-free run invariant.
void RemapLabels(const std::vector<Symbol>& remap,
                 std::vector<uint32_t>* offsets, std::vector<Symbol>* syms) {
  size_t out = 0;
  for (size_t id = 0; id + 1 < offsets->size(); ++id) {
    const size_t begin = (*offsets)[id];
    const size_t end = (*offsets)[id + 1];
    const size_t run = out;
    for (size_t i = begin; i < end; ++i) (*syms)[out++] = remap[(*syms)[i]];
    std::sort(syms->begin() + run, syms->begin() + out);
    out = std::unique(syms->begin() + run, syms->begin() + out) -
          syms->begin();
    (*offsets)[id] = static_cast<uint32_t>(run);  // Begin already read.
  }
  offsets->back() = static_cast<uint32_t>(out);
  syms->resize(out);
}

/// Applies a key renumbering to staged columns and pads every column
/// to the element count (a key never set on this kind stays empty).
std::vector<std::vector<Value>> RemapColumns(
    const std::vector<Symbol>& remap, size_t num_keys, size_t count,
    std::vector<std::vector<Value>> columns) {
  std::vector<std::vector<Value>> out(num_keys);
  for (Symbol old = 0; old < columns.size(); ++old) {
    std::vector<Value>& col = columns[old];
    if (col.empty()) continue;
    col.resize(count);
    out[remap[old]] = std::move(col);
  }
  return out;
}

}  // namespace

void GraphBuilder::Stage(Staged* kind, std::string name,
                         const std::vector<std::string>& labels,
                         PropertyList properties) {
  const size_t id = kind->names.size();
  kind->names.push_back(std::move(name));
  for (const std::string& l : labels) {
    kind->label_syms.push_back(labels_.Intern(l));
  }
  kind->label_offsets.push_back(static_cast<uint32_t>(kind->label_syms.size()));
  for (auto& [key, value] : properties) {
    if (value.is_null()) {
      // Absent; a NULL after an earlier value of the same key clears it.
      Symbol s = keys_.Find(key);
      if (s != kInvalidSymbol && s < kind->columns.size() &&
          id < kind->columns[s].size()) {
        kind->columns[s][id] = Value::Null();
      }
      continue;
    }
    Symbol s = keys_.Intern(key);
    if (kind->columns.size() <= s) kind->columns.resize(s + 1);
    std::vector<Value>& col = kind->columns[s];
    if (col.size() <= id) col.resize(id + 1);
    col[id] = std::move(value);
  }
}

NodeId GraphBuilder::AddNode(std::string name,
                             std::vector<std::string> labels,
                             PropertyList properties) {
  Stage(&nodes_, std::move(name), labels, std::move(properties));
  return static_cast<NodeId>(nodes_.names.size() - 1);
}

void GraphBuilder::AddDirectedEdge(std::string name, const std::string& from,
                                   const std::string& to,
                                   std::vector<std::string> labels,
                                   PropertyList properties) {
  Stage(&edges_, std::move(name), labels, std::move(properties));
  ends_.push_back({kInvalidId, kInvalidId, /*directed=*/true});
  endpoint_names_.emplace_back(from, to);
}

void GraphBuilder::AddUndirectedEdge(std::string name, const std::string& a,
                                     const std::string& b,
                                     std::vector<std::string> labels,
                                     PropertyList properties) {
  Stage(&edges_, std::move(name), labels, std::move(properties));
  ends_.push_back({kInvalidId, kInvalidId, /*directed=*/false});
  endpoint_names_.emplace_back(a, b);
}

Result<PropertyGraph> GraphBuilder::Build() && {
  PropertyGraph g;
  std::unordered_map<std::string, NodeId>& by_name = g.node_by_name_;
  for (NodeId i = 0; i < nodes_.names.size(); ++i) {
    const std::string& name = nodes_.names[i];
    if (!name.empty() && !by_name.emplace(name, i).second) {
      return Status::AlreadyExists("duplicate node name: " + name);
    }
  }
  for (EdgeId e = 0; e < edges_.names.size(); ++e) {
    const std::string& name = edges_.names[e];
    if (!name.empty() && !g.edge_by_name_.emplace(name, e).second) {
      return Status::AlreadyExists("duplicate edge name: " + name);
    }
    const auto& [from, to] = endpoint_names_[e];
    auto from_it = by_name.find(from);
    if (from_it == by_name.end()) {
      return Status::NotFound("edge " + name +
                              " references unknown node: " + from);
    }
    auto to_it = by_name.find(to);
    if (to_it == by_name.end()) {
      return Status::NotFound("edge " + name +
                              " references unknown node: " + to);
    }
    ends_[e].u = from_it->second;
    ends_[e].v = to_it->second;
  }

  const std::vector<Symbol> label_remap = SortSymbols(&labels_);
  RemapLabels(label_remap, &nodes_.label_offsets, &nodes_.label_syms);
  RemapLabels(label_remap, &edges_.label_offsets, &edges_.label_syms);
  const std::vector<Symbol> key_remap = SortSymbols(&keys_);

  g.node_columns_ = RemapColumns(key_remap, keys_.size(), nodes_.names.size(),
                                 std::move(nodes_.columns));
  g.edge_columns_ = RemapColumns(key_remap, keys_.size(), edges_.names.size(),
                                 std::move(edges_.columns));
  g.node_names_ = std::move(nodes_.names);
  g.edge_names_ = std::move(edges_.names);
  g.edge_ends_ = std::move(ends_);
  g.label_symbols_ = std::move(labels_);
  g.property_symbols_ = std::move(keys_);
  g.node_label_offsets_ = std::move(nodes_.label_offsets);
  g.node_label_syms_ = std::move(nodes_.label_syms);
  g.edge_label_offsets_ = std::move(edges_.label_offsets);
  g.edge_label_syms_ = std::move(edges_.label_syms);
  g.BuildIndexes();
  return g;
}

}  // namespace gpml
