#include "graph/property_graph.h"

#include <algorithm>
#include <atomic>

#include "obs/engine_metrics.h"
#include "obs/metrics.h"

namespace gpml {

std::shared_ptr<obs::MetricsRegistry> PropertyGraph::metrics_registry()
    const {
  std::shared_ptr<obs::MetricsRegistry> reg =
      std::atomic_load(&metrics_registry_);
  if (reg != nullptr) return reg;
  auto fresh = std::make_shared<obs::MetricsRegistry>();
  // First publisher wins; losers adopt the winner's registry so every
  // engine over this graph increments the same counters.
  if (std::atomic_compare_exchange_strong(&metrics_registry_, &reg, fresh)) {
    return fresh;
  }
  return reg;
}

const obs::EngineMetricHandles& PropertyGraph::metric_handles() const {
  std::shared_ptr<const obs::EngineMetricHandles> handles =
      std::atomic_load(&metric_handles_);
  if (handles != nullptr) return *handles;
  auto fresh =
      std::make_shared<const obs::EngineMetricHandles>(metrics_registry());
  // Losers adopt the winner's handles; both resolved the same families.
  if (std::atomic_compare_exchange_strong(&metric_handles_, &handles, fresh)) {
    return *fresh;
  }
  return *handles;
}

uint64_t PropertyGraph::NextIdentityToken() {
  // Starts at 1 so 0 can mean "no graph" in cache keys and tests.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool ElementView::HasLabel(const std::string& label) const {
  Symbol s = graph.label_symbols().Find(label);
  if (s == kInvalidSymbol) return false;
  SymSpan syms = ref.is_node() ? graph.node_label_syms(ref.id)
                               : graph.edge_label_syms(ref.id);
  return std::binary_search(syms.begin(), syms.end(), s);
}

const Value& ElementView::GetProperty(const std::string& key) const {
  return graph.GetPropertyFast(ref, key);
}

std::vector<std::string> ElementView::labels() const {
  SymSpan syms = ref.is_node() ? graph.node_label_syms(ref.id)
                               : graph.edge_label_syms(ref.id);
  std::vector<std::string> out;
  out.reserve(syms.count);
  // Symbol order is name order, so the run is already sorted by name.
  for (Symbol s : syms) out.push_back(graph.label_symbols().name(s));
  return out;
}

PropertyList ElementView::properties() const {
  PropertyList out;
  const SymbolTable& keys = graph.property_symbols();
  for (Symbol s = 0; s < keys.size(); ++s) {
    const Value& v = ref.is_node() ? graph.NodeColumnValue(s, ref.id)
                                   : graph.EdgeColumnValue(s, ref.id);
    if (!v.is_null()) out.emplace_back(keys.name(s), v);
  }
  return out;
}

NodeId PropertyGraph::FindNode(const std::string& name) const {
  auto it = node_by_name_.find(name);
  return it == node_by_name_.end() ? kInvalidId : it->second;
}

EdgeId PropertyGraph::FindEdge(const std::string& name) const {
  auto it = edge_by_name_.find(name);
  return it == edge_by_name_.end() ? kInvalidId : it->second;
}

NodeId PropertyGraph::Cross(EdgeId e, NodeId from, Traversal t) const {
  const EdgeEnds& ed = edge_ends_[e];
  switch (t) {
    case Traversal::kForward:
      if (ed.directed && ed.u == from) return ed.v;
      return kInvalidId;
    case Traversal::kBackward:
      if (ed.directed && ed.v == from) return ed.u;
      return kInvalidId;
    case Traversal::kUndirected:
      if (!ed.directed) {
        if (ed.u == from) return ed.v;
        if (ed.v == from) return ed.u;
      }
      return kInvalidId;
  }
  return kInvalidId;
}

std::string PropertyGraph::Summary() const {
  return std::to_string(num_nodes()) + " nodes, " + std::to_string(num_edges()) +
         " edges";
}

void PropertyGraph::BuildIndexes() {
  const size_t num_labels = label_symbols_.size();

  // Per-label element lists (ascending ids) and, when the universe fits,
  // one 64-bit label mask per element.
  auto index_labels = [&](size_t count, const std::vector<uint32_t>& offsets,
                          const std::vector<Symbol>& syms,
                          std::vector<std::vector<uint32_t>>* by_label,
                          std::vector<uint64_t>* bits) {
    by_label->assign(num_labels, {});
    bits->assign(count, 0);
    for (uint32_t id = 0; id < count; ++id) {
      for (uint32_t i = offsets[id]; i < offsets[id + 1]; ++i) {
        (*by_label)[syms[i]].push_back(id);
        if (label_bits_usable()) (*bits)[id] |= uint64_t{1} << syms[i];
      }
    }
  };
  index_labels(num_nodes(), node_label_offsets_, node_label_syms_,
               &nodes_by_label_, &node_label_bits_);
  index_labels(num_edges(), edge_label_offsets_, edge_label_syms_,
               &edges_by_label_, &edge_label_bits_);

  // Equality seed index over (node label, property key, value), filled in
  // ascending node-id order so index-backed seeds enumerate in exactly the
  // order label-scan seeding would.
  seed_index_ = PropertySeedIndex();
  for (NodeId n = 0; n < num_nodes(); ++n) {
    for (Symbol ls : node_label_syms(n)) {
      for (Symbol ks = 0; ks < node_columns_.size(); ++ks) {
        const Value& value = NodeColumnValue(ks, n);
        if (value.is_null()) continue;  // `= NULL` never selects.
        seed_index_.Add(ls, ks, value, n);
      }
    }
  }

  csr_.Build(num_nodes(), edge_ends_, edge_label_offsets_, edge_label_syms_);
}

}  // namespace gpml
