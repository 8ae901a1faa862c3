#include "planner/stats.h"

#include <map>
#include <sstream>
#include <tuple>
#include <vector>

namespace gpml {
namespace planner {

namespace {

/// One shared "no label" key so unlabeled elements still participate in the
/// label-path frequency table.
const std::string kNoLabel = "";

}  // namespace

size_t GraphStats::NodeLabelCount(const std::string& label) const {
  auto it = node_label_counts.find(label);
  return it == node_label_counts.end() ? 0 : it->second;
}

size_t GraphStats::EdgeLabelCount(const std::string& label) const {
  auto it = edge_label_counts.find(label);
  return it == edge_label_counts.end() ? 0 : it->second;
}

size_t GraphStats::LabelPathCount(const std::string& src_label,
                                  const std::string& edge_label,
                                  const std::string& dst_label) const {
  auto it =
      label_path_counts.find(std::make_tuple(src_label, edge_label, dst_label));
  return it == label_path_counts.end() ? 0 : it->second;
}

size_t GraphStats::UndirectedLabelPathCount(const std::string& src_label,
                                            const std::string& edge_label,
                                            const std::string& dst_label) const {
  auto it = undirected_label_path_counts.find(
      std::make_tuple(src_label, edge_label, dst_label));
  return it == undirected_label_path_counts.end() ? 0 : it->second;
}

double GraphStats::AvgDegree(const std::string& label) const {
  auto it = degree_by_label.find(label);
  if (it == degree_by_label.end()) return AvgDegreeOverall();
  return it->second.avg_out + it->second.avg_in + it->second.avg_undirected;
}

double GraphStats::AvgDegreeOverall() const {
  if (num_nodes == 0) return 0;
  // Every edge produces two adjacency entries (forward+backward or the two
  // undirected endpoints).
  return 2.0 * static_cast<double>(num_edges) /
         static_cast<double>(num_nodes);
}

std::string GraphStats::ToString() const {
  std::ostringstream os;
  os << "graph stats: " << num_nodes << " nodes (" << num_labeled_nodes
     << " labeled), " << num_edges << " edges (" << num_labeled_edges
     << " labeled)\n";
  for (const auto& [label, count] : node_label_counts) {
    os << "  node label " << label << ": " << count;
    auto it = degree_by_label.find(label);
    if (it != degree_by_label.end()) {
      os << " (avg deg out=" << it->second.avg_out
         << " in=" << it->second.avg_in
         << " undir=" << it->second.avg_undirected << ")";
    }
    os << "\n";
  }
  for (const auto& [label, count] : edge_label_counts) {
    os << "  edge label " << label << ": " << count << "\n";
  }
  for (const auto& [key, count] : label_path_counts) {
    os << "  path (" << (std::get<0>(key).empty() ? "*" : std::get<0>(key))
       << ")-[" << (std::get<1>(key).empty() ? "*" : std::get<1>(key)) << "]->("
       << (std::get<2>(key).empty() ? "*" : std::get<2>(key))
       << "): " << count << "\n";
  }
  return os.str();
}

GraphStats ComputeStats(const PropertyGraph& g) {
  GraphStats s;
  s.num_nodes = g.num_nodes();
  s.num_edges = g.num_edges();

  // Counted by label symbol; symbol `none` stands for "no label" so
  // unlabeled elements still participate in the label-path table.
  const SymbolTable& labels = g.label_symbols();
  const Symbol none = static_cast<Symbol>(labels.size());
  auto name = [&](Symbol l) -> const std::string& {
    return l == none ? kNoLabel : labels.name(l);
  };
  auto or_none = [&](SymSpan syms) {
    return syms.count == 0 ? SymSpan{&none, 1} : syms;
  };
  std::vector<size_t> node_counts(labels.size(), 0);
  std::vector<size_t> edge_counts(labels.size(), 0);
  std::vector<LabelDegree> degree_sums(labels.size() + 1);
  using SymTriple = std::tuple<Symbol, Symbol, Symbol>;
  std::map<SymTriple, size_t> path_counts;
  std::map<SymTriple, size_t> undirected_path_counts;

  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    SymSpan syms = g.node_label_syms(n);
    if (syms.count != 0) ++s.num_labeled_nodes;
    for (Symbol l : syms) ++node_counts[l];
  }

  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const ElementView ed = g.edge(e);
    SymSpan syms = g.edge_label_syms(e);
    if (syms.count != 0) ++s.num_labeled_edges;
    for (Symbol l : syms) ++edge_counts[l];

    const SymSpan u_labels = or_none(g.node_label_syms(ed.u));
    const SymSpan v_labels = or_none(g.node_label_syms(ed.v));
    for (Symbol el : or_none(syms)) {
      for (Symbol ul : u_labels) {
        for (Symbol vl : v_labels) {
          ++path_counts[{ul, el, vl}];
          if (!ed.directed) {
            ++path_counts[{vl, el, ul}];
            ++undirected_path_counts[{ul, el, vl}];
            ++undirected_path_counts[{vl, el, ul}];
          }
        }
      }
    }

    for (Symbol ul : u_labels) {
      if (ed.directed) {
        degree_sums[ul].avg_out += 1;
      } else {
        degree_sums[ul].avg_undirected += 1;
      }
    }
    for (Symbol vl : v_labels) {
      if (ed.directed) {
        degree_sums[vl].avg_in += 1;
      } else {
        degree_sums[vl].avg_undirected += 1;
      }
    }
  }

  auto named = [&](const SymTriple& t) {
    return std::make_tuple(name(std::get<0>(t)), name(std::get<1>(t)),
                           name(std::get<2>(t)));
  };
  for (const auto& [key, count] : path_counts) {
    s.label_path_counts[named(key)] = count;
  }
  for (const auto& [key, count] : undirected_path_counts) {
    s.undirected_label_path_counts[named(key)] = count;
  }
  for (Symbol l = 0; l < none; ++l) {
    if (node_counts[l] != 0) s.node_label_counts[name(l)] = node_counts[l];
    if (edge_counts[l] != 0) s.edge_label_counts[name(l)] = edge_counts[l];
    const LabelDegree& sums = degree_sums[l];
    // Labels no edge touches, and edge-only labels (no node denominator),
    // get no degree entry.
    if (sums.avg_out + sums.avg_in + sums.avg_undirected == 0) continue;
    const double n = static_cast<double>(node_counts[l]);
    if (n == 0) continue;
    LabelDegree d;
    d.avg_out = sums.avg_out / n;
    d.avg_in = sums.avg_in / n;
    d.avg_undirected = sums.avg_undirected / n;
    s.degree_by_label[name(l)] = d;
  }
  return s;
}

std::shared_ptr<const GraphStats> GetStats(const PropertyGraph& g) {
  if (std::shared_ptr<const GraphStats> cached = g.stats_cache()) {
    return cached;
  }
  auto stats = std::make_shared<const GraphStats>(ComputeStats(g));
  g.set_stats_cache(stats);
  return stats;
}

}  // namespace planner
}  // namespace gpml
