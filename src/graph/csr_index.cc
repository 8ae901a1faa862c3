#include "graph/csr_index.h"

#include <algorithm>
#include <utility>

namespace gpml {

void CsrIndex::Build(size_t num_nodes, const std::vector<EdgeEnds>& ends,
                     const std::vector<uint32_t>& edge_label_offsets,
                     const std::vector<Symbol>& edge_label_syms) {
  // Full ranges: count each node's records, prefix-sum, then fill in
  // edge-id order so every range lists its edges ascending, `u` first.
  record_begin_.assign(num_nodes + 1, 0);
  for (const EdgeEnds& e : ends) {
    ++record_begin_[e.u + 1];
    // A non-loop undirected edge can be crossed from either endpoint; an
    // undirected loop contributes a single record.
    if (e.directed || e.u != e.v) ++record_begin_[e.v + 1];
  }
  for (size_t n = 0; n < num_nodes; ++n) {
    record_begin_[n + 1] += record_begin_[n];
  }
  records_.resize(record_begin_[num_nodes]);
  std::vector<uint32_t> fill(record_begin_.begin(), record_begin_.end() - 1);
  for (EdgeId e = 0; e < ends.size(); ++e) {
    const EdgeEnds& ed = ends[e];
    if (ed.directed) {
      records_[fill[ed.u]++] = {e, ed.v, Traversal::kForward};
      records_[fill[ed.v]++] = {e, ed.u, Traversal::kBackward};
    } else {
      records_[fill[ed.u]++] = {e, ed.v, Traversal::kUndirected};
      if (ed.u != ed.v) {
        records_[fill[ed.v]++] = {e, ed.u, Traversal::kUndirected};
      }
    }
  }

  // Label buckets. Scratch: (label, record) pairs of one node,
  // stable-sorted by label so records inside a bucket keep range order.
  node_begin_.assign(num_nodes + 1, 0);
  buckets_.clear();
  entries_.clear();
  std::vector<std::pair<Symbol, Adjacency>> scratch;
  for (size_t n = 0; n < num_nodes; ++n) {
    node_begin_[n] = static_cast<uint32_t>(buckets_.size());
    scratch.clear();
    for (const Adjacency& adj : All(static_cast<uint32_t>(n))) {
      const uint32_t lo = edge_label_offsets[adj.edge];
      const uint32_t hi = edge_label_offsets[adj.edge + 1];
      for (uint32_t i = lo; i < hi; ++i) {
        scratch.emplace_back(edge_label_syms[i], adj);
      }
    }
    std::stable_sort(scratch.begin(), scratch.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    size_t i = 0;
    while (i < scratch.size()) {
      Bucket b;
      b.label = scratch[i].first;
      b.begin = static_cast<uint32_t>(entries_.size());
      while (i < scratch.size() && scratch[i].first == b.label) {
        entries_.push_back(scratch[i].second);
        ++i;
      }
      b.end = static_cast<uint32_t>(entries_.size());
      buckets_.push_back(b);
    }
  }
  node_begin_[num_nodes] = static_cast<uint32_t>(buckets_.size());
}

AdjSpan CsrIndex::Range(uint32_t node, Symbol label) const {
  if (label == kNoLabelPartition) return All(node);
  const Bucket* lo = buckets_.data() + node_begin_[node];
  const Bucket* hi = buckets_.data() + node_begin_[node + 1];
  const Bucket* it = std::lower_bound(
      lo, hi, label,
      [](const Bucket& b, Symbol l) { return b.label < l; });
  if (it == hi || it->label != label) return {};
  return {entries_.data() + it->begin,
          static_cast<size_t>(it->end - it->begin)};
}

// ---------------------------------------------------------------------------
// CompiledLabelPred
// ---------------------------------------------------------------------------

namespace {

/// True when `e` is a pure conjunction / disjunction tree of plain names
/// (single names count as both); fills the resolved symbols.
bool FlattenNames(const LabelExpr& e, LabelExpr::Kind connective,
                  const SymbolTable& labels, std::vector<Symbol>* out) {
  if (e.kind == LabelExpr::Kind::kName) {
    out->push_back(labels.Find(e.name));
    return true;
  }
  if (e.kind != connective) return false;
  return FlattenNames(*e.left, connective, labels, out) &&
         FlattenNames(*e.right, connective, labels, out);
}

bool HasSymbol(const Symbol* syms, size_t count, Symbol s) {
  return std::binary_search(syms, syms + count, s);
}

}  // namespace

CompiledLabelPred CompiledLabelPred::Compile(const LabelExprPtr& expr,
                                             const SymbolTable& labels,
                                             bool use_bits) {
  CompiledLabelPred p;
  p.use_bits_ = use_bits;
  if (expr == nullptr) {
    p.kind_ = Kind::kAlwaysTrue;
    return p;
  }

  if (use_bits) {
    std::vector<Symbol> syms;
    if (FlattenNames(*expr, LabelExpr::Kind::kAnd, labels, &syms)) {
      for (Symbol s : syms) {
        if (s == kInvalidSymbol) {
          p.kind_ = Kind::kNever;  // A required name the graph never uses.
          return p;
        }
        p.mask_ |= uint64_t{1} << s;
      }
      p.kind_ = Kind::kAllOf;
      return p;
    }
    syms.clear();
    if (FlattenNames(*expr, LabelExpr::Kind::kOr, labels, &syms)) {
      for (Symbol s : syms) {
        if (s != kInvalidSymbol) p.mask_ |= uint64_t{1} << s;
      }
      p.kind_ = p.mask_ == 0 ? Kind::kNever : Kind::kAnyOf;
      return p;
    }
    if (expr->kind == LabelExpr::Kind::kWildcard) {
      p.kind_ = Kind::kAnyOf;
      p.mask_ = ~uint64_t{0};  // "Has at least one label": any bit set.
      return p;
    }
  }

  // General form: the expression tree in postfix order, evaluated with a
  // small boolean stack. Covers negation, mixed connectives, and graphs
  // whose label universe exceeds the 64-bit masks.
  p.kind_ = Kind::kGeneral;
  struct Walk {
    const SymbolTable& labels;
    std::vector<Op>* ops;
    void Visit(const LabelExpr& e) {
      switch (e.kind) {
        case LabelExpr::Kind::kName:
          ops->push_back({Op::Code::kTestName, labels.Find(e.name)});
          break;
        case LabelExpr::Kind::kWildcard:
          ops->push_back({Op::Code::kTestAny, kInvalidSymbol});
          break;
        case LabelExpr::Kind::kNot:
          Visit(*e.left);
          ops->push_back({Op::Code::kNot, kInvalidSymbol});
          break;
        case LabelExpr::Kind::kAnd:
        case LabelExpr::Kind::kOr:
          Visit(*e.left);
          Visit(*e.right);
          ops->push_back({e.kind == LabelExpr::Kind::kAnd ? Op::Code::kAnd
                                                          : Op::Code::kOr,
                          kInvalidSymbol});
          break;
      }
    }
  };
  Walk{labels, &p.ops_}.Visit(*expr);
  return p;
}

bool CompiledLabelPred::Matches(uint64_t bits, const Symbol* syms,
                                size_t count) const {
  switch (kind_) {
    case Kind::kAlwaysTrue:
      return true;
    case Kind::kNever:
      return false;
    case Kind::kAllOf:
      return (bits & mask_) == mask_;
    case Kind::kAnyOf:
      return (bits & mask_) != 0;
    case Kind::kGeneral:
      break;
  }
  // Postfix evaluation. The stack depth is bounded by the op count; label
  // expressions are tiny in practice, so a fixed local buffer with a
  // heap fallback keeps the common case allocation-free.
  bool local[64];
  std::vector<bool> heap;
  const bool use_heap = ops_.size() > 64;
  if (use_heap) heap.resize(ops_.size());
  size_t top = 0;
  auto push = [&](bool v) {
    if (use_heap) {
      heap[top++] = v;
    } else {
      local[top++] = v;
    }
  };
  auto pop = [&]() { return use_heap ? bool(heap[--top]) : local[--top]; };
  for (const Op& op : ops_) {
    switch (op.code) {
      case Op::Code::kTestName:
        if (use_bits_) {
          push(op.sym != kInvalidSymbol &&
               (bits & (uint64_t{1} << op.sym)) != 0);
        } else {
          push(op.sym != kInvalidSymbol && HasSymbol(syms, count, op.sym));
        }
        break;
      case Op::Code::kTestAny:
        push(count != 0);
        break;
      case Op::Code::kNot:
        push(!pop());
        break;
      case Op::Code::kAnd: {
        bool b = pop(), a = pop();
        push(a && b);
        break;
      }
      case Op::Code::kOr: {
        bool b = pop(), a = pop();
        push(a || b);
        break;
      }
    }
  }
  return pop();
}

// ---------------------------------------------------------------------------
// PropertySeedIndex
// ---------------------------------------------------------------------------

void PropertySeedIndex::Add(Symbol label, Symbol key, const Value& value,
                            uint32_t node) {
  index_[Key{label, key, value}].push_back(node);
}

const std::vector<uint32_t>& PropertySeedIndex::Lookup(
    Symbol label, Symbol key, const Value& value) const {
  static const std::vector<uint32_t> kEmpty;
  auto it = index_.find(Key{label, key, value});
  return it == index_.end() ? kEmpty : it->second;
}

}  // namespace gpml
