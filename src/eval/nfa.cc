#include "eval/nfa.h"

#include <sstream>

namespace gpml {

namespace {

class Compiler {
 public:
  explicit Compiler(const VarTable& vars) : vars_(vars) {}

  Result<Program> Compile(const PathPatternDecl& decl) {
    program_.selector = decl.selector;
    program_.root = decl.pattern;
    if (!decl.path_var.empty()) {
      program_.path_var = vars_.Find(decl.path_var);
    }

    int scope_id = -1;
    if (decl.restrictor != Restrictor::kNone) {
      scope_id = program_.num_scopes++;
      EmitScopeBegin(scope_id, decl.restrictor);
    }
    GPML_RETURN_IF_ERROR(CompilePath(*decl.pattern));
    if (scope_id >= 0) EmitScopeEnd(scope_id);
    Emit(Instr::Op::kAccept);

    program_.start = 0;
    return std::move(program_);
  }

 private:
  int Emit(Instr::Op op) {
    Instr i;
    i.op = op;
    i.depth = depth_;
    i.next = static_cast<int>(program_.code.size()) + 1;
    program_.code.push_back(std::move(i));
    return static_cast<int>(program_.code.size()) - 1;
  }
  Instr& At(int pc) { return program_.code[static_cast<size_t>(pc)]; }
  int Here() const { return static_cast<int>(program_.code.size()); }

  void EmitScopeBegin(int id, Restrictor r) {
    int pc = Emit(Instr::Op::kScopeBegin);
    At(pc).scope_id = id;
    At(pc).restrictor = r;
  }
  void EmitScopeEnd(int id) {
    int pc = Emit(Instr::Op::kScopeEnd);
    At(pc).scope_id = id;
  }

  Status CompilePath(const PathPattern& p) {
    switch (p.kind) {
      case PathPattern::Kind::kConcat:
        for (const PathElement& e : p.elements) {
          GPML_RETURN_IF_ERROR(CompileElement(e));
        }
        return Status::OK();
      case PathPattern::Kind::kUnion:
      case PathPattern::Kind::kAlternation:
        return CompileAlternatives(p);
    }
    return Status::Internal("unknown path pattern kind");
  }

  Status CompileAlternatives(const PathPattern& p) {
    // Chain of splits; each alternative jumps to the common end. Multiset
    // alternation additionally tags each branch for provenance.
    bool tagged = p.kind == PathPattern::Kind::kAlternation;
    std::vector<int> jumps_to_end;
    std::vector<int> pending_split = {};
    for (size_t i = 0; i < p.alternatives.size(); ++i) {
      bool last = i + 1 == p.alternatives.size();
      int split_pc = -1;
      if (!last) split_pc = Emit(Instr::Op::kSplit);
      if (tagged) {
        int t = Emit(Instr::Op::kTag);
        At(t).tag = next_tag_++;
      }
      GPML_RETURN_IF_ERROR(CompilePath(*p.alternatives[i]));
      if (!last) {
        jumps_to_end.push_back(Emit(Instr::Op::kJump));
        At(split_pc).alt = Here();
      }
    }
    for (int pc : jumps_to_end) At(pc).next = Here();
    (void)pending_split;
    return Status::OK();
  }

  Status CompileElement(const PathElement& e) {
    switch (e.kind) {
      case PathElement::Kind::kNode: {
        int id = vars_.Find(e.node.var);
        if (id < 0) return Status::Internal("unresolved node variable");
        int pc = Emit(Instr::Op::kNodeCheck);
        At(pc).node = &e.node;
        At(pc).var = id;
        return Status::OK();
      }
      case PathElement::Kind::kEdge: {
        int id = vars_.Find(e.edge.var);
        if (id < 0) return Status::Internal("unresolved edge variable");
        int pc = Emit(Instr::Op::kEdgeStep);
        At(pc).edge = &e.edge;
        At(pc).var = id;
        return Status::OK();
      }
      case PathElement::Kind::kParen:
        return CompileSegment(*e.sub, e.restrictor, e.where,
                              /*iteration=*/false, /*guard=*/false);
      case PathElement::Kind::kOptional: {
        // `?`: fork around the body. Conditional-variable semantics are a
        // static property (analysis); operationally this is {0,1}.
        int split_pc = Emit(Instr::Op::kSplit);
        GPML_RETURN_IF_ERROR(CompileSegment(*e.sub, e.restrictor, e.where,
                                            /*iteration=*/false,
                                            /*guard=*/false));
        At(split_pc).alt = Here();
        return Status::OK();
      }
      case PathElement::Kind::kQuantified:
        return CompileQuantified(e);
    }
    return Status::Internal("unknown path element kind");
  }

  /// Compiles one body occurrence: [scope [frame body where-check]] with
  /// iteration frames bumping serials and guarded frames requiring edge
  /// progress (prevents zero-width loops from spinning, see DESIGN.md).
  Status CompileSegment(const PathPattern& sub, Restrictor r, ExprPtr where,
                        bool iteration, bool guard) {
    int scope_id = -1;
    if (r != Restrictor::kNone) {
      scope_id = program_.num_scopes++;
      EmitScopeBegin(scope_id, r);
    }
    bool need_frame = iteration || where != nullptr;
    if (need_frame) {
      int pc = Emit(Instr::Op::kFrameBegin);
      At(pc).quant_frame = iteration;
    }
    if (iteration) {
      ++depth_;
      program_.max_depth = std::max(program_.max_depth, depth_);
    }
    GPML_RETURN_IF_ERROR(CompilePath(sub));
    if (where != nullptr) {
      int pc = Emit(Instr::Op::kWhereCheck);
      At(pc).where = where;
    }
    if (iteration) --depth_;
    if (need_frame) {
      int pc = Emit(Instr::Op::kFrameEnd);
      At(pc).guard_progress = guard;
    }
    if (scope_id >= 0) EmitScopeEnd(scope_id);
    return Status::OK();
  }

  Status CompileQuantified(const PathElement& e) {
    // min mandatory copies.
    for (uint64_t i = 0; i < e.min; ++i) {
      GPML_RETURN_IF_ERROR(CompileSegment(*e.sub, e.restrictor, e.where,
                                          /*iteration=*/true,
                                          /*guard=*/false));
    }
    if (e.max.has_value()) {
      // (max - min) optional copies, each skippable to the end.
      std::vector<int> skip_splits;
      for (uint64_t i = e.min; i < *e.max; ++i) {
        skip_splits.push_back(Emit(Instr::Op::kSplit));
        GPML_RETURN_IF_ERROR(CompileSegment(*e.sub, e.restrictor, e.where,
                                            /*iteration=*/true,
                                            /*guard=*/false));
      }
      for (int pc : skip_splits) At(pc).alt = Here();
      return Status::OK();
    }
    // Unbounded tail: guarded loop.
    program_.has_unbounded = true;
    int loop_head = Emit(Instr::Op::kSplit);  // next: body, alt: exit.
    GPML_RETURN_IF_ERROR(CompileSegment(*e.sub, e.restrictor, e.where,
                                        /*iteration=*/true, /*guard=*/true));
    int back = Emit(Instr::Op::kJump);
    At(back).next = loop_head;
    At(loop_head).alt = Here();
    return Status::OK();
  }

  const VarTable& vars_;
  Program program_;
  int depth_ = 0;
  int32_t next_tag_ = 1;
};

const char* OpName(Instr::Op op) {
  switch (op) {
    case Instr::Op::kNodeCheck: return "node";
    case Instr::Op::kEdgeStep: return "edge";
    case Instr::Op::kSplit: return "split";
    case Instr::Op::kJump: return "jump";
    case Instr::Op::kFrameBegin: return "frame+";
    case Instr::Op::kWhereCheck: return "where?";
    case Instr::Op::kFrameEnd: return "frame-";
    case Instr::Op::kScopeBegin: return "scope+";
    case Instr::Op::kScopeEnd: return "scope-";
    case Instr::Op::kTag: return "tag";
    case Instr::Op::kAccept: return "accept";
  }
  return "?";
}

}  // namespace

std::string Program::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < code.size(); ++i) {
    const Instr& in = code[i];
    os << i << ": " << OpName(in.op);
    if (in.op == Instr::Op::kSplit) os << " -> " << in.next << "|" << in.alt;
    else if (in.op == Instr::Op::kJump) os << " -> " << in.next;
    if (in.var >= 0) os << " var=" << in.var;
    if (in.scope_id >= 0) os << " scope=" << in.scope_id;
    if (in.where != nullptr) os << " [" << in.where->ToString() << "]";
    os << "\n";
  }
  return os.str();
}

Result<Program> CompilePattern(const PathPatternDecl& decl,
                               const VarTable& vars) {
  Compiler c(vars);
  return c.Compile(decl);
}

namespace {

/// Builds the block-at-a-time plan (see BatchPlan in nfa.h): verifies the
/// linear `NodeCheck (EdgeStep NodeCheck)* Accept` shape, compiles every
/// inline WHERE into a PredicateKernel, resolves implicit equi-join targets
/// to their first binding occurrence, and hoists label checks that the
/// equi-join already implies. Any program outside the shape (or with a
/// non-kernel WHERE) yields an ineligible plan and the scalar interpreter
/// runs instead.
std::shared_ptr<const BatchPlan> BuildBatchPlan(const Program& program,
                                                const PropertyGraph& g,
                                                const VarTable& vars) {
  auto plan = std::make_shared<BatchPlan>();
  if (!program.selector.IsNone()) return plan;

  size_t pc = static_cast<size_t>(program.start);
  bool expect_node = true;
  while (true) {
    if (pc >= program.code.size()) return plan;
    const Instr& in = program.code[pc];
    if (expect_node) {
      if (in.op != Instr::Op::kNodeCheck) return plan;
      BatchPlan::NodeStep ns;
      ns.pc = static_cast<int>(pc);
      ns.var = in.var;
      if (in.node->where != nullptr) {
        ns.has_kernel = true;
        if (!PredicateKernel::Compile(*in.node->where, in.var, vars,
                                      g.property_symbols(), &ns.kernel)) {
          return plan;
        }
      }
      plan->nodes.push_back(std::move(ns));
      expect_node = false;
    } else {
      if (in.op == Instr::Op::kAccept) break;
      if (in.op != Instr::Op::kEdgeStep) return plan;
      BatchPlan::EdgeStep es;
      es.pc = static_cast<int>(pc);
      es.var = in.var;
      if (in.edge->where != nullptr) {
        es.has_kernel = true;
        if (!PredicateKernel::Compile(*in.edge->where, in.var, vars,
                                      g.property_symbols(), &es.kernel)) {
          return plan;
        }
      }
      plan->edges.push_back(std::move(es));
      expect_node = true;
    }
    if (in.next != static_cast<int>(pc) + 1) return plan;  // Linear only.
    ++pc;
  }

  // Equi-join targets: the first occurrence of each named variable is the
  // one the scalar environment binds; later occurrences compare against it
  // (serials are all 0 in frame-free programs). Anonymous variables never
  // join (the scalar path skips the environment for them too).
  for (size_t i = 0; i < plan->nodes.size(); ++i) {
    BatchPlan::NodeStep& ns = plan->nodes[i];
    if (vars.info(ns.var).anonymous) continue;
    for (size_t j = 0; j < i; ++j) {
      if (plan->nodes[j].var == ns.var) {
        ns.eq_pos = static_cast<int>(j);
        break;
      }
    }
    if (ns.eq_pos < 0) continue;
    const LabelExprPtr& mine =
        program.code[static_cast<size_t>(ns.pc)].node->labels;
    const LabelExprPtr& theirs =
        program.code[static_cast<size_t>(
                         plan->nodes[static_cast<size_t>(ns.eq_pos)].pc)]
            .node->labels;
    // Bind-time label hoist: a re-visit joined to an identical-label
    // occurrence already passed this label check when it was first bound.
    ns.label_implied =
        mine == nullptr ||
        (theirs != nullptr && mine->ToString() == theirs->ToString());
  }
  for (size_t i = 0; i < plan->edges.size(); ++i) {
    BatchPlan::EdgeStep& es = plan->edges[i];
    if (vars.info(es.var).anonymous) continue;
    for (size_t j = 0; j < i; ++j) {
      if (plan->edges[j].var == es.var) {
        es.eq_pos = static_cast<int>(j);
        break;
      }
    }
  }

  // A variable shared across kinds (node and edge) runs the scalar
  // element-equality join (which always fails on mixed kinds); keep such
  // degenerate patterns off the batch path rather than modelling them.
  for (const BatchPlan::NodeStep& ns : plan->nodes) {
    if (vars.info(ns.var).anonymous) continue;
    for (const BatchPlan::EdgeStep& es : plan->edges) {
      if (es.var == ns.var) return plan;  // `eligible` stays false.
    }
  }

  plan->eligible = !plan->nodes.empty();
  return plan;
}

/// Builds the reachability plan (see ReachPlan in nfa.h). Shape checks
/// first: every condition under which the scalar BFS's ANY pruning key
/// (StateKey) collapses to (edge-step position, node) per start node —
/// no restrictor memories, no provenance tags, no named variables other
/// than the start and final nodes, and iteration frames whose contents at
/// a parked edge step are fixed by the position (a single edge, no forks).
/// Then the epsilon closures are unrolled in worklist order.
class ReachCompiler {
 public:
  ReachCompiler(const Program& program, const PropertyGraph& g,
               const VarTable& vars, ReachPlan* plan)
      : program_(program), g_(g), vars_(vars), plan_(*plan) {}

  bool Build() {
    const Selector::Kind kind = program_.selector.kind;
    if (kind != Selector::Kind::kAny && kind != Selector::Kind::kAnyShortest) {
      return false;
    }
    if (program_.num_scopes != 0 || program_.max_depth > 1) return false;
    const std::vector<Instr>& code = program_.code;
    const Instr& first = code[static_cast<size_t>(program_.start)];
    if (first.op != Instr::Op::kNodeCheck) return false;
    start_var_ = vars_.info(first.var).anonymous ? -1 : first.var;

    edge_index_.assign(code.size(), -1);
    for (size_t pc = 0; pc < code.size(); ++pc) {
      const Instr& in = code[pc];
      switch (in.op) {
        case Instr::Op::kTag:
        case Instr::Op::kWhereCheck:
        case Instr::Op::kScopeBegin:
        case Instr::Op::kScopeEnd:
          return false;
        case Instr::Op::kFrameBegin:
          if (!in.quant_frame || !SingleEdgeBody(pc)) return false;
          break;
        case Instr::Op::kEdgeStep: {
          // An edge WHERE could only read a named edge variable's
          // properties, and named edge variables disqualify.
          if (!vars_.info(in.var).anonymous || in.edge->where != nullptr) {
            return false;
          }
          ReachPlan::EdgeStep es;
          es.pc = static_cast<int>(pc);
          es.var = in.var;
          edge_index_[pc] = static_cast<int>(plan_.edges.size());
          plan_.edges.push_back(std::move(es));
          break;
        }
        default:
          break;
      }
    }
    if (plan_.edges.empty()) return false;

    check_index_.assign(code.size(), -1);
    plan_.start_begin = static_cast<uint32_t>(plan_.items.size());
    if (!Walk(program_.start, 0)) return false;
    plan_.start_end = static_cast<uint32_t>(plan_.items.size());
    for (ReachPlan::EdgeStep& es : plan_.edges) {
      es.item_begin = static_cast<uint32_t>(plan_.items.size());
      if (!Walk(code[static_cast<size_t>(es.pc)].next, 0)) return false;
      es.item_end = static_cast<uint32_t>(plan_.items.size());
    }
    return true;
  }

 private:
  /// The iteration frame opened at `begin` holds exactly one edge step and
  /// no forks or nested frames before its kFrameEnd.
  bool SingleEdgeBody(size_t begin) const {
    size_t edges = 0;
    for (size_t pc = begin + 1; pc < program_.code.size(); ++pc) {
      const Instr& in = program_.code[pc];
      if (in.next != static_cast<int>(pc) + 1) return false;
      switch (in.op) {
        case Instr::Op::kFrameEnd: return edges == 1;
        case Instr::Op::kEdgeStep: ++edges; break;
        case Instr::Op::kNodeCheck: break;
        default: return false;
      }
    }
    return false;
  }

  /// The node_checks index of the kNodeCheck at `pc`, compiling it on
  /// first use; -1 when the position disqualifies the program.
  int CheckAt(int pc) {
    int& slot = check_index_[static_cast<size_t>(pc)];
    if (slot >= 0) return slot;
    const Instr& in = program_.code[static_cast<size_t>(pc)];
    const bool is_final =
        program_.code[static_cast<size_t>(in.next)].op == Instr::Op::kAccept;
    ReachPlan::NodeCheck nc;
    nc.pc = pc;
    nc.var = in.var;
    if (!vars_.info(in.var).anonymous) {
      // Named nodes: the start (bound once per seed) and final positions
      // (bound right before the accept) only, so no parked state carries a
      // per-path environment entry.
      if (pc != program_.start && !is_final) return -1;
      nc.eq_start = pc != program_.start && in.var == start_var_;
    }
    if (in.node->where != nullptr) {
      nc.has_kernel = true;
      if (!PredicateKernel::Compile(*in.node->where, in.var, vars_,
                                    g_.property_symbols(), &nc.kernel)) {
        return -1;
      }
    }
    nc.trivial = !nc.eq_start && !nc.has_kernel && in.node->labels == nullptr;
    slot = static_cast<int>(plan_.node_checks.size());
    plan_.node_checks.push_back(std::move(nc));
    return slot;
  }

  /// Unrolls the epsilon closure from `pc` exactly as the interpreter's
  /// AdvanceEpsilon visits it: a split explores `next` to completion before
  /// `alt` (LIFO worklist). `local_frames` counts iteration frames opened
  /// within this closure; a guarded kFrameEnd closing one of them saw no
  /// edge and kills the branch. False disqualifies the program.
  bool Walk(int pc, int local_frames) {
    const size_t checks_at_entry = pending_.size();
    bool ok = true;
    while (ok) {
      if (++budget_ > kMaxWalk) return false;
      const Instr& in = program_.code[static_cast<size_t>(pc)];
      bool done = false;
      switch (in.op) {
        case Instr::Op::kNodeCheck: {
          int idx = CheckAt(pc);
          if (idx < 0) return false;
          pending_.push_back(static_cast<uint32_t>(idx));
          pc = in.next;
          break;
        }
        case Instr::Op::kEdgeStep:
        case Instr::Op::kAccept:
          Emit(in.op == Instr::Op::kEdgeStep
                   ? edge_index_[static_cast<size_t>(pc)]
                   : -1);
          done = true;
          break;
        case Instr::Op::kSplit:
          ok = Walk(in.next, local_frames);
          pc = in.alt;
          break;
        case Instr::Op::kJump:
          pc = in.next;
          break;
        case Instr::Op::kFrameBegin:
          ++local_frames;
          pc = in.next;
          break;
        case Instr::Op::kFrameEnd:
          if (local_frames > 0) {
            if (in.guard_progress) {
              done = true;  // Zero-width iteration: the branch dies.
              break;
            }
            --local_frames;
          }
          pc = in.next;
          break;
        default:
          return false;
      }
      if (done) break;
    }
    pending_.resize(checks_at_entry);
    return ok;
  }

  void Emit(int edge) {
    ReachPlan::Item item;
    item.edge = edge;
    item.check_begin = static_cast<uint32_t>(plan_.checks.size());
    plan_.checks.insert(plan_.checks.end(), pending_.begin(), pending_.end());
    item.check_end = static_cast<uint32_t>(plan_.checks.size());
    plan_.items.push_back(item);
  }

  /// Bound on unrolled closure work: a pathological program (deep unrolled
  /// bounded quantifiers) stays on the scalar route instead of exploding.
  static constexpr size_t kMaxWalk = 1u << 14;

  const Program& program_;
  const PropertyGraph& g_;
  const VarTable& vars_;
  ReachPlan& plan_;
  int start_var_ = -1;
  std::vector<int> edge_index_;   // pc -> index into plan_.edges.
  std::vector<int> check_index_;  // pc -> index into plan_.node_checks.
  std::vector<uint32_t> pending_; // Node checks on the current walk path.
  size_t budget_ = 0;
};

std::shared_ptr<const ReachPlan> BuildReachPlan(const Program& program,
                                                const PropertyGraph& g,
                                                const VarTable& vars) {
  auto plan = std::make_shared<ReachPlan>();
  plan->eligible = ReachCompiler(program, g, vars, plan.get()).Build();
  return plan;
}

}  // namespace

void BindProgramToGraph(Program* program, const PropertyGraph& g,
                        const VarTable* vars) {
  const SymbolTable& labels = g.label_symbols();
  const bool use_bits = g.label_bits_usable();
  program->label_preds.clear();

  auto add_pred = [&](const LabelExprPtr& expr) {
    program->label_preds.push_back(
        CompiledLabelPred::Compile(expr, labels, use_bits));
    return static_cast<int>(program->label_preds.size()) - 1;
  };

  for (Instr& in : program->code) {
    in.lpred = -1;
    in.edge_label_sym = kNoLabelPartition;
    in.edge_prefiltered = false;
    if (in.op == Instr::Op::kNodeCheck && in.node->labels != nullptr) {
      in.lpred = add_pred(in.node->labels);
    }
    if (in.op != Instr::Op::kEdgeStep || in.edge->labels == nullptr) continue;
    in.lpred = add_pred(in.edge->labels);

    // Partition choice: a plain name scans exactly its bucket (membership
    // implies the match, no per-edge re-check); any other expression with
    // required conjuncts scans the globally rarest conjunct's bucket and
    // re-checks the compiled predicate per record.
    const LabelExpr& expr = *in.edge->labels;
    if (expr.kind == LabelExpr::Kind::kName) {
      in.edge_label_sym = labels.Find(expr.name);  // kInvalidSymbol = empty.
      in.edge_prefiltered = true;
      continue;
    }
    std::vector<const std::string*> required;
    expr.CollectRequiredNames(&required);
    if (required.empty()) continue;
    Symbol best = kNoLabelPartition;
    size_t best_count = 0;
    for (const std::string* name : required) {
      Symbol s = labels.Find(*name);
      if (s == kInvalidSymbol) {
        // A required label the graph never uses: nothing can match.
        best = kInvalidSymbol;
        break;
      }
      size_t count = g.EdgesWithLabel(s).size();
      if (best == kNoLabelPartition || count < best_count) {
        best = s;
        best_count = count;
      }
    }
    in.edge_label_sym = best;
  }

  // Batch / reachability eligibility + kernel compilation. Derived data
  // only — the fast routes and the scalar interpreter run the same bound
  // program; without a variable table (tests binding raw programs) both
  // fast routes stay off.
  program->batch =
      vars != nullptr ? BuildBatchPlan(*program, g, *vars) : nullptr;
  program->reach =
      vars != nullptr ? BuildReachPlan(*program, g, *vars) : nullptr;
}

}  // namespace gpml
