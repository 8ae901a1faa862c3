#include "eval/matcher.h"

#include <algorithm>
#include <map>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "eval/expr_eval.h"
#include "eval/selector.h"
#include "obs/clock.h"

namespace gpml {

namespace {

// ---------------------------------------------------------------------------
// Persistent id set (restrictor memory): linked additions, O(depth) lookup.
// ---------------------------------------------------------------------------

struct IdSetNode {
  uint32_t id;
  std::shared_ptr<const IdSetNode> prev;
};
using IdSet = std::shared_ptr<const IdSetNode>;

bool IdSetContains(const IdSet& set, uint32_t id) {
  for (const IdSetNode* cur = set.get(); cur != nullptr;
       cur = cur->prev.get()) {
    if (cur->id == id) return true;
  }
  return false;
}

IdSet IdSetAdd(const IdSet& set, uint32_t id) {
  auto node = std::make_shared<IdSetNode>();
  node->id = id;
  node->prev = set;
  return node;
}

size_t IdSetHash(const IdSet& set) {
  // Order-insensitive: XOR of element hashes (sets, not sequences).
  size_t h = 0;
  for (const IdSetNode* cur = set.get(); cur != nullptr;
       cur = cur->prev.get()) {
    h ^= (cur->id + 0x9e3779b9u) * 0x85ebca6bu;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Search state
// ---------------------------------------------------------------------------

struct ScopeState {
  int scope_id = -1;
  Restrictor restrictor = Restrictor::kNone;
  NodeId start_node = kInvalidId;
  bool start_revisited = false;  // SIMPLE: the one allowed repeat happened.
  IdSet edges;                   // TRAIL memory.
  IdSet nodes;                   // ACYCLIC / SIMPLE memory.
};

struct FrameState {
  uint32_t chain_size_at_begin = 0;
  uint32_t edges_at_begin = 0;
};

/// serials[depth] with inline storage: states are copied on every accepted
/// edge step, and quantifier nesting deeper than the inline capacity is
/// rare, so the common copy is a memcpy instead of a vector allocation.
class Serials {
 public:
  void assign(size_t n, uint64_t v) {
    if (n > kInline) {
      big_.assign(n, v);
    } else {
      big_.clear();
      for (size_t i = 0; i < kInline; ++i) small_[i] = v;
    }
  }
  uint64_t& operator[](size_t i) {
    return big_.empty() ? small_[i] : big_[i];
  }
  uint64_t operator[](size_t i) const {
    return big_.empty() ? small_[i] : big_[i];
  }

 private:
  static constexpr size_t kInline = 4;
  uint64_t small_[kInline] = {0, 0, 0, 0};
  std::vector<uint64_t> big_;
};

struct State {
  int pc = 0;
  NodeId node = kInvalidId;
  NodeId start = kInvalidId;
  uint32_t edges = 0;
  BindingChain chain;
  EnvChain env;
  Serials serials;  // Index = quantifier depth; [0] == 0.
  std::vector<FrameState> frames;
  std::vector<ScopeState> scopes;
  std::vector<int32_t> tags;
};

// ---------------------------------------------------------------------------
// Expression scope over an in-flight state
// ---------------------------------------------------------------------------

class SearchScope : public EvalScope {
 public:
  SearchScope(const State& state, int pending_var, ElementRef pending_el,
              bool has_pending, const Params* params)
      : state_(state),
        pending_var_(pending_var),
        pending_el_(pending_el),
        has_pending_(has_pending),
        params_(params) {}

  std::optional<ElementRef> LookupSingleton(int var) const override {
    if (has_pending_ && var == pending_var_) return pending_el_;
    const EnvLink* e = LookupEnv(state_.env, var);
    if (e == nullptr) return std::nullopt;
    return e->element;
  }

  std::vector<ElementRef> CollectGroup(int var) const override {
    // Innermost frame delimits the group (§4.4 per-iteration predicates and
    // §5.3 prefilters); without a frame, the whole binding so far.
    uint32_t floor = state_.frames.empty()
                         ? 0
                         : state_.frames.back().chain_size_at_begin;
    std::vector<ElementRef> out;
    for (const BindingLink* cur = state_.chain.get();
         cur != nullptr && cur->size > floor; cur = cur->prev.get()) {
      if (cur->binding.var == var) out.push_back(cur->binding.element);
    }
    std::reverse(out.begin(), out.end());
    if (has_pending_ && var == pending_var_) out.push_back(pending_el_);
    return out;
  }

  const Value* LookupParam(const std::string& name) const override {
    return FindParam(params_, name);
  }

 private:
  const State& state_;
  int pending_var_;
  ElementRef pending_el_;
  bool has_pending_;
  const Params* params_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Seed computation (shared by all shards; computed once per RunPattern)
// ---------------------------------------------------------------------------

/// Seeds: start nodes. An explicit seed filter (planner-restricted start
/// list) takes precedence; otherwise, when the first check constrains the
/// node's labels with required conjuncts (a plain name, or any conjunction
/// containing names), only nodes carrying every conjunct can match, so seed
/// from the most selective conjunct's label index — a superset of the
/// matches in the same ascending-id order the full scan would visit them.
std::vector<NodeId> ComputeSeeds(const PropertyGraph& g,
                                 const Program& program,
                                 const std::vector<NodeId>* seed_filter) {
  if (seed_filter != nullptr) return *seed_filter;
  int pc = program.start;
  while (true) {
    const Instr& in = program.code[static_cast<size_t>(pc)];
    if (in.op == Instr::Op::kScopeBegin || in.op == Instr::Op::kJump ||
        in.op == Instr::Op::kFrameBegin || in.op == Instr::Op::kTag) {
      pc = in.next;
      continue;
    }
    if (in.op == Instr::Op::kNodeCheck && in.node->labels != nullptr) {
      std::vector<const std::string*> required;
      in.node->labels->CollectRequiredNames(&required);
      const std::vector<NodeId>* best = nullptr;
      for (const std::string* name : required) {
        const std::vector<NodeId>& candidates =
            g.NodesWithLabel(g.label_symbols().Find(*name));
        if (best == nullptr || candidates.size() < best->size()) {
          best = &candidates;
        }
      }
      if (best != nullptr) return *best;
    }
    break;
  }
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) all[i] = i;
  return all;
}

namespace {

// ---------------------------------------------------------------------------
// The matcher: one shard's search over a contiguous block of the seed list
// ---------------------------------------------------------------------------

class Matcher {
 public:
  /// `budget` == nullptr (single-shard runs) keeps the step limit in a
  /// plain local counter — the exact historical per-step check, no atomics
  /// in the interpreter loop. With a shared budget (parallel shards), steps
  /// are charged in batches of `charge_stride` to keep the hot loop off the
  /// shared cache line; see ChargeSteps. Accepts are always capped locally
  /// at `match_cap` (see RecordAccept); `end_filter` is RunPattern's, and
  /// `reach_from_targets` its choice of the reach route's direction.
  Matcher(const PropertyGraph& g, const Program& program, const VarTable& vars,
          const MatcherOptions& options, const NodeId* seeds,
          size_t num_seeds, SharedBudget* budget, size_t charge_stride,
          const Params* params, size_t match_cap,
          const std::vector<NodeId>* end_filter, bool reach_from_targets)
      : g_(g),
        program_(program),
        vars_(vars),
        options_(options),
        seeds_(seeds),
        num_seeds_(num_seeds),
        budget_(budget),
        charge_stride_(charge_stride),
        params_(params),
        match_cap_(match_cap),
        end_filter_(end_filter),
        reach_from_targets_(reach_from_targets) {}

  Status Run() {
    // Fast routes (docs/vectorized.md): eligible programs with all their
    // predicate kernels bindable. Anything else — and the differential
    // oracle with use_batch off — runs the tuple-at-a-time interpreter.
    if (!program_.selector.IsNone()) {
      if (options_.use_batch && TryBindReach()) {
        route_ = MatchRoute::kReach;
        return reach_from_targets_ ? RunReachFromTargets() : RunReach();
      }
      return RunBfs();
    }
    if (options_.use_batch && TryBindBatch()) {
      route_ = MatchRoute::kBatch;
      return RunBatch();
    }
    return RunDfs();
  }

  /// Raw accepted bindings in discovery order, deduplicated within this
  /// shard (DFS: seed order; BFS: level order). Sorting, cross-shard
  /// deduplication, and the selector are applied by the caller's merge.
  std::vector<PathBinding> TakeResults() { return std::move(results_); }

  /// Charges the steps still pending against the shared budget.
  Status FlushSteps() {
    const size_t n = pending_steps_;
    pending_steps_ = 0;
    return n == 0 ? Status::OK() : budget_->ChargeSteps(n);
  }

  size_t steps() const { return steps_; }
  MatchRoute route() const { return route_; }
  size_t batch_blocks() const { return batch_blocks_; }
  size_t batch_candidates() const { return batch_candidates_; }
  size_t batch_survivors() const { return batch_survivors_; }

 private:
  // --- shared helpers ------------------------------------------------------

  /// Charges `n` executed steps — one per interpreter instruction, one per
  /// batch-gathered candidate. Single-shard runs check a plain local counter
  /// at the exact step; shards of a shared budget charge it every
  /// `charge_stride_` steps and flush the remainder when the shard ends
  /// (FlushSteps), so the run fails exactly when its total exceeds
  /// max_steps at any thread count.
  Status ChargeSteps(size_t n) {
    steps_ += n;
    if (budget_ == nullptr) {
      if (steps_ > options_.max_steps) {
        return Status::ResourceExhausted(SharedBudget::kStepsExceeded);
      }
      return Status::OK();
    }
    pending_steps_ += n;
    return pending_steps_ >= charge_stride_ ? FlushSteps() : Status::OK();
  }

  State MakeStart(NodeId s) const {
    State st;
    st.pc = program_.start;
    st.node = s;
    st.start = s;
    st.serials.assign(static_cast<size_t>(program_.max_depth) + 1, 0);
    return st;
  }

  /// Label admissibility through the program's compiled symbol predicate
  /// (bit tests, no strings); lpred < 0 means no label constraint.
  bool NodeLabelOk(const Instr& in, NodeId node) const {
    if (in.lpred < 0) return true;
    SymSpan syms = g_.node_label_syms(node);
    return program_.label_preds[static_cast<size_t>(in.lpred)].Matches(
        g_.node_label_bits(node), syms.data, syms.count);
  }
  bool EdgeLabelOk(const Instr& in, EdgeId edge) const {
    if (in.lpred < 0) return true;
    SymSpan syms = g_.edge_label_syms(edge);
    return program_.label_preds[static_cast<size_t>(in.lpred)].Matches(
        g_.edge_label_bits(edge), syms.data, syms.count);
  }

  /// Checks a node pattern against `node` with `state`'s environment;
  /// returns false to prune. On success appends the binding (out).
  Result<bool> ApplyNodeCheck(const Instr& in, State* state) {
    const NodePattern& np = *in.node;
    if (!NodeLabelOk(in, state->node)) return false;
    ElementRef ref = ElementRef::Node(state->node);

    // Implicit equi-join (§4.2): a previous binding of the same variable in
    // the same iteration instance must be the same node.
    const VarInfo& vi = vars_.info(in.var);
    if (!vi.anonymous) {
      const EnvLink* prev = LookupEnv(state->env, in.var);
      uint64_t serial = state->serials[static_cast<size_t>(vi.depth)];
      if (prev != nullptr && prev->serial == serial) {
        if (!(prev->element == ref)) return false;
      } else {
        state->env = ExtendEnv(state->env, in.var, ref, serial);
      }
    }
    if (np.where != nullptr) {
      SearchScope scope(*state, in.var, ref, /*has_pending=*/true, params_);
      GPML_ASSIGN_OR_RETURN(TriBool ok,
                            EvalPredicate(*np.where, g_, vars_, scope));
      if (ok != TriBool::kTrue) return false;
    }
    state->chain = Extend(state->chain, {in.var, ref});
    return true;
  }

  /// Orientation admissibility (Figure 5).
  static bool Admits(EdgeOrientation o, Traversal t) {
    switch (o) {
      case EdgeOrientation::kLeft: return t == Traversal::kBackward;
      case EdgeOrientation::kUndirected: return t == Traversal::kUndirected;
      case EdgeOrientation::kRight: return t == Traversal::kForward;
      case EdgeOrientation::kLeftOrUndirected:
        return t != Traversal::kForward;
      case EdgeOrientation::kUndirectedOrRight:
        return t != Traversal::kBackward;
      case EdgeOrientation::kLeftOrRight: return t != Traversal::kUndirected;
      case EdgeOrientation::kAny: return true;
    }
    return false;
  }

  /// Restrictor admission of the edge step (eid, next), split into a
  /// side-effect-free check on the source state and a mutation applied to
  /// the successor copy — so rejected steps never pay the State copy.
  /// Together they implement exactly the historical per-scope semantics:
  /// TRAIL forbids edge repeats, ACYCLIC node repeats, SIMPLE allows one
  /// repeat of the scope's first node as the final position.
  static bool CheckRestrictors(const State& state, EdgeId eid, NodeId next) {
    for (const ScopeState& sc : state.scopes) {
      switch (sc.restrictor) {
        case Restrictor::kTrail:
          if (IdSetContains(sc.edges, eid)) return false;
          break;
        case Restrictor::kAcyclic:
          if (IdSetContains(sc.nodes, next)) return false;
          break;
        case Restrictor::kSimple:
          if (sc.start_revisited) return false;
          if (IdSetContains(sc.nodes, next) && next != sc.start_node) {
            return false;
          }
          break;
        case Restrictor::kNone:
          break;
      }
    }
    return true;
  }

  /// Applies the step to the successor's scope memories. Pre-condition:
  /// CheckRestrictors passed on the source state (which shares the same
  /// persistent id sets), so a SIMPLE repeat here can only be the start
  /// node closing the path.
  static void ApplyRestrictors(State* state, EdgeId eid, NodeId next) {
    for (ScopeState& sc : state->scopes) {
      switch (sc.restrictor) {
        case Restrictor::kTrail:
          sc.edges = IdSetAdd(sc.edges, eid);
          break;
        case Restrictor::kAcyclic:
          sc.nodes = IdSetAdd(sc.nodes, next);
          break;
        case Restrictor::kSimple:
          if (IdSetContains(sc.nodes, next)) {
            sc.start_revisited = true;
          } else {
            sc.nodes = IdSetAdd(sc.nodes, next);
          }
          break;
        case Restrictor::kNone:
          break;
      }
    }
  }

  /// Attempts the edge step `in` from `state` over adjacency `adj` (a
  /// record of the step's CSR range); on success returns the successor
  /// state.
  Result<std::optional<State>> TryEdge(const Instr& in, const State& state,
                                       const Adjacency& adj) {
    const EdgePattern& ep = *in.edge;
    if (!Admits(ep.orientation, adj.traversal)) return std::optional<State>();
    if (!in.edge_prefiltered && !EdgeLabelOk(in, adj.edge)) {
      return std::optional<State>();
    }
    ElementRef ref = ElementRef::Edge(adj.edge);

    // Every rejection test runs against the source state first; the State
    // copy (persistent-chain refcounts, scope/frame vectors) is paid only
    // by admitted steps.
    const VarInfo& vi = vars_.info(in.var);
    bool extend_env = false;
    uint64_t serial = 0;
    if (!vi.anonymous) {
      const EnvLink* prev = LookupEnv(state.env, in.var);
      serial = state.serials[static_cast<size_t>(vi.depth)];
      if (prev != nullptr && prev->serial == serial) {
        if (!(prev->element == ref)) return std::optional<State>();
      } else {
        extend_env = true;
      }
    }
    if (ep.where != nullptr) {
      SearchScope scope(state, in.var, ref, /*has_pending=*/true, params_);
      GPML_ASSIGN_OR_RETURN(TriBool ok,
                            EvalPredicate(*ep.where, g_, vars_, scope));
      if (ok != TriBool::kTrue) return std::optional<State>();
    }
    if (!CheckRestrictors(state, adj.edge, adj.neighbor)) {
      return std::optional<State>();
    }

    State next = state;
    if (extend_env) next.env = ExtendEnv(next.env, in.var, ref, serial);
    ApplyRestrictors(&next, adj.edge, adj.neighbor);
    next.chain = Extend(next.chain, {in.var, ref}, adj.traversal);
    next.node = adj.neighbor;
    next.edges = state.edges + 1;
    next.pc = in.next;
    return std::optional<State>(std::move(next));
  }

  /// Runs epsilon work from `state` until edge steps (appended to `parked`)
  /// or accepts (recorded). Forks are handled with an explicit worklist —
  /// a member scratch so its capacity persists across the (very frequent)
  /// calls instead of reallocating per admitted edge. Not reentrant; no
  /// callee reaches AdvanceEpsilon again.
  Status AdvanceEpsilon(State state, std::vector<State>* parked) {
    std::vector<State>& work = epsilon_work_;
    work.clear();
    work.push_back(std::move(state));
    while (!work.empty()) {
      State cur = std::move(work.back());
      work.pop_back();
      bool dead = false;
      while (!dead) {
        GPML_RETURN_IF_ERROR(ChargeSteps(1));
        const Instr& in = program_.code[static_cast<size_t>(cur.pc)];
        switch (in.op) {
          case Instr::Op::kAccept: {
            GPML_RETURN_IF_ERROR(RecordAccept(cur.chain, cur.tags));
            dead = true;
            break;
          }
          case Instr::Op::kEdgeStep:
            parked->push_back(std::move(cur));
            dead = true;
            break;
          case Instr::Op::kNodeCheck: {
            GPML_ASSIGN_OR_RETURN(bool ok, ApplyNodeCheck(in, &cur));
            if (!ok) {
              dead = true;
            } else {
              cur.pc = in.next;
            }
            break;
          }
          case Instr::Op::kSplit: {
            State fork = cur;
            fork.pc = in.alt;
            work.push_back(std::move(fork));
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kJump:
            cur.pc = in.next;
            break;
          case Instr::Op::kFrameBegin: {
            FrameState f;
            f.chain_size_at_begin = cur.chain ? cur.chain->size : 0;
            f.edges_at_begin = cur.edges;
            cur.frames.push_back(f);
            if (in.quant_frame) {
              cur.serials[static_cast<size_t>(in.depth + 1)] = ++serial_gen_;
            }
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kWhereCheck: {
            SearchScope scope(cur, -1, ElementRef(), /*has_pending=*/false,
                              params_);
            GPML_ASSIGN_OR_RETURN(TriBool ok,
                                  EvalPredicate(*in.where, g_, vars_, scope));
            if (ok != TriBool::kTrue) {
              dead = true;
            } else {
              cur.pc = in.next;
            }
            break;
          }
          case Instr::Op::kFrameEnd: {
            const FrameState& f = cur.frames.back();
            if (in.guard_progress && cur.edges == f.edges_at_begin) {
              dead = true;  // Zero-width loop iteration: cut.
              break;
            }
            cur.frames.pop_back();
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kScopeBegin: {
            ScopeState sc;
            sc.scope_id = in.scope_id;
            sc.restrictor = in.restrictor;
            sc.start_node = cur.node;
            if (sc.restrictor == Restrictor::kAcyclic ||
                sc.restrictor == Restrictor::kSimple) {
              sc.nodes = IdSetAdd(nullptr, cur.node);
            }
            cur.scopes.push_back(std::move(sc));
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kScopeEnd: {
            cur.scopes.pop_back();
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kTag: {
            cur.tags.push_back(in.tag);
            cur.pc = in.next;
            break;
          }
        }
      }
    }
    return Status::OK();
  }

  /// Is `node` an admissible path end under the end filter?
  bool EndAdmitted(NodeId node) const {
    return end_filter_ == nullptr ||
           std::binary_search(end_filter_->begin(), end_filter_->end(), node);
  }

  /// Records one accepted binding. Every route ends here: the
  /// interpreter's kAccept, the batch drain (which accepts in the
  /// interpreter's order, so the shard-local keep-first dedup is
  /// route-independent), and the reachability route's witnesses. Accepts
  /// outside the end filter are dropped before they count; the rest are
  /// capped at match_cap_ (RunPattern cuts the merged set to the same cap).
  Status RecordAccept(const BindingChain& chain,
                      const std::vector<int32_t>& tags) {
    if (end_filter_ != nullptr && chain != nullptr) {
      const ElementRef& last = chain->binding.element;
      const NodeId end = last.is_node()
                             ? last.id
                             : ReduceChain(chain, vars_, tags).path.End();
      if (!EndAdmitted(end)) return Status::OK();
    }
    PathBinding pb = ReduceChain(chain, vars_, tags);
    size_t h = pb.ReducedHash();
    auto [it, inserted] = seen_.emplace(h, std::vector<size_t>());
    for (size_t idx : it->second) {
      if (results_[idx].SameReduced(pb)) return Status::OK();  // Duplicate.
    }
    if (results_.size() >= match_cap_) {
      // Partial deliveries stay within the limit: the binding that trips
      // max_matches is dropped (the search stops on the error either way).
      return Status::ResourceExhausted(SharedBudget::kMatchesExceeded);
    }
    it->second.push_back(results_.size());
    results_.push_back(std::move(pb));
    return Status::OK();
  }

  // --- DFS route (no selector) --------------------------------------------

  Status RunDfs() {
    for (size_t i = 0; i < num_seeds_; ++i) {
      GPML_RETURN_IF_ERROR(RunDfsSeed(seeds_[i]));
    }
    return Status::OK();
  }

  /// One seed's depth-first search — also the batch route's per-seed
  /// fallback when a frontier level overflows the in-memory cap.
  Status RunDfsSeed(NodeId seed) {
    std::vector<State> stack;
    GPML_RETURN_IF_ERROR(AdvanceEpsilon(MakeStart(seed), &stack));
    while (!stack.empty()) {
      State cur = std::move(stack.back());
      stack.pop_back();
      const Instr& in = program_.code[static_cast<size_t>(cur.pc)];
      for (const Adjacency& adj : g_.csr().Range(cur.node, in.edge_label_sym)) {
        GPML_RETURN_IF_ERROR(ChargeSteps(1));
        GPML_ASSIGN_OR_RETURN(std::optional<State> next,
                              TryEdge(in, cur, adj));
        if (next.has_value()) {
          GPML_RETURN_IF_ERROR(AdvanceEpsilon(std::move(*next), &stack));
        }
      }
    }
    return Status::OK();
  }

  // --- Batch route (docs/vectorized.md) -----------------------------------
  //
  // Linear fixed-length patterns expand level by level: levels_[l] holds
  // every partial binding of length l as a 16-byte FrontierEntry instead of
  // a State (no environment links, no chain refcounts — the binding is the
  // parent-pointer path itself). Each level is expanded in blocks of
  // kBatchBlockTarget entries: the block's adjacency candidates are gathered
  // into dense arrays, the filter cascade runs as selection-vector passes
  // over those arrays, and only final-hop survivors ever materialize a
  // BindingChain. Rows come out byte-identical to the scalar DFS because the
  // drain replays its accept order: the DFS pops parked states in reverse of
  // their push order at every level, so the level-(L-1) entries are visited
  // in exact reverse of the forward build order, each emitting its surviving
  // final-hop children in forward adjacency order.

  /// One partial binding on a frontier level: the node reached, the edge
  /// that reached it (kInvalidId on level 0), and the parent entry on the
  /// previous level.
  struct FrontierEntry {
    NodeId node = kInvalidId;
    EdgeId edge = kInvalidId;
    uint32_t parent = 0;
    Traversal traversal = Traversal::kForward;
  };

  /// Struct-of-arrays candidate block: the gathered adjacency records of one
  /// frontier block, plus the two selection vectors the filter passes
  /// ping-pong between.
  struct CandidateBlock {
    std::vector<uint32_t> parent;  // Absolute index into the source level.
    std::vector<EdgeId> edge;
    std::vector<NodeId> neighbor;
    std::vector<Traversal> traversal;
    std::vector<uint32_t> sel;
    std::vector<uint32_t> sel2;

    void Clear() {
      parent.clear();
      edge.clear();
      neighbor.clear();
      traversal.clear();
    }
    size_t size() const { return parent.size(); }
  };

  /// Per-seed frontier size cap: a level growing past this falls the seed
  /// back to the scalar DFS (bounded memory; the DFS recomputes from
  /// scratch, which is safe because the batch route emits no accepts until
  /// the final drain).
  static constexpr size_t kMaxLevelEntries = 1u << 22;

  /// Binds the program's compiled predicate kernels to this run's $params.
  /// False routes the run to the scalar interpreter: the program is not
  /// batch-eligible, or a kernel references an unbound parameter (the scalar
  /// evaluator then reproduces the unbound-parameter error exactly).
  bool TryBindBatch() {
    const BatchPlan* bp = program_.batch.get();
    return bp != nullptr && bp->eligible &&
           BindKernels(bp->nodes, &node_kernels_) &&
           BindKernels(bp->edges, &edge_kernels_);
  }

  /// Binds the `kernel` of every position in `steps` (a fast-route plan's
  /// node or edge positions) that `has_kernel`, into `out` by index.
  template <typename Steps>
  bool BindKernels(const Steps& steps,
                   std::vector<BoundPredicateKernel>* out) const {
    out->assign(steps.size(), BoundPredicateKernel());
    for (size_t i = 0; i < steps.size(); ++i) {
      if (steps[i].has_kernel &&
          !BindPredicateKernel(steps[i].kernel, params_, &(*out)[i])) {
        return false;
      }
    }
    return true;
  }

  /// The ancestor of `levels_[level][idx]` at `target_level`, by walking
  /// parent pointers — how equi-join passes reach the joined-to binding
  /// without any environment structure.
  const FrontierEntry& Ancestor(size_t level, uint32_t idx,
                                size_t target_level) const {
    const FrontierEntry* e = &levels_[level][idx];
    while (level > target_level) {
      idx = e->parent;
      --level;
      e = &levels_[level][idx];
    }
    return *e;
  }

  /// Expands levels_[h] into levels_[h+1] block-at-a-time. Returns true on
  /// overflow (the caller falls back to the scalar DFS for this seed).
  Result<bool> ExpandLevel(size_t h) {
    const BatchPlan& bp = *program_.batch;
    const BatchPlan::EdgeStep& es = bp.edges[h];
    const BatchPlan::NodeStep& ns = bp.nodes[h + 1];
    const Instr& edge_in = program_.code[static_cast<size_t>(es.pc)];
    const Instr& node_in = program_.code[static_cast<size_t>(ns.pc)];
    const EdgeOrientation orientation = edge_in.edge->orientation;
    const bool check_edge_label =
        !edge_in.edge_prefiltered && edge_in.lpred >= 0;
    const bool check_node_label = node_in.lpred >= 0 && !ns.label_implied;

    const std::vector<FrontierEntry>& frontier = levels_[h];
    std::vector<FrontierEntry>& next = levels_[h + 1];
    CandidateBlock& blk = block_;

    for (size_t base = 0; base < frontier.size();
         base += kBatchBlockTarget) {
      const size_t limit =
          std::min(base + kBatchBlockTarget, frontier.size());
      blk.Clear();

      // Gather: every adjacency candidate of the block's frontier entries,
      // straight out of the contiguous CSR label bucket (or the node's
      // full range when no partition applies).
      for (size_t f = base; f < limit; ++f) {
        const AdjSpan range =
            g_.csr().Range(frontier[f].node, edge_in.edge_label_sym);
        for (size_t k = 0; k < range.count; ++k) {
          const Adjacency& adj = range[k];
          blk.parent.push_back(static_cast<uint32_t>(f));
          blk.edge.push_back(adj.edge);
          blk.neighbor.push_back(adj.neighbor);
          blk.traversal.push_back(adj.traversal);
        }
      }
      const size_t n = blk.size();
      GPML_RETURN_IF_ERROR(ChargeSteps(n));
      ++batch_blocks_;
      batch_candidates_ += n;
      if (n == 0) continue;

      // Filter cascade over selection vectors: each pass scans the current
      // survivor list and compacts it. Pass order is free to differ from
      // the interpreter's check order because every pass is a pure
      // conjunct — the surviving set is the same either way.
      blk.sel.resize(n);
      for (size_t i = 0; i < n; ++i) {
        blk.sel[i] = static_cast<uint32_t>(i);
      }
      auto filter = [&blk](auto&& keep) {
        blk.sel2.clear();
        for (uint32_t i : blk.sel) {
          if (keep(i)) blk.sel2.push_back(i);
        }
        blk.sel.swap(blk.sel2);
      };

      if (orientation != EdgeOrientation::kAny) {
        filter([&](uint32_t i) {
          return Admits(orientation, blk.traversal[i]);
        });
      }
      if (check_edge_label) {
        filter([&](uint32_t i) {
          return EdgeLabelOk(edge_in, blk.edge[i]);
        });
      }
      if (!edge_kernels_[h].terms.empty()) {
        const BoundPredicateKernel& kernel = edge_kernels_[h];
        filter([&](uint32_t i) {
          return EvalKernel(kernel, g_, /*is_node=*/false, blk.edge[i]);
        });
      }
      if (es.eq_pos >= 0) {
        // Edge equi-join: hop q's edge lives on the level-(q+1) entry.
        const size_t target = static_cast<size_t>(es.eq_pos) + 1;
        filter([&](uint32_t i) {
          return Ancestor(h, blk.parent[i], target).edge == blk.edge[i];
        });
      }
      if (ns.eq_pos >= 0) {
        const size_t target = static_cast<size_t>(ns.eq_pos);
        filter([&](uint32_t i) {
          return Ancestor(h, blk.parent[i], target).node == blk.neighbor[i];
        });
      }
      if (check_node_label) {
        filter([&](uint32_t i) {
          return NodeLabelOk(node_in, blk.neighbor[i]);
        });
      }
      if (!node_kernels_[h + 1].terms.empty()) {
        const BoundPredicateKernel& kernel = node_kernels_[h + 1];
        filter([&](uint32_t i) {
          return EvalKernel(kernel, g_, /*is_node=*/true, blk.neighbor[i]);
        });
      }

      batch_survivors_ += blk.sel.size();
      for (uint32_t i : blk.sel) {
        next.push_back({blk.neighbor[i], blk.edge[i], blk.parent[i],
                        blk.traversal[i]});
      }
      if (next.size() > kMaxLevelEntries) return true;  // Overflow.
    }
    return false;
  }

  /// Materializes the binding chain of a final-level entry, exactly as the
  /// interpreter would have built it: node, then (edge, node) per hop, with
  /// the edge link carrying the traversal direction.
  BindingChain BuildChain(size_t level, uint32_t idx) {
    const BatchPlan& bp = *program_.batch;
    // Collect the entry's ancestor path root-first.
    chain_scratch_.resize(level + 1);
    {
      const FrontierEntry* e = &levels_[level][idx];
      size_t l = level;
      while (true) {
        chain_scratch_[l] = e;
        if (l == 0) break;
        e = &levels_[l - 1][e->parent];
        --l;
      }
    }
    BindingChain chain = Extend(
        nullptr, {bp.nodes[0].var, ElementRef::Node(chain_scratch_[0]->node)});
    for (size_t l = 1; l <= level; ++l) {
      const FrontierEntry& e = *chain_scratch_[l];
      chain = Extend(chain, {bp.edges[l - 1].var, ElementRef::Edge(e.edge)},
                     e.traversal);
      chain = Extend(chain, {bp.nodes[l].var, ElementRef::Node(e.node)});
    }
    return chain;
  }

  Status RunBatch() {
    const BatchPlan& bp = *program_.batch;
    const size_t hops = bp.edges.size();
    levels_.resize(hops + 1);

    for (size_t s = 0; s < num_seeds_; ++s) {
      const NodeId seed = seeds_[s];
      // Level 0: the seed must pass the first node check (seeding may have
      // come from a label-index superset, exactly like the scalar route).
      GPML_RETURN_IF_ERROR(ChargeSteps(1));
      const Instr& first = program_.code[static_cast<size_t>(bp.nodes[0].pc)];
      if (!NodeLabelOk(first, seed)) continue;
      if (!node_kernels_[0].terms.empty() &&
          !EvalKernel(node_kernels_[0], g_, /*is_node=*/true, seed)) {
        continue;
      }
      if (hops == 0) {
        GPML_RETURN_IF_ERROR(RecordAccept(
            Extend(nullptr, {bp.nodes[0].var, ElementRef::Node(seed)}),
            no_tags_));
        continue;
      }

      for (std::vector<FrontierEntry>& level : levels_) level.clear();
      levels_[0].push_back({seed, kInvalidId, 0, Traversal::kForward});
      bool overflow = false;
      for (size_t h = 0; h < hops && !overflow; ++h) {
        GPML_ASSIGN_OR_RETURN(overflow, ExpandLevel(h));
        if (!overflow && levels_[h + 1].empty()) break;
      }
      if (overflow) {
        // Bounded-memory fallback: redo this seed tuple-at-a-time. No
        // accepts have been emitted for it yet, so the replay keeps the
        // result stream identical (the already-charged batch steps stay
        // charged — deterministic overshoot).
        GPML_RETURN_IF_ERROR(RunDfsSeed(seed));
        continue;
      }
      if (levels_[hops].empty()) continue;

      // Drain in scalar-DFS accept order: level-(hops-1) entries in reverse
      // of forward build order, each emitting its surviving final-hop
      // children in forward adjacency order. Children of one parent are
      // contiguous in levels_[hops] because the gather walks parents in
      // order — so a per-parent offset table suffices.
      const std::vector<FrontierEntry>& parents = levels_[hops - 1];
      const std::vector<FrontierEntry>& finals = levels_[hops];
      drain_offsets_.assign(parents.size() + 1, 0);
      for (const FrontierEntry& e : finals) {
        ++drain_offsets_[e.parent + 1];
      }
      for (size_t p = 1; p <= parents.size(); ++p) {
        drain_offsets_[p] += drain_offsets_[p - 1];
      }
      for (size_t p = parents.size(); p-- > 0;) {
        for (size_t i = drain_offsets_[p]; i < drain_offsets_[p + 1]; ++i) {
          GPML_RETURN_IF_ERROR(RecordAccept(
              BuildChain(hops, static_cast<uint32_t>(i)), no_tags_));
        }
      }
    }
    return Status::OK();
  }

  // --- Reachability route (docs/vectorized.md) ----------------------------
  //
  // Quantified ANY / ANY SHORTEST programs of the ReachPlan shape. Under
  // that shape the scalar BFS's pruning key is exactly (edge-step position,
  // node) per start node, so one BFS per seed over those pairs, admitting
  // each pair once in forward CSR order, keeps the very states the scalar
  // BFS expands, in the same order. Each accept therefore has the scalar
  // witness as its parent-pointer path, and only the first accept per end
  // node — the one ApplySelector keeps — is ever materialized. Per-seed
  // output is level-ordered; MergeShards' stable length sort interleaves
  // the seeds back into the scalar's level-then-seed order.
  //
  // Because each level is admitted in order of its tree paths' keys — the
  // start closure item, then (CSR position, closure item) per hop — the
  // first accept at an end node t is the lexicographically smallest of the
  // shortest accept paths to t. The target side (RunReachFromTargets)
  // rebuilds exactly that path from the other end: one reverse BFS per
  // end-filter node gives every state its distance to an accept there,
  // and a greedy forward walk from each seed takes the first key whose
  // successor is one hop closer.

  /// One admitted (edge-step position, node) pair: the node, the edge and
  /// traversal that reached it (kInvalidId for the seed's own entries), the
  /// parent entry, and the closure item that parked it (its node checks
  /// are the bindings made on `node`; its `edge` is the step to expand).
  struct ReachEntry {
    NodeId node = kInvalidId;
    EdgeId edge = kInvalidId;
    uint32_t parent = 0;
    uint32_t item = 0;
    Traversal traversal = Traversal::kForward;
  };
  static constexpr uint32_t kNoParent = 0xffffffffu;

  /// Binds the reach plan's kernels to this run's $params; false routes the
  /// run to the scalar BFS (not eligible, or an unbound parameter, whose
  /// error the scalar evaluator then reproduces exactly).
  bool TryBindReach() {
    const ReachPlan* rp = program_.reach.get();
    return rp != nullptr && rp->eligible &&
           BindKernels(rp->node_checks, &node_kernels_);
  }

  /// Do the node checks of closure item `item` pass on `node`?
  bool ReachChecksPass(const ReachPlan& rp, const ReachPlan::Item& item,
                       NodeId node, NodeId seed) const {
    for (uint32_t k = item.check_begin; k < item.check_end; ++k) {
      const uint32_t idx = rp.checks[k];
      const ReachPlan::NodeCheck& nc = rp.node_checks[idx];
      if (nc.trivial) continue;
      if (nc.eq_start && node != seed) return false;
      if (!NodeLabelOk(program_.code[static_cast<size_t>(nc.pc)], node)) {
        return false;
      }
      if (nc.has_kernel &&
          !EvalKernel(node_kernels_[idx], g_, /*is_node=*/true, node)) {
        return false;
      }
    }
    return true;
  }

  /// Appends the bindings of closure item `item`'s node checks on `node`.
  static BindingChain ExtendChecks(const ReachPlan& rp,
                                   const ReachPlan::Item& item, NodeId node,
                                   BindingChain chain) {
    for (uint32_t k = item.check_begin; k < item.check_end; ++k) {
      chain = Extend(chain, {rp.node_checks[rp.checks[k]].var,
                             ElementRef::Node(node)});
    }
    return chain;
  }

  /// Does edge step `edge_in` admit crossing `edge` as `traversal`:
  /// orientation, and label unless the CSR bucket implies it? (Reach edge
  /// steps carry no WHERE.)
  bool ReachEdgeOk(const Instr& edge_in, EdgeId edge,
                   Traversal traversal) const {
    return Admits(edge_in.edge->orientation, traversal) &&
           (edge_in.edge_prefiltered || EdgeLabelOk(edge_in, edge));
  }

  /// The edge variable of the step that expanded entry `parent`.
  static int StepVar(const ReachPlan& rp, const ReachEntry& parent) {
    return rp.edges[static_cast<size_t>(rp.items[parent.item].edge)].var;
  }

  /// Materializes the witness accepted by closure item `item` on `node`,
  /// reached from entry `parent` over `adj` (both absent for accepts in the
  /// seed's own closure): exactly the chain the interpreter built.
  BindingChain BuildReachChain(const ReachPlan& rp, uint32_t parent,
                               const Adjacency* adj,
                               const ReachPlan::Item& item, NodeId node) {
    reach_path_.clear();
    for (uint32_t i = parent; i != kNoParent; i = reach_entries_[i].parent) {
      reach_path_.push_back(i);
    }
    BindingChain chain;
    for (size_t k = reach_path_.size(); k-- > 0;) {
      const ReachEntry& e = reach_entries_[reach_path_[k]];
      if (e.parent != kNoParent) {
        chain = Extend(chain,
                       {StepVar(rp, reach_entries_[e.parent]),
                        ElementRef::Edge(e.edge)},
                       e.traversal);
      }
      chain = ExtendChecks(rp, rp.items[e.item], e.node, std::move(chain));
    }
    if (adj != nullptr) {
      chain = Extend(chain,
                     {StepVar(rp, reach_entries_[parent]),
                      ElementRef::Edge(adj->edge)},
                     adj->traversal);
    }
    return ExtendChecks(rp, item, node, std::move(chain));
  }

  Status RunReach() {
    const ReachPlan& rp = *program_.reach;
    const size_t n = g_.num_nodes();
    // Epoch-stamped marks, reused across seeds: (edge step, node) admitted,
    // and end node witnessed. O(edge steps x nodes) per shard.
    reach_visited_.assign(rp.edges.size() * n, 0);
    reach_witnessed_.assign(n, 0);
    const size_t targets =
        end_filter_ != nullptr ? end_filter_->size() : size_t{0};

    for (size_t s = 0; s < num_seeds_; ++s) {
      const NodeId seed = seeds_[s];
      const uint32_t epoch = static_cast<uint32_t>(s) + 1;
      GPML_RETURN_IF_ERROR(ChargeSteps(1));
      reach_entries_.clear();
      size_t witnessed = 0;
      bool done = false;

      // Admits one closure item's outcome on `node`: park a new entry, or
      // record the first witness ending there. `done` once every end-filter
      // target has its witness — nothing later can survive the filter.
      auto visit = [&](uint32_t it, NodeId node, uint32_t parent,
                       const Adjacency* adj) -> Status {
        const ReachPlan::Item& item = rp.items[it];
        if (!ReachChecksPass(rp, item, node, seed)) return Status::OK();
        if (item.edge >= 0) {
          uint32_t& mark =
              reach_visited_[static_cast<size_t>(item.edge) * n + node];
          if (mark == epoch) return Status::OK();
          mark = epoch;
          ReachEntry e;
          e.node = node;
          e.parent = parent;
          e.item = it;
          if (adj != nullptr) {
            e.edge = adj->edge;
            e.traversal = adj->traversal;
          }
          reach_entries_.push_back(e);
          return Status::OK();
        }
        if (reach_witnessed_[node] == epoch || !EndAdmitted(node)) {
          return Status::OK();
        }
        reach_witnessed_[node] = epoch;
        GPML_RETURN_IF_ERROR(RecordAccept(
            BuildReachChain(rp, parent, adj, item, node), no_tags_));
        done = targets > 0 && ++witnessed == targets;
        return Status::OK();
      };

      for (uint32_t it = rp.start_begin; it < rp.start_end && !done; ++it) {
        GPML_RETURN_IF_ERROR(visit(it, seed, kNoParent, nullptr));
      }
      size_t level_begin = 0;
      while (level_begin < reach_entries_.size() && !done) {
        const size_t level_end = reach_entries_.size();
        ++batch_blocks_;
        for (size_t i = level_begin; i < level_end && !done; ++i) {
          const ReachEntry cur = reach_entries_[i];
          const size_t step = static_cast<size_t>(rp.items[cur.item].edge);
          const ReachPlan::EdgeStep& es = rp.edges[step];
          const Instr& edge_in = program_.code[static_cast<size_t>(es.pc)];
          const AdjSpan range =
              g_.csr().Range(cur.node, edge_in.edge_label_sym);
          GPML_RETURN_IF_ERROR(ChargeSteps(range.count));
          batch_candidates_ += range.count;
          for (size_t k = 0; k < range.count && !done; ++k) {
            const Adjacency& adj = range[k];
            if (!ReachEdgeOk(edge_in, adj.edge, adj.traversal)) continue;
            ++batch_survivors_;
            for (uint32_t it = es.item_begin; it < es.item_end && !done;
                 ++it) {
              GPML_RETURN_IF_ERROR(
                  visit(it, adj.neighbor, static_cast<uint32_t>(i), &adj));
            }
          }
        }
        level_begin = level_end;
      }
    }
    return Status::OK();
  }

  // --- Reachability route, target side (docs/vectorized.md) ---------------

  /// Marks a state without a known distance to the current target.
  static constexpr uint32_t kUnreached = 0xffffffffu;

  /// One state the reverse BFS reached, in level order.
  struct ReachState {
    uint32_t step = 0;
    NodeId node = kInvalidId;
  };

  /// One first hop of a seed out of a start-only step (see
  /// RunReachFromTargets): the start closure item that parked there, the
  /// CSR position, record and closure item taken, and the node reached.
  struct FirstHop {
    uint32_t start_item = 0;
    uint32_t k = 0;
    uint32_t item = 0;
    NodeId node = kInvalidId;
    EdgeId edge = kInvalidId;
    Traversal traversal = Traversal::kForward;
  };

  /// One seed's witness to one target, staged until every target is done:
  /// the seed's index, the path length, its key sequence
  /// reach_keys_[key_begin, key_end) and its binding chain.
  struct TargetWitness {
    uint32_t seed = 0;
    uint32_t length = 0;
    uint32_t key_begin = 0;
    uint32_t key_end = 0;
    BindingChain chain;
  };

  /// The same edge crossed the other way.
  static Traversal Reversed(Traversal t) {
    switch (t) {
      case Traversal::kForward: return Traversal::kBackward;
      case Traversal::kBackward: return Traversal::kForward;
      case Traversal::kUndirected: return Traversal::kUndirected;
    }
    return t;
  }

  /// Hops from closure item `item` on `node` to an accept at `target`: 0
  /// when it accepts there, else the parked state's known distance
  /// (kUnreached when none). The item's node checks are not evaluated.
  uint32_t ItemDistance(const ReachPlan::Item& item, NodeId node,
                        NodeId target) const {
    if (item.edge < 0) return node == target ? 0 : kUnreached;
    return reach_dist_[static_cast<size_t>(item.edge) * g_.num_nodes() +
                       node];
  }

  /// What is known of a start item's hops to an accept at the target.
  struct StartBounds {
    uint32_t known = kUnreached;  // Its distance, once determined.
    uint32_t floor = kUnreached;  // Otherwise the least it may still be;
                                  // kUnreached: it never reaches the target.
  };

  /// Bounds for seed `seeds_[s]` through start closure item `it` when
  /// every state at most `level` hops from an accept at `target` has its
  /// distance (`exhausted`: every state that has one). A parked state not
  /// found yet is more than `level` hops away; a first hop out of a
  /// start-only step adds one.
  StartBounds StartItemBounds(const ReachPlan& rp, size_t s, uint32_t it,
                              NodeId target, uint32_t level,
                              bool exhausted) const {
    const ReachPlan::Item& item = rp.items[it];
    StartBounds b;
    if (item.edge < 0 || !reach_start_only_[static_cast<size_t>(item.edge)]) {
      b.known = ItemDistance(item, seeds_[s], target);
      if (b.known == kUnreached && item.edge >= 0 && !exhausted) {
        b.floor = level + 1;
      }
      return b;
    }
    for (uint32_t h = reach_hop_begin_[s]; h < reach_hop_begin_[s + 1]; ++h) {
      const FirstHop& hop = reach_hops_[h];
      if (hop.start_item != it) continue;
      const ReachPlan::Item& next = rp.items[hop.item];
      const uint32_t d = ItemDistance(next, hop.node, target);
      if (d != kUnreached) {
        b.known = std::min(b.known, d + 1);
      } else if (next.edge >= 0 && !exhausted) {
        b.floor = level + 2;
      }
    }
    return b;
  }

  /// Settles seed `seeds_[s]`'s witness length to `target` (kUnreached: no
  /// path) into `*length` once no start item without a known distance can
  /// still tie or beat the best known one; false while one can.
  bool SettleSeed(const ReachPlan& rp, size_t s, NodeId target,
                  uint32_t level, bool exhausted, uint32_t* length) const {
    uint32_t best = kUnreached;
    uint32_t floor = kUnreached;
    for (uint32_t it = rp.start_begin; it < rp.start_end; ++it) {
      if (!ReachChecksPass(rp, rp.items[it], seeds_[s], seeds_[s])) continue;
      const StartBounds b =
          StartItemBounds(rp, s, it, target, level, exhausted);
      best = std::min(best, b.known);
      if (b.known == kUnreached) floor = std::min(floor, b.floor);
    }
    *length = best;
    return floor == kUnreached || best < floor;
  }

  /// Gives distance `dist` to every unreached state (e, v) with an edge of
  /// step e into `node` through a closure item of e that ends on `node` at
  /// `next_step` (-1: accepts there) and passes its checks: `node`'s CSR
  /// range for step e, each record crossed the other way. Start-only steps
  /// are skipped — their seeds' first hops are listed forward instead.
  Status ReverseExpand(const ReachPlan& rp, int next_step, NodeId node,
                       uint32_t dist) {
    const size_t n = g_.num_nodes();
    for (size_t e = 0; e < rp.edges.size(); ++e) {
      if (reach_start_only_[e]) continue;
      const ReachPlan::EdgeStep& es = rp.edges[e];
      bool enters = false;
      for (uint32_t it = es.item_begin; it < es.item_end && !enters; ++it) {
        const ReachPlan::Item& item = rp.items[it];
        enters =
            item.edge == next_step && ReachChecksPass(rp, item, node, node);
      }
      if (!enters) continue;
      const Instr& edge_in = program_.code[static_cast<size_t>(es.pc)];
      const AdjSpan range = g_.csr().Range(node, edge_in.edge_label_sym);
      GPML_RETURN_IF_ERROR(ChargeSteps(range.count));
      batch_candidates_ += range.count;
      for (size_t k = 0; k < range.count; ++k) {
        const Adjacency& adj = range[k];
        if (!ReachEdgeOk(edge_in, adj.edge, Reversed(adj.traversal))) {
          continue;
        }
        ++batch_survivors_;
        uint32_t& d = reach_dist_[e * n + adj.neighbor];
        if (d != kUnreached) continue;
        d = dist;
        reach_states_.push_back({static_cast<uint32_t>(e), adj.neighbor});
      }
    }
    return Status::OK();
  }

  /// Reverse BFS from the accepts at `target`, level by level, until every
  /// seed's witness length is settled (reach_seed_len_, kUnreached for
  /// seeds with no path). Each level is finished before seeds are settled
  /// on it, so every state on a settled seed's shortest paths has its
  /// distance when the walks run.
  Status ReverseReach(const ReachPlan& rp, NodeId target) {
    reach_states_.clear();
    reach_pending_.clear();
    for (size_t s = 0; s < num_seeds_; ++s) {
      reach_pending_.push_back(static_cast<uint32_t>(s));
    }
    reach_seed_len_.assign(num_seeds_, kUnreached);
    // Settles what the states known so far decide; false once none pend.
    auto settle = [&](uint32_t level, bool exhausted) {
      size_t kept = 0;
      for (uint32_t s : reach_pending_) {
        if (!SettleSeed(rp, s, target, level, exhausted,
                        &reach_seed_len_[s])) {
          reach_pending_[kept++] = s;
        }
      }
      reach_pending_.resize(kept);
      return kept > 0;
    };
    if (!settle(0, false)) return Status::OK();
    ++batch_blocks_;
    GPML_RETURN_IF_ERROR(ReverseExpand(rp, /*next_step=*/-1, target, 1));
    size_t level_begin = 0;
    for (uint32_t dist = 1; settle(dist, level_begin == reach_states_.size());
         ++dist) {
      const size_t level_end = reach_states_.size();
      ++batch_blocks_;
      for (size_t i = level_begin; i < level_end; ++i) {
        const ReachState st = reach_states_[i];
        GPML_RETURN_IF_ERROR(
            ReverseExpand(rp, static_cast<int>(st.step), st.node, dist + 1));
      }
      level_begin = level_end;
    }
    return Status::OK();
  }

  /// Lists every seed's first hops out of start-only steps, in forward
  /// (start item, CSR position, closure item) order: the reverse BFS never
  /// expands into those steps, whose states matter only on seeds.
  Status ListFirstHops(const ReachPlan& rp) {
    reach_hops_.clear();
    reach_hop_begin_.assign(1, 0);
    for (size_t s = 0; s < num_seeds_; ++s) {
      const NodeId seed = seeds_[s];
      for (uint32_t it = rp.start_begin; it < rp.start_end; ++it) {
        const ReachPlan::Item& start = rp.items[it];
        if (start.edge < 0 ||
            !reach_start_only_[static_cast<size_t>(start.edge)] ||
            !ReachChecksPass(rp, start, seed, seed)) {
          continue;
        }
        const ReachPlan::EdgeStep& es =
            rp.edges[static_cast<size_t>(start.edge)];
        const Instr& edge_in = program_.code[static_cast<size_t>(es.pc)];
        const AdjSpan range = g_.csr().Range(seed, edge_in.edge_label_sym);
        GPML_RETURN_IF_ERROR(ChargeSteps(range.count));
        batch_candidates_ += range.count;
        for (size_t k = 0; k < range.count; ++k) {
          const Adjacency& adj = range[k];
          if (!ReachEdgeOk(edge_in, adj.edge, adj.traversal)) continue;
          ++batch_survivors_;
          for (uint32_t i = es.item_begin; i < es.item_end; ++i) {
            if (!ReachChecksPass(rp, rp.items[i], adj.neighbor, seed)) {
              continue;
            }
            reach_hops_.push_back({it, static_cast<uint32_t>(k), i,
                                   adj.neighbor, adj.edge, adj.traversal});
          }
        }
      }
      reach_hop_begin_.push_back(static_cast<uint32_t>(reach_hops_.size()));
    }
    return Status::OK();
  }

  /// Walks seed `seeds_[s]`'s witness to `target` forward — the first
  /// start item, then at each state the first (CSR position, closure item),
  /// whose remaining distance fits the settled length — and stages it with
  /// its key sequence. The chain is the one BuildReachChain builds for it.
  Status WalkWitness(const ReachPlan& rp, size_t s, NodeId target) {
    const NodeId seed = seeds_[s];
    const uint32_t length = reach_seed_len_[s];
    const auto key_begin = static_cast<uint32_t>(reach_keys_.size());
    uint32_t first = rp.start_begin;
    while (first < rp.start_end &&
           (!ReachChecksPass(rp, rp.items[first], seed, seed) ||
            StartItemBounds(rp, s, first, target, 0, true).known != length)) {
      ++first;
    }
    if (first == rp.start_end) {
      return Status::Internal("reach walk: no start item fits the length");
    }
    reach_keys_.push_back(first);
    BindingChain chain = ExtendChecks(rp, rp.items[first], seed, nullptr);
    int step = rp.items[first].edge;
    NodeId node = seed;
    // Takes the hop over `edge` to `item` on `next`, found at position k.
    auto take = [&](uint32_t k, uint32_t item, NodeId next, EdgeId edge,
                    Traversal traversal) {
      chain = Extend(chain, {rp.edges[static_cast<size_t>(step)].var,
                             ElementRef::Edge(edge)},
                     traversal);
      chain = ExtendChecks(rp, rp.items[item], next, std::move(chain));
      reach_keys_.push_back(k);
      reach_keys_.push_back(item);
      step = rp.items[item].edge;
      node = next;
    };
    for (uint32_t left = length; left > 0; --left) {
      bool found = false;
      if (reach_start_only_[static_cast<size_t>(step)]) {
        // First hop out of a start-only step: already listed.
        for (uint32_t h = reach_hop_begin_[s];
             h < reach_hop_begin_[s + 1] && !found; ++h) {
          const FirstHop& hop = reach_hops_[h];
          if (hop.start_item != first ||
              ItemDistance(rp.items[hop.item], hop.node, target) !=
                  left - 1) {
            continue;
          }
          found = true;
          take(hop.k, hop.item, hop.node, hop.edge, hop.traversal);
        }
      } else {
        const ReachPlan::EdgeStep& es = rp.edges[static_cast<size_t>(step)];
        const Instr& edge_in = program_.code[static_cast<size_t>(es.pc)];
        const AdjSpan range = g_.csr().Range(node, edge_in.edge_label_sym);
        size_t scanned = 0;
        while (scanned < range.count && !found) {
          const size_t k = scanned++;
          const Adjacency& adj = range[k];
          if (!ReachEdgeOk(edge_in, adj.edge, adj.traversal)) continue;
          ++batch_survivors_;
          for (uint32_t it = es.item_begin; it < es.item_end && !found;
               ++it) {
            const ReachPlan::Item& item = rp.items[it];
            if (ItemDistance(item, adj.neighbor, target) != left - 1 ||
                !ReachChecksPass(rp, item, adj.neighbor, seed)) {
              continue;
            }
            found = true;
            take(static_cast<uint32_t>(k), it, adj.neighbor, adj.edge,
                 adj.traversal);
          }
        }
        GPML_RETURN_IF_ERROR(ChargeSteps(scanned));
        batch_candidates_ += scanned;
      }
      if (!found) return Status::Internal("reach walk: no closer successor");
    }
    reach_witnesses_.push_back({static_cast<uint32_t>(s), length, key_begin,
                                static_cast<uint32_t>(reach_keys_.size()),
                                std::move(chain)});
    return Status::OK();
  }

  /// The reach route from the end filter's side: per target, one reverse
  /// BFS and one forward walk per seed with a path. A step no edge step's
  /// closure parks at ("start-only", the first copy of `->+`) is entered
  /// only from seeds, so its states are never searched in reverse; each
  /// seed lists its hops out of it once instead. Witnesses are recorded at
  /// the end in the seed side's discovery order — seed index, then length,
  /// then key — so the match cut and the merge see the same sequence. One
  /// step per target plus one per adjacency candidate: first-hop lists,
  /// reverse scans and walks.
  Status RunReachFromTargets() {
    const ReachPlan& rp = *program_.reach;
    reach_witnesses_.clear();
    reach_keys_.clear();
    if (end_filter_->empty()) return Status::OK();
    reach_start_only_.assign(rp.edges.size(), 1);
    for (const ReachPlan::EdgeStep& es : rp.edges) {
      for (uint32_t it = es.item_begin; it < es.item_end; ++it) {
        const int e = rp.items[it].edge;
        if (e >= 0) reach_start_only_[static_cast<size_t>(e)] = 0;
      }
    }
    reach_dist_.assign(rp.edges.size() * g_.num_nodes(), kUnreached);
    GPML_RETURN_IF_ERROR(ListFirstHops(rp));
    for (const NodeId target : *end_filter_) {
      GPML_RETURN_IF_ERROR(ChargeSteps(1));
      GPML_RETURN_IF_ERROR(ReverseReach(rp, target));
      for (size_t s = 0; s < num_seeds_; ++s) {
        if (reach_seed_len_[s] == kUnreached) continue;
        GPML_RETURN_IF_ERROR(WalkWitness(rp, s, target));
      }
      for (const ReachState& st : reach_states_) {
        reach_dist_[st.step * g_.num_nodes() + st.node] = kUnreached;
      }
    }
    const std::vector<uint32_t>& keys = reach_keys_;
    std::sort(reach_witnesses_.begin(), reach_witnesses_.end(),
              [&keys](const TargetWitness& a, const TargetWitness& b) {
                if (a.seed != b.seed) return a.seed < b.seed;
                if (a.length != b.length) return a.length < b.length;
                return std::lexicographical_compare(
                    keys.begin() + a.key_begin, keys.begin() + a.key_end,
                    keys.begin() + b.key_begin, keys.begin() + b.key_end);
              });
    for (const TargetWitness& w : reach_witnesses_) {
      GPML_RETURN_IF_ERROR(RecordAccept(w.chain, no_tags_));
    }
    return Status::OK();
  }

  // --- BFS route (selector present) ---------------------------------------

  /// Pruning key: product state plus everything that influences future
  /// admissibility or result identity (named environment with iteration
  /// currency, open-frame contents, restrictor memories, provenance tags).
  /// The key hashes the start node, so visit budgets are per start node and
  /// seed-partitioned shards prune exactly like the sequential frontier.
  size_t StateKey(const State& state) const {
    size_t h = 0x9ddfea08eb382d69ULL;
    h = HashCombine(h, static_cast<size_t>(state.pc));
    h = HashCombine(h, state.node);
    h = HashCombine(h, state.start);
    // Latest binding per named var, with "bound in the current iteration
    // instance at its depth" as part of the key instead of the raw serial.
    std::unordered_set<int> seen_vars;
    for (const EnvLink* e = state.env.get(); e != nullptr;
         e = e->prev.get()) {
      if (!seen_vars.insert(e->var).second) continue;
      const VarInfo& vi = vars_.info(e->var);
      bool current =
          e->serial == state.serials[static_cast<size_t>(vi.depth)];
      h = HashCombine(h, static_cast<size_t>(e->var) * 2654435761u);
      h = HashCombine(h, ElementRefHash()(e->element));
      h = HashCombine(h, current ? 0x51u : 0x7fu);
    }
    if (!state.frames.empty()) {
      uint32_t floor = state.frames.front().chain_size_at_begin;
      for (const BindingLink* b = state.chain.get();
           b != nullptr && b->size > floor; b = b->prev.get()) {
        h = HashCombine(h, static_cast<size_t>(b->binding.var));
        h = HashCombine(h, ElementRefHash()(b->binding.element));
      }
      h = HashCombine(h, state.frames.size());
    }
    for (const ScopeState& sc : state.scopes) {
      h = HashCombine(h, static_cast<size_t>(sc.restrictor));
      h = HashCombine(h, sc.start_node);
      h = HashCombine(h, sc.start_revisited ? 1u : 2u);
      h = HashCombine(h, IdSetHash(sc.edges));
      h = HashCombine(h, IdSetHash(sc.nodes));
    }
    for (int32_t t : state.tags) h = HashCombine(h, 0xabcd + static_cast<size_t>(t));
    return h;
  }

  /// May `state` (parked at an edge step, at BFS level `level`) expand?
  bool AdmitExpansion(const State& state, uint32_t level) {
    size_t key = StateKey(state);
    Visits& v = visits_[key];
    switch (program_.selector.kind) {
      case Selector::Kind::kAny:
      case Selector::Kind::kAnyShortest:
        if (v.count >= 1) return false;
        v.count = 1;
        return true;
      case Selector::Kind::kAllShortest:
        if (v.count == 0) {
          v.count = 1;
          v.min_level = level;
          return true;
        }
        return level <= v.min_level;
      case Selector::Kind::kAnyK:
      case Selector::Kind::kShortestK: {
        size_t k = static_cast<size_t>(program_.selector.k);
        if (v.count >= k) return false;
        ++v.count;
        return true;
      }
      case Selector::Kind::kShortestKGroup: {
        size_t k = static_cast<size_t>(program_.selector.k);
        for (uint32_t l : v.levels) {
          if (l == level) return true;
        }
        if (v.levels.size() < k) {
          v.levels.push_back(level);
          return true;
        }
        return false;
      }
      case Selector::Kind::kNone:
        return true;
    }
    return true;
  }

  Status RunBfs() {
    std::vector<State> frontier;
    for (size_t i = 0; i < num_seeds_; ++i) {
      GPML_RETURN_IF_ERROR(AdvanceEpsilon(MakeStart(seeds_[i]), &frontier));
    }
    while (!frontier.empty()) {
      std::vector<State> next_frontier;
      for (const State& cur : frontier) {
        if (!AdmitExpansion(cur, cur.edges)) continue;
        const Instr& in = program_.code[static_cast<size_t>(cur.pc)];
        for (const Adjacency& adj :
             g_.csr().Range(cur.node, in.edge_label_sym)) {
          GPML_RETURN_IF_ERROR(ChargeSteps(1));
          GPML_ASSIGN_OR_RETURN(std::optional<State> nxt,
                                TryEdge(in, cur, adj));
          if (nxt.has_value()) {
            GPML_RETURN_IF_ERROR(
                AdvanceEpsilon(std::move(*nxt), &next_frontier));
          }
        }
      }
      frontier = std::move(next_frontier);
    }
    // Results were recorded in nondecreasing path length because accepts at
    // level L are recorded while processing level L; keep stable order.
    return Status::OK();
  }

  struct Visits {
    size_t count = 0;
    uint32_t min_level = 0;
    std::vector<uint32_t> levels;
  };

  const PropertyGraph& g_;
  const Program& program_;
  const VarTable& vars_;
  const MatcherOptions& options_;
  const NodeId* seeds_;
  size_t num_seeds_;
  SharedBudget* budget_;  // nullptr: local exact limits (single shard).
  const size_t charge_stride_;
  const Params* params_;  // $name bindings for inline predicates; may be null.
  const size_t match_cap_;
  const std::vector<NodeId>* end_filter_;  // Sorted; nullptr: any end.
  const bool reach_from_targets_;

  size_t steps_ = 0;
  size_t pending_steps_ = 0;
  uint64_t serial_gen_ = 0;
  std::vector<State> epsilon_work_;  // AdvanceEpsilon scratch.
  // Batch-route state (sized once, reused across seeds and levels):
  std::vector<BoundPredicateKernel> node_kernels_;  // Indexed like the
  std::vector<BoundPredicateKernel> edge_kernels_;  // running route's plan.
  std::vector<std::vector<FrontierEntry>> levels_;
  CandidateBlock block_;
  std::vector<const FrontierEntry*> chain_scratch_;  // BuildChain ancestors.
  std::vector<size_t> drain_offsets_;
  // Reach-route state (sized once per shard, reused across seeds):
  std::vector<ReachEntry> reach_entries_;
  std::vector<uint32_t> reach_visited_;    // [edge step * nodes + node].
  std::vector<uint32_t> reach_witnessed_;  // [end node].
  std::vector<uint32_t> reach_path_;       // BuildReachChain ancestors.
  // Target side (one shard; reused across targets):
  std::vector<uint8_t> reach_start_only_;  // [edge step].
  std::vector<uint32_t> reach_dist_;  // [edge step * nodes + node]: hops to
                                      // an accept at the current target.
  std::vector<ReachState> reach_states_;  // Reverse BFS, level order.
  std::vector<FirstHop> reach_hops_;      // Per seed index, from
  std::vector<uint32_t> reach_hop_begin_; // reach_hop_begin_[s].
  std::vector<uint32_t> reach_pending_;   // Seed indices not yet settled.
  std::vector<uint32_t> reach_seed_len_;  // [seed index]: witness length.
  std::vector<TargetWitness> reach_witnesses_;
  std::vector<uint32_t> reach_keys_;  // Witness key sequences.
  const std::vector<int32_t> no_tags_;     // Fast routes emit no kTag.
  MatchRoute route_ = MatchRoute::kScalar;
  size_t batch_blocks_ = 0;
  size_t batch_candidates_ = 0;
  size_t batch_survivors_ = 0;
  std::vector<PathBinding> results_;
  std::unordered_map<size_t, std::vector<size_t>> seen_;
  std::unordered_map<size_t, Visits> visits_;
};

// ---------------------------------------------------------------------------
// Shard orchestration and deterministic merge
// ---------------------------------------------------------------------------

struct ShardOutcome {
  Status status = Status::OK();
  std::vector<PathBinding> results;
  size_t steps = 0;
  MatchRoute route = MatchRoute::kScalar;
  size_t batch_blocks = 0;
  size_t batch_candidates = 0;
  size_t batch_survivors = 0;
  double ms = 0;  // Shard wall clock, measured inside the worker.
};

/// Steps charged per shared-budget access in parallel shards, keeping the
/// interpreter loop off the contended atomic. Each shard flushes its
/// remainder when it ends, so the budget's outcome stays exact.
constexpr size_t kParallelChargeStride = 256;

/// What every shard of one RunPattern call shares besides its seed block.
struct ShardContext {
  const PropertyGraph& g;
  const Program& program;
  const VarTable& vars;
  const MatcherOptions& options;
  SharedBudget* budget;  // nullptr: single shard, local step counter.
  size_t charge_stride;
  const Params* params;
  bool keep_partial;
  size_t match_cap;
  const std::vector<NodeId>* end_filter;
  bool reach_from_targets;
};

void RunShard(const ShardContext& ctx, const NodeId* seeds, size_t num_seeds,
              ShardOutcome* out) {
  obs::Stopwatch shard_clock;
  SharedBudget* budget = ctx.budget;
  Matcher m(ctx.g, ctx.program, ctx.vars, ctx.options, seeds, num_seeds,
            budget, ctx.charge_stride, ctx.params, ctx.match_cap,
            ctx.end_filter, ctx.reach_from_targets);
  out->status = m.Run();
  if (out->status.ok() && budget != nullptr) out->status = m.FlushSteps();
  out->steps = m.steps();
  out->route = m.route();
  out->batch_blocks = m.batch_blocks();
  out->batch_candidates = m.batch_candidates();
  out->batch_survivors = m.batch_survivors();
  if (out->status.ok()) {
    out->results = m.TakeResults();
    out->ms = shard_clock.ElapsedMs();
    return;
  }
  // Partial-delivery mode (kTruncate): budget exhaustion keeps the
  // bindings found so far instead of discarding them; the caller reports
  // the truncation through a flag rather than an error.
  const bool partial = ctx.keep_partial &&
                       out->status.code() == StatusCode::kResourceExhausted;
  if (partial) out->results = m.TakeResults();
  // A genuine failure tells sibling shards to stop at their next budget
  // check instead of finishing doomed work — except a partial match cut:
  // earlier shards must finish their blocks for the merged prefix to be
  // the sequential one.
  if (budget != nullptr &&
      out->status.message() != SharedBudget::kAbortedBySibling &&
      !(partial &&
        out->status.message() == SharedBudget::kMatchesExceeded)) {
    budget->Abort();
  }
  out->ms = shard_clock.ElapsedMs();
}

/// The status RunPattern reports for a sharded run: the first genuine error
/// in shard (= seed) order; shards that merely stopped because a sibling
/// exhausted the shared budget are skipped in favor of the real cause.
Status MergeStatuses(const std::vector<ShardOutcome>& outcomes) {
  const Status* first_error = nullptr;
  for (const ShardOutcome& o : outcomes) {
    if (o.status.ok()) continue;
    if (first_error == nullptr) first_error = &o.status;
    if (o.status.message() != SharedBudget::kAbortedBySibling) {
      return o.status;
    }
  }
  return first_error == nullptr ? Status::OK() : *first_error;
}

/// Concatenates shard results in shard order (= seed-index order), removes
/// cross-shard duplicates keeping the first occurrence, cuts the result to
/// `match_cap` accepts, stable-sorts by path length, and applies the
/// selector — exactly the sequential pipeline: sequential discovery order
/// equals the shard-order concatenation because shards are contiguous seed
/// blocks (DFS and the fast routes emit per seed, BFS per level with seeds
/// in order within each level, and equal bindings always have equal path
/// length, so the keep-first choice is order-independent too). Each shard
/// capped its own accepts at `match_cap`, so the cut keeps the sequential
/// run's first accepts. `*accepted` receives the pre-selector count kept;
/// `*over_cap` whether the cut dropped any.
MatchSet MergeShards(std::vector<ShardOutcome> outcomes,
                     const Program& program, bool cross_shard_dedup,
                     size_t match_cap, size_t* accepted, bool* over_cap) {
  std::vector<PathBinding> all;
  size_t total = 0;
  for (const ShardOutcome& o : outcomes) total += o.results.size();
  all.reserve(total);
  for (ShardOutcome& o : outcomes) {
    std::move(o.results.begin(), o.results.end(), std::back_inserter(all));
  }

  if (cross_shard_dedup) {
    std::vector<PathBinding> uniq;
    uniq.reserve(all.size());
    std::unordered_map<size_t, std::vector<size_t>> seen;
    for (PathBinding& pb : all) {
      size_t h = pb.ReducedHash();
      auto [it, inserted] = seen.emplace(h, std::vector<size_t>());
      bool duplicate = false;
      for (size_t idx : it->second) {
        if (uniq[idx].SameReduced(pb)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      it->second.push_back(uniq.size());
      uniq.push_back(std::move(pb));
    }
    all = std::move(uniq);
  }
  *over_cap = all.size() > match_cap;
  if (*over_cap) all.resize(match_cap);
  *accepted = all.size();

  // DFS results sort by length here (historically SortResults); BFS results
  // are already level-ordered, so the stable sort is the identity — either
  // way ApplySelector's nondecreasing-length precondition holds.
  std::stable_sort(all.begin(), all.end(),
                   [](const PathBinding& a, const PathBinding& b) {
                     return a.path.Length() < b.path.Length();
                   });

  MatchSet out;
  out.bindings = std::move(all);
  ApplySelector(program.selector, &out.bindings);
  return out;
}

/// The reach route's direction (docs/vectorized.md, "Target side"): an end
/// filter listing fewer nodes than there are seeds runs one reverse BFS per
/// target instead of one forward BFS per seed. A final node joined to the
/// start variable (`(x)...(x)`) needs the seed inside the search, so it
/// stays on the seed side.
bool ReachFromTargets(const Program& program, const MatcherOptions& options,
                      size_t num_seeds,
                      const std::vector<NodeId>* end_filter) {
  const ReachPlan* rp = program.reach.get();
  if (!options.use_batch || rp == nullptr || !rp->eligible ||
      end_filter == nullptr || end_filter->size() >= num_seeds) {
    return false;
  }
  for (const ReachPlan::NodeCheck& nc : rp->node_checks) {
    if (nc.eq_start) return false;
  }
  return true;
}

}  // namespace

Result<MatchSet> RunPattern(const PropertyGraph& g, const Program& program,
                            const VarTable& vars,
                            const MatcherOptions& options,
                            const std::vector<NodeId>* seed_filter,
                            MatchStats* stats, const Params* params,
                            SharedBudget* shared_budget,
                            bool* budget_exhausted,
                            const std::vector<NodeId>* end_filter) {
  // Label constraints are evaluated only through the compiled predicates
  // BindProgramToGraph attaches; an unbound program cannot run.
  for (const Instr& in : program.code) {
    const LabelExprPtr* labels =
        in.op == Instr::Op::kNodeCheck ? &in.node->labels
        : in.op == Instr::Op::kEdgeStep ? &in.edge->labels
                                        : nullptr;
    if (labels != nullptr && *labels != nullptr &&
        (in.lpred < 0 ||
         static_cast<size_t>(in.lpred) >= program.label_preds.size())) {
      return Status::InvalidArgument(
          "program is not bound to the graph; call BindProgramToGraph");
    }
  }
  obs::Stopwatch run_clock;
  std::vector<NodeId> seeds = ComputeSeeds(g, program, seed_filter);
  const double seed_ms = run_clock.ElapsedMs();
  if (budget_exhausted != nullptr) *budget_exhausted = false;
  const bool keep_partial = budget_exhausted != nullptr;

  // Fan out only when every worker gets a meaningful block: thread
  // spawn/join costs tens of microseconds, which would dominate small
  // queries (the shard count never changes results, only latency).
  // The target side runs as one shard: its witnesses are ordered by seed
  // only once every target is searched.
  const bool reach_from_targets =
      ReachFromTargets(program, options, seeds.size(), end_filter);
  const size_t threads = std::max<size_t>(1, options.num_threads);
  const size_t per_shard = std::max<size_t>(1, options.min_seeds_per_shard);
  const size_t shards =
      reach_from_targets
          ? 1
          : std::max<size_t>(1, std::min(threads, seeds.size() / per_shard));

  SharedBudget local_budget(options.max_steps, options.max_matches);
  const size_t match_cap = shared_budget != nullptr
                               ? shared_budget->MatchesLeft()
                               : options.max_matches;
  std::vector<ShardOutcome> outcomes(shards);
  bool seeds_distinct = true;
  ShardContext ctx{g, program, vars, options, shared_budget,
                   /*charge_stride=*/1, params, keep_partial, match_cap,
                   end_filter, reach_from_targets};

  if (shards == 1) {
    // Single shard: with no external budget, a plain local step counter —
    // no atomics, RecordAccept's dedup already global: exactly the
    // historical sequential engine. An external budget (streaming cursor
    // chunks) is charged per step (stride 1), so the cumulative limit fires
    // at the same instruction a single materializing call would have
    // stopped at.
    RunShard(ctx, seeds.data(), seeds.size(), &outcomes[0]);
  } else {
    // Equal bindings always share their start node (reduction keeps the
    // first node binding), so cross-shard duplicates exist only if the
    // seed list itself repeats a node — possible only through an external
    // seed_filter; the label index, full scan, and the planner's bound
    // lists are distinct by construction.
    std::unordered_set<NodeId> distinct(seeds.begin(), seeds.end());
    seeds_distinct = distinct.size() == seeds.size();

    // Contiguous seed blocks preserve seed-index order across the merge.
    if (ctx.budget == nullptr) ctx.budget = &local_budget;
    ctx.charge_stride = kParallelChargeStride;
    std::vector<std::thread> workers;
    workers.reserve(shards);
    const size_t base = seeds.size() / shards;
    const size_t extra = seeds.size() % shards;
    size_t offset = 0;
    for (size_t i = 0; i < shards; ++i) {
      size_t count = base + (i < extra ? 1 : 0);
      workers.emplace_back(RunShard, std::cref(ctx), seeds.data() + offset,
                           count, &outcomes[i]);
      offset += count;
    }
    for (std::thread& t : workers) t.join();
  }

  if (stats != nullptr) {
    stats->seeds = seeds.size();
    stats->steps = 0;
    stats->route = outcomes[0].route;
    stats->reach_from_targets =
        stats->route == MatchRoute::kReach && reach_from_targets;
    stats->batch_blocks = 0;
    stats->batch_candidates = 0;
    stats->batch_survivors = 0;
    stats->seed_ms = seed_ms;
    stats->merge_ms = 0;
    stats->shard_ms.clear();
    stats->shard_ms.reserve(outcomes.size());
    for (const ShardOutcome& o : outcomes) {
      stats->steps += o.steps;
      stats->batch_blocks += o.batch_blocks;
      stats->batch_candidates += o.batch_candidates;
      stats->batch_survivors += o.batch_survivors;
      stats->shard_ms.push_back(o.ms);
    }
  }
  Status merged = MergeStatuses(outcomes);
  if (!merged.ok()) {
    if (!keep_partial || merged.code() != StatusCode::kResourceExhausted) {
      if (stats != nullptr) stats->match_ms = run_clock.ElapsedMs();
      return merged;
    }
    // Deliver the partial set below, cut to a seed-order prefix: shards
    // before the first one cut short finished their blocks, so dropping
    // every later shard's bindings leaves a prefix of the discovery order
    // a sequential run would have produced.
    *budget_exhausted = true;
    size_t cut = 0;
    while (outcomes[cut].status.ok()) ++cut;
    for (size_t i = cut + 1; i < outcomes.size(); ++i) {
      outcomes[i].results.clear();
    }
  }
  size_t accepted = 0;
  bool over_cap = false;
  obs::Stopwatch merge_clock;
  MatchSet result =
      MergeShards(std::move(outcomes), program,
                  /*cross_shard_dedup=*/shards > 1 && !seeds_distinct,
                  match_cap, &accepted, &over_cap);
  if (stats != nullptr) {
    stats->merge_ms = merge_clock.ElapsedMs();
    stats->match_ms = run_clock.ElapsedMs();
  }
  if (over_cap) {
    // No shard alone passed the cap, but their concatenation did.
    if (!keep_partial) {
      return Status::ResourceExhausted(SharedBudget::kMatchesExceeded);
    }
    *budget_exhausted = true;
  }
  if (shared_budget != nullptr) shared_budget->ChargeMatches(accepted);
  return result;
}

const char* MatchRouteName(MatchRoute route) {
  switch (route) {
    case MatchRoute::kScalar: return "scalar";
    case MatchRoute::kBatch: return "batch";
    case MatchRoute::kReach: return "reach";
  }
  return "scalar";
}

}  // namespace gpml
