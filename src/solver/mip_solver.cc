#include "solver/mip_solver.h"

#include "common/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "solver/canonical.h"
#include "solver/components.h"
#include "solver/cuts.h"
#include "solver/propagation.h"
#include "solver/scheduler.h"
#include "solver/simplex.h"
#include "solver/solve_cache.h"

namespace licm::solver {

namespace {

// Everything below maximizes; Solve() flips the objective for minimize.

struct ComponentResult {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;   // incumbent value (valid iff has_solution)
  double best_bound = 0.0;  // proved upper bound
  bool has_solution = false;
  std::vector<double> solution;
};

bool AllIntegral(const LinearProgram& lp) {
  for (const auto& v : lp.vars())
    if (!v.is_integer) return false;
  for (double c : lp.objective())
    if (std::abs(c - std::round(c)) > 1e-9) return false;
  return true;
}

// Max of the objective over the bounding box (ignores rows). Always a valid
// upper bound; exact when the component has no rows.
double ActivityBound(const LinearProgram& lp, const Domains& dom) {
  double b = lp.objective_constant();
  for (VarId v = 0; v < lp.num_vars(); ++v) {
    const double c = lp.objective_coef(v);
    b += c > 0 ? c * dom.upper[v] : c * dom.lower[v];
  }
  return b;
}

constexpr VarId kNoVar = std::numeric_limits<VarId>::max();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Feasibility / integrality tolerance of the search.
constexpr double kTol = 1e-6;

// True when the point `x` satisfies `row` within kTol.
bool RowHolds(const Row& row, const std::vector<double>& x) {
  double act = 0.0;
  for (const Term& t : row.terms) act += t.coef * x[t.var];
  return row.op == RowOp::kLe   ? act <= row.rhs + kTol
         : row.op == RowOp::kGe ? act >= row.rhs - kTol
                                : std::abs(act - row.rhs) <= kTol;
}

// Components with more variables than this bypass the solve cache: the
// cache targets the small per-group components k-anonymization emits by
// the thousand, while a query that couples everything into one big blob
// (e.g. through a join) produces a unique component whose fingerprint
// would cost more than it could ever save.
constexpr size_t kCacheMaxComponentVars = 512;
// Components above this many variables skip the node LP (the dense
// tableau grows quadratically); propagation and probing bounds remain.
constexpr size_t kNodeLpMaxVars = 400;
// Cut rows a single component search may accumulate.
constexpr size_t kMaxCutsPerComponent = 32;
// Fractional candidates probed by strong branching at the root.
constexpr size_t kStrongBranchCandidates = 8;

// Serialized identity of a cut row for deduplication in the component
// registry (variable ids, coefficient signs, rounded rhs).
std::string CutKeyString(const Row& row) {
  std::string key;
  key.reserve(row.terms.size() * 6 + 8);
  for (const Term& t : row.terms) {
    key.push_back(t.coef > 0 ? '+' : '-');
    key.append(std::to_string(t.var));
    key.push_back(',');
  }
  key.push_back('|');
  key.append(std::to_string(std::llround(row.rhs * 4.0)));
  return key;
}

// Branch & bound over one connected component. When `scheduler` is
// non-null the search may go parallel: once a depth-first strand has run
// `split_node_threshold` nodes and an executor is idle, it donates the
// oldest open decisions of its stack (the subtrees nearest the root) to
// the pool as fresh strands, all sharing one atomic incumbent for pruning,
// one node budget, and one stop flag. Every frontier node is either
// expanded or folded into `open_bound_`, so `best_bound` stays a proved
// bound even when the node cap or the deadline cuts the search short.
//
// Node state is a *strand*: one Domains, one BoundTrail, and a stack of
// pending Decisions. A decision records the trail mark at which it was
// created; popping it unwinds the trail to that mark (O(#changes) instead
// of a Domains copy per node), applies its bound change, and propagates.
// Probing and dives run on the same trail. Each strand also carries one
// IncrementalLp: the node relaxation warm-starts from whatever basis the
// previous node left, and its duals feed reduced-cost fixing and
// pseudo-cost branching. Donated subtrees materialize their Domains from
// the donor's trail and inherit the donor's basis snapshot.
class ComponentSearch {
 public:
  // `opt` comes from SolveResources: its deadline is always set.
  ComponentSearch(const LinearProgram& lp, const MipOptions& opt,
                  int64_t trace_id)
      : lp_(lp), opt_(opt), deadline_(*opt.deadline),
        scheduler_(opt.scheduler), trace_id_(trace_id), propagator_(lp),
        integral_(AllIntegral(lp)) {}

  // The root step, then the rest when it leaves the component open.
  ComponentResult Run(MipStats* stats) {
    ComponentResult res;
    return CloseAtRoot(stats, &res) ? res : Search(stats);
  }

  // The root step: rowless and pure-LP components are solved outright;
  // otherwise the root is propagated and one completion is tried. Returns
  // true when that settles the component (infeasible root, or a completion
  // whose value meets the root activity bound), with the result in `res`.
  // Otherwise the propagated root stays here for Search().
  bool CloseAtRoot(MipStats* stats, ComponentResult* res) {
    stats_ = stats;
    StopWatch clock;
    const bool closed = RootStep(res);
    stats_->cpu_seconds += clock.ElapsedSeconds();
    return closed;
  }

  // The rest, for a component CloseAtRoot left open: the gap-driven
  // prologue, the root LP, and the depth-first search. A component the
  // prologue or the root LP closes returns before the search pushes its
  // root, so it counts no node: a node is a popped DFS decision.
  ComponentResult Search(MipStats* stats) {
    stats_ = stats;
    ComponentResult res;
    // CPU accounting of the single-threaded prologue (probing, dives, root
    // LP). Charged to stats_ directly — no parallel strands exist yet.
    StopWatch prep_clock;
    Strand& root = root_;
    // Gap-aware prologue: one objective-guided dive where the completion
    // failed, then probing and the remaining dives — each stage runs only
    // while the gap stays open. Like the completion, the dive drives every
    // objective variable to its preferred bound before touching filler
    // variables, so when it succeeds the incumbent usually meets the root
    // activity bound outright.
    if (!completed_) {
      LICM_TRACE_SPAN("solver", "dives");
      GreedyDive(&root, 1);
    }
    if (!RootGapClosed(root.dom)) {
      LICM_TRACE_SPAN("solver", "probe_root");
      if (opt_.use_probing && !ProbeRoot(&root)) {
        res.status = SolveStatus::kInfeasible;
        stats_->cpu_seconds += prep_clock.ElapsedSeconds();
        return res;
      }
    }
    // Remaining dives: seed the incumbent from other corners so search
    // starts with a primal bound to prune against. Single-threaded —
    // parallel strands only exist below.
    if (!RootGapClosed(root.dom)) {
      LICM_TRACE_SPAN("solver", "dives");
      for (int heur : {0, 2}) {
        GreedyDive(&root, heur);
        if (RootGapClosed(root.dom)) break;
      }
    }

    // Root LP: warm state, root cut separation, and strong branching —
    // all before any parallel strand exists, and only for a component
    // the prologue left open. A closed gap needs no LP value, and the
    // root LP never offers an incumbent, so skipping it changes no result.
    double root_bound = kInfinity;
    if (!RootGapClosed(root.dom)) {
      PrepareSearch();
      if (node_lp_ && !RootLpSetup(&root, &root_bound)) {
        res.status = SolveStatus::kInfeasible;
        stats_->cpu_seconds += prep_clock.ElapsedSeconds();
        return res;
      }
    }
    stats_->cpu_seconds += prep_clock.ElapsedSeconds();
    // The root decision would be cut on its first bound check: return
    // without pushing it.
    if (Cut(std::min(NodeBoundCheap(root.dom), root_bound))) return Finish();
    {
      std::optional<Scheduler::Group> group;
      if (scheduler_ != nullptr && scheduler_->num_threads() > 1) {
        group.emplace(scheduler_);
        group_ = &*group;
      }
      MipStats local;
      Decision root_dec;
      root_dec.var = kNoVar;  // domains already propagated above
      root_dec.inherited = root_bound;
      root.stack.push_back(root_dec);
      Dfs(&root, &local);
      if (group) group->Wait();  // donated strands merge their stats
      group_ = nullptr;
      MergeLocalStats(local);
    }
    return Finish();
  }

 private:
  bool RootStep(ComponentResult* res) {
    // Rowless component: objective decomposes per variable.
    if (lp_.num_rows() == 0) {
      res->status = SolveStatus::kOptimal;
      res->solution.resize(lp_.num_vars());
      for (VarId v = 0; v < lp_.num_vars(); ++v) {
        const auto& def = lp_.vars()[v];
        double x = lp_.objective_coef(v) > 0 ? def.upper : def.lower;
        if (def.is_integer) x = std::round(x);
        res->solution[v] = x;
      }
      res->objective = res->best_bound = lp_.EvalObjective(res->solution);
      res->has_solution = true;
      return true;
    }

    // Pure LP component (no integer variables): one simplex call.
    bool any_integer = false;
    for (const auto& v : lp_.vars()) any_integer |= v.is_integer;
    if (!any_integer) {
      LpSolution s = SolveLpRelaxation(lp_, Sense::kMaximize);
      ++stats_->lp_solves;
      res->status = s.status;
      if (s.status == SolveStatus::kOptimal) {
        res->objective = res->best_bound = s.objective;
        res->solution = std::move(s.values);
        res->has_solution = true;
      }
      return true;
    }

    root_.dom = Domains::FromProgram(lp_);
    if (propagator_.Run(&root_.dom, nullptr, &root_.scratch) ==
        PropagateResult::kInfeasible) {
      res->status = SolveStatus::kInfeasible;
      return true;
    }
    {
      LICM_TRACE_SPAN("solver", "dives");
      // One propagation plus one O(nnz) completion whose value, when it is
      // feasible, IS the activity bound, so no dive is needed at all.
      completed_ = TryRootCompletion(&root_);
    }
    if (!completed_) ++stats_->root_completion_failures;
    if (!RootGapClosed(root_.dom)) return false;
    *res = Finish();
    return true;
  }

  // Search-only state, built once CloseAtRoot has left the component open:
  // the node-LP decision, the pseudo-cost tables and the SOS1 row index.
  void PrepareSearch() {
    node_lp_ = opt_.use_lp_bound && lp_.num_vars() <= kNodeLpMaxVars &&
               IncrementalLp::Suitable(lp_);
    if (opt_.use_pseudo_cost) {
      for (int dir = 0; dir < 2; ++dir) {
        pc_sum_[dir].assign(lp_.num_vars(), 0.0);
        pc_cnt_[dir].assign(lp_.num_vars(), 0);
      }
    }
    // Index SOS1-style rows (sum of binaries = 1): branching on a whole
    // row (one child per candidate assignee) fixes a permutation slot at a
    // time, which propagates far better than 0/1 branching on one binary.
    sos1_of_var_.assign(lp_.num_vars(), -1);
    for (uint32_t r = 0; r < lp_.num_rows(); ++r) {
      const Row& row = lp_.rows()[r];
      if (row.op != RowOp::kEq || row.rhs != 1.0 || row.terms.size() < 2) {
        continue;
      }
      bool ok = true;
      for (const Term& t : row.terms) {
        const auto& def = lp_.vars()[t.var];
        ok &= t.coef == 1.0 && def.is_integer && def.lower >= 0.0 &&
              def.upper <= 1.0;
      }
      if (!ok) continue;
      for (const Term& t : row.terms) {
        if (sos1_of_var_[t.var] < 0) {
          sos1_of_var_[t.var] = static_cast<int32_t>(r);
        }
      }
    }
  }

  // The component's result from the incumbent and the search flags. All
  // strands are done and their effects ordered before these reads.
  // Infeasibility is only proved by an *uninterrupted* search: a stopped
  // run that found nothing is a time limit, not a proof.
  ComponentResult Finish() {
    ComponentResult res;
    if (!stopped_.load() && infeasible_only_.load() &&
        !has_incumbent_.load()) {
      res.status = SolveStatus::kInfeasible;
      return res;
    }
    res.has_solution = has_incumbent_.load();
    res.objective = incumbent_value_.load();
    res.solution = std::move(incumbent_);
    if (stopped_.load()) {
      res.status = SolveStatus::kTimeLimit;
      res.best_bound = std::max(open_bound_, res.has_solution
                                                 ? res.objective
                                                 : -kInfinity);
    } else {
      res.status = res.has_solution ? SolveStatus::kOptimal
                                    : SolveStatus::kInfeasible;
      res.best_bound = incumbent_value_.load();
    }
    return res;
  }

  // One pending branch decision. `mark` is the trail length when the
  // decision was created: popping it unwinds to `mark` (recovering the
  // parent's exact Domains), then imposes [lo, hi] on `var` and
  // propagates. The root seed uses var == kNoVar (no change, domains
  // already at fixpoint).
  struct Decision {
    size_t mark = 0;
    VarId var = kNoVar;
    double lo = 0.0, hi = 0.0;
    // Tightest bound inherited from ancestors (their LP/activity bounds
    // remain valid for this subregion). +inf at the root.
    double inherited = kInfinity;
    // Parent relaxation objective and this child's fractional distance,
    // for the pseudo-cost observation when this child's relaxation
    // solves. pc_dist < 0 => no observation (no parent LP, SOS1 child).
    double parent_obj = kNan;
    double pc_dist = -1.0;
    int8_t dir = 0;  // 0 = down child, 1 = up child
  };

  // One depth-first search strand: shared Domains + undo trail + decision
  // stack, plus the strand's warm LP state and reusable propagation
  // scratch. Sequential searches have exactly one; SplitStack donates
  // more.
  struct Strand {
    Domains dom;
    BoundTrail trail;
    std::vector<Decision> stack;
    PropagationScratch scratch;
    std::unique_ptr<IncrementalLp> lp;
    size_t applied_cuts = 0;  // prefix of cuts_ already in `lp`
    LpBasis seed_basis;       // donor basis for warm-starting
  };

  // Singleton-consistency probing at the root: for every unfixed binary,
  // tentatively fix each value and propagate; a value that propagates to
  // infeasibility fixes the variable to the other value. Returns false if
  // the root itself becomes infeasible. Tightens both search and the
  // activity bounds substantially on permutation-coupled instances.
  // Probes run on the strand's trail and unwind in O(#changes); forced
  // fixings are committed (root state is permanent, nothing unwinds past
  // it).
  bool ProbeRoot(Strand* s) {
    Domains& dom = s->dom;
    bool changed = true;
    int rounds = 0;
    uint32_t since_check = 0;
    while (changed && rounds++ < 3) {
      changed = false;
      if (RootGapClosed(dom)) return true;
      for (VarId v = 0; v < lp_.num_vars(); ++v) {
        if (!lp_.vars()[v].is_integer) continue;
        if (dom.upper[v] - dom.lower[v] < 0.5) continue;
        if (deadline_.Expired()) return true;
        // Committed fixings tighten the activity bound as the sweep runs;
        // once it meets the incumbent the rest of the sweep is moot.
        if (++since_check >= 512) {
          since_check = 0;
          if (RootGapClosed(dom)) return true;
        }
        const size_t mark = s->trail.Mark();
        s->trail.Record(v, dom);
        dom.upper[v] = dom.lower[v];
        const bool low_ok =
            propagator_.Run(&dom, {&v, 1}, &s->trail, &s->scratch) ==
            PropagateResult::kFixpoint;
        s->trail.UnwindTo(mark, &dom);
        s->trail.Record(v, dom);
        dom.lower[v] = dom.upper[v];
        const bool high_ok =
            propagator_.Run(&dom, {&v, 1}, &s->trail, &s->scratch) ==
            PropagateResult::kFixpoint;
        if (!low_ok && !high_ok) return false;
        if (!low_ok) {
          s->trail.CommitTo(mark);  // keep the propagated high state
          changed = true;
        } else if (!high_ok) {
          s->trail.UnwindTo(mark, &dom);
          s->trail.Record(v, dom);
          dom.upper[v] = dom.lower[v];
          propagator_.Run(&dom, {&v, 1}, &s->trail, &s->scratch);
          s->trail.CommitTo(mark);  // keep the propagated low state
          changed = true;
        } else {
          s->trail.UnwindTo(mark, &dom);  // both viable: keep neither
        }
      }
    }
    return true;
  }

  // Probes every unfixed objective variable at its objective-preferred
  // bound (we maximize, so coef > 0 prefers upper, coef < 0 prefers
  // lower). A refuted preference fixes the variable the other way —
  // recorded on the trail, so the fixing lives exactly as long as the
  // node. Returns false when the node is infeasible.
  bool ProbeObjectiveVars(Strand* s) {
    Domains& dom = s->dom;
    for (VarId v = 0; v < lp_.num_vars(); ++v) {
      const double c = lp_.objective_coef(v);
      if (c == 0.0 || !lp_.vars()[v].is_integer) continue;
      if (dom.upper[v] - dom.lower[v] < 0.5) continue;
      const size_t mark = s->trail.Mark();
      s->trail.Record(v, dom);
      if (c > 0) {
        dom.lower[v] = dom.upper[v];
      } else {
        dom.upper[v] = dom.lower[v];
      }
      if (propagator_.Run(&dom, {&v, 1}, &s->trail, &s->scratch) ==
          PropagateResult::kFixpoint) {
        s->trail.UnwindTo(mark, &dom);
        continue;  // preferred value viable; bound keeps its contribution
      }
      // Preferred value refuted: force the other one and re-propagate.
      s->trail.UnwindTo(mark, &dom);
      s->trail.Record(v, dom);
      if (c > 0) {
        dom.upper[v] = dom.lower[v];
      } else {
        dom.lower[v] = dom.upper[v];
      }
      if (propagator_.Run(&dom, {&v, 1}, &s->trail, &s->scratch) ==
          PropagateResult::kInfeasible) {
        return false;
      }
    }
    return true;
  }

  // Closes the root with one verified completion: fixes every unfixed
  // objective variable at the bound it prefers (we maximize, so coef > 0
  // prefers upper), propagates once, then assigns the still-unfixed
  // variables in ascending id, each at its lower bound unless one of its
  // rows can no longer be satisfied by the row's other open variables and
  // raising this one helps (a `<=` row whose activity plus the most its
  // open variables can lower it still exceeds the rhs, and a negative
  // coefficient; `>=` is the mirror case). Raising the last open variable
  // of a violated row is the case where that remaining range is zero.
  // The point is checked against every row; a feasible one is offered as
  // the incumbent, and its value is the root activity bound (the
  // objective support sits at its preferred corner), so the root closes.
  // Where the objective-preferred corner of the whole box is feasible,
  // propagation keeps it and the completion returns exactly that corner.
  // Runs on the strand's trail and unwinds before returning. Integral
  // components with finite bounds only.
  bool TryRootCompletion(Strand* s) {
    for (const auto& v : lp_.vars()) {
      if (!v.is_integer) return false;
    }
    Domains& dom = s->dom;
    const size_t base = s->trail.Mark();
    std::vector<VarId> fixed;
    bool ok = true;
    for (VarId v = 0; v < lp_.num_vars(); ++v) {
      const double c = lp_.objective_coef(v);
      if (c == 0.0 || dom.upper[v] - dom.lower[v] <= 0.5) continue;
      const double x = c > 0 ? dom.upper[v] : dom.lower[v];
      if (!std::isfinite(x)) {
        ok = false;
        break;
      }
      s->trail.Record(v, dom);
      dom.lower[v] = dom.upper[v] = x;
      fixed.push_back(v);
    }
    ok = ok && (fixed.empty() ||
                propagator_.Run(&dom, fixed, &s->trail, &s->scratch) ==
                    PropagateResult::kFixpoint);
    std::vector<double> x(lp_.num_vars());
    if (ok) {
      // Per row: the activity at the partial assignment (open variables at
      // their lower bound), and how far the still-open variables can move
      // it down (neg) and up (pos).
      struct RowState {
        double act = 0.0, neg = 0.0, pos = 0.0;
      };
      std::vector<RowState> rows(lp_.num_rows());
      for (VarId v = 0; v < lp_.num_vars() && ok; ++v) {
        x[v] = dom.lower[v];
        const double range = dom.upper[v] - dom.lower[v];
        ok = std::isfinite(x[v]) && std::isfinite(range);
        for (const RowRef& ref : propagator_.rows_of(v)) {
          RowState& r = rows[ref.row];
          r.act += ref.coef * x[v];
          if (range <= 0.5) continue;
          (ref.coef < 0 ? r.neg : r.pos) += ref.coef * range;
        }
      }
      for (VarId v = 0; v < lp_.num_vars() && ok; ++v) {
        const double range = dom.upper[v] - dom.lower[v];
        if (range <= 0.5) continue;
        bool raise = false;
        for (const RowRef& ref : propagator_.rows_of(v)) {
          RowState& r = rows[ref.row];
          const Row& row = lp_.rows()[ref.row];
          const double d = ref.coef * range;
          (d < 0 ? r.neg : r.pos) -= d;  // v is decided now
          raise |= d < 0 && row.op != RowOp::kGe &&
                   r.act + r.neg > row.rhs + kTol;
          raise |= d > 0 && row.op != RowOp::kLe &&
                   r.act + r.pos < row.rhs - kTol;
        }
        if (!raise) continue;
        x[v] = dom.upper[v];
        for (const RowRef& ref : propagator_.rows_of(v)) {
          rows[ref.row].act += ref.coef * range;
        }
      }
      for (size_t r = 0; r < lp_.num_rows() && ok; ++r) {
        ok = RowHolds(lp_.rows()[r], x);
      }
    }
    s->trail.UnwindTo(base, &dom);
    if (!ok) return false;
    const double val = lp_.EvalObjective(x);  // before the move below
    OfferIncumbent(val, std::move(x));
    return true;
  }

  // Propagation-guided dive: repeatedly fix an unfixed binary to a
  // heuristic value (repairing to the other value on refutation) until all
  // integer variables are fixed, then record the incumbent. Different
  // `heur` values vary the variable order so the dives explore different
  // corners. Runs on the strand's trail and fully unwinds before
  // returning.
  void GreedyDive(Strand* s, int heur) {
    // Dives only apply to pure-integer components (always true for LICM).
    for (const auto& v : lp_.vars()) {
      if (!v.is_integer) return;
    }
    Domains& dom = s->dom;
    const size_t base = s->trail.Mark();
    // Pick order, fixed up front: scanning all variables per pick is
    // O(n^2) on monolithic components (the Query-3 wall). Within a dive
    // domains only tighten — an unwind restores at most the state at its
    // own probe's mark — so a cursor over this order never has to move
    // backwards.
    std::vector<VarId> order(lp_.num_vars());
    for (VarId v = 0; v < lp_.num_vars(); ++v) order[v] = v;
    if (heur == 1) {
      std::sort(order.begin(), order.end(), [this](VarId a, VarId b) {
        const double ka = std::abs(lp_.objective_coef(a));
        const double kb = std::abs(lp_.objective_coef(b));
        return ka > kb || (ka == kb && a < b);
      });
    } else if (heur >= 2) {
      uint64_t lcg = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(heur + 1);
      std::vector<uint64_t> key(lp_.num_vars());
      for (VarId v = 0; v < lp_.num_vars(); ++v) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        key[v] = lcg;
      }
      std::sort(order.begin(), order.end(),
                [&key](VarId a, VarId b) { return key[a] < key[b]; });
    }
    size_t cursor = 0;
    for (;;) {
      if (deadline_.Expired()) break;
      while (cursor < order.size() &&
             dom.upper[order[cursor]] - dom.lower[order[cursor]] <= 0.5) {
        ++cursor;
      }
      const VarId pick =
          cursor < order.size() ? order[cursor] : lp_.num_vars();
      if (pick == lp_.num_vars()) {
        std::vector<double> x(lp_.num_vars());
        for (VarId v = 0; v < lp_.num_vars(); ++v) x[v] = dom.lower[v];
        const double val = lp_.EvalObjective(x);
        OfferIncumbent(val, std::move(x));
        break;
      }
      const double c = lp_.objective_coef(pick);
      const bool up_first = c > 0;
      const size_t mark = s->trail.Mark();
      s->trail.Record(pick, dom);
      if (up_first) dom.lower[pick] = dom.upper[pick];
      else dom.upper[pick] = dom.lower[pick];
      if (propagator_.Run(&dom, {&pick, 1}, &s->trail, &s->scratch) ==
          PropagateResult::kFixpoint) {
        continue;
      }
      s->trail.UnwindTo(mark, &dom);
      s->trail.Record(pick, dom);
      if (up_first) dom.upper[pick] = dom.lower[pick];
      else dom.lower[pick] = dom.upper[pick];
      if (propagator_.Run(&dom, {&pick, 1}, &s->trail, &s->scratch) ==
          PropagateResult::kInfeasible) {
        break;  // dead end; abandon this dive
      }
    }
    s->trail.UnwindTo(base, &dom);
  }

  // Lazily creates the strand's warm LP state, replays the shared cut
  // registry into it, and warm-starts from the donor basis if one was
  // inherited (a column-count mismatch — the registry grew since the
  // donor's snapshot — falls back to a cold basis inside RestoreBasis).
  void EnsureLp(Strand* s) {
    if (s->lp != nullptr) return;
    s->lp = std::make_unique<IncrementalLp>(lp_);
    ApplyNewCuts(s);
    if (!s->seed_basis.empty()) s->lp->RestoreBasis(s->seed_basis);
  }

  // Appends every registry cut this strand's LP has not absorbed yet.
  void ApplyNewCuts(Strand* s) {
    if (!opt_.use_cuts || s->lp == nullptr) return;
    std::lock_guard<std::mutex> lock(cuts_mu_);
    for (size_t i = s->applied_cuts; i < cuts_.size(); ++i) {
      s->lp->AddCutRow(cuts_[i]);
    }
    s->applied_cuts = cuts_.size();
  }

  // Separates cardinality cuts at the fractional vertex `x`, registers the
  // unseen ones (deduped across strands), and replays them into this
  // strand's LP. Returns how many new cuts were registered.
  int SeparateCuts(Strand* s, const std::vector<double>& x, MipStats* stats) {
    std::vector<Row> gen = GenerateCardinalityCuts(lp_, x);
    int added = 0;
    {
      std::lock_guard<std::mutex> lock(cuts_mu_);
      for (Row& r : gen) {
        if (cuts_.size() >= kMaxCutsPerComponent) break;
        if (!cut_keys_.insert(CutKeyString(r)).second) continue;
        cuts_.push_back(std::move(r));
        ++added;
      }
    }
    stats->cuts_generated += added;
    if (added > 0) ApplyNewCuts(s);
    return added;
  }

  // Reduced-cost fixing after an optimal node relaxation: a nonbasic
  // integer variable whose reduced cost proves that moving it off its
  // bound (by the minimal integer step) cannot reach an objective above
  // the incumbent is fixed at that bound for the whole subtree. We
  // maximize, so a variable at lower has d <= 0 (obj(v = lo + 1) <=
  // lp_obj + d) and one at upper has d >= 0 (obj(v = hi - 1) <= lp_obj -
  // d). With an integral program the incumbent+1 rounding makes the test
  // exact. Fixings land on the trail (they die with the node) and are
  // propagated; returns -1 when propagation refutes the node, else the
  // number of variables fixed.
  int RcFix(Strand* s, double lp_obj, MipStats* stats) {
    const double inc = incumbent_value_.load(std::memory_order_relaxed);
    const double limit =
        integral_ ? inc + 1.0 - 2.0 * kTol : inc + kTol;
    Domains& dom = s->dom;
    std::vector<VarId> fixed;
    for (VarId v = 0; v < lp_.num_vars(); ++v) {
      if (!lp_.vars()[v].is_integer) continue;
      if (dom.upper[v] - dom.lower[v] <= 0.5) continue;
      const VarStatus st = s->lp->StatusOf(v);
      if (st == VarStatus::kBasic) continue;
      const double d = s->lp->ReducedCost(v);
      if (st == VarStatus::kAtLower && lp_obj + d <= limit) {
        s->trail.Record(v, dom);
        dom.upper[v] = dom.lower[v];
        fixed.push_back(v);
      } else if (st == VarStatus::kAtUpper && lp_obj - d <= limit) {
        s->trail.Record(v, dom);
        dom.lower[v] = dom.upper[v];
        fixed.push_back(v);
      }
    }
    if (fixed.empty()) return 0;
    stats->rc_fixed_vars += static_cast<int64_t>(fixed.size());
    if (propagator_.Run(&dom, fixed, &s->trail, &s->scratch) ==
        PropagateResult::kInfeasible) {
      return -1;
    }
    return static_cast<int>(fixed.size());
  }

  // Accumulates one pseudo-cost observation: objective degradation per
  // unit of enforced fractional distance for branching `v` in direction
  // `dir` (0 = down, 1 = up).
  void RecordPseudoCost(VarId v, int dir, double deg) {
    if (!(deg >= 0.0)) deg = 0.0;  // guards NaN and negative degradations
    std::lock_guard<std::mutex> lock(pc_mu_);
    pc_sum_[dir][v] += deg;
    ++pc_cnt_[dir][v];
  }

  // Pseudo-cost branching rule: product of estimated down/up degradations,
  // with the global average as prior for unobserved variables. Returns
  // kNoVar when no integer variable is fractional in `x`.
  VarId SelectPseudoCost(const Domains& dom, const std::vector<double>& x,
                         double* frac_out) {
    std::lock_guard<std::mutex> lock(pc_mu_);
    double avg[2] = {1.0, 1.0};
    for (int dir = 0; dir < 2; ++dir) {
      double sum = 0.0;
      int64_t cnt = 0;
      for (VarId v = 0; v < lp_.num_vars(); ++v) {
        sum += pc_sum_[dir][v];
        cnt += pc_cnt_[dir][v];
      }
      if (cnt > 0) avg[dir] = sum / static_cast<double>(cnt);
    }
    VarId best = kNoVar;
    double best_score = -1.0;
    for (VarId v = 0; v < lp_.num_vars(); ++v) {
      if (!lp_.vars()[v].is_integer) continue;
      if (dom.upper[v] - dom.lower[v] <= 0.5) continue;
      const double f = x[v] - std::floor(x[v]);
      if (f <= kTol || f >= 1.0 - kTol) continue;
      const double down =
          pc_cnt_[0][v] > 0 ? pc_sum_[0][v] / pc_cnt_[0][v] : avg[0];
      const double up =
          pc_cnt_[1][v] > 0 ? pc_sum_[1][v] / pc_cnt_[1][v] : avg[1];
      const double score =
          std::max(down * f, 1e-6) * std::max(up * (1.0 - f), 1e-6);
      if (score > best_score + 1e-12) {
        best_score = score;
        best = v;
      }
    }
    if (best != kNoVar) *frac_out = x[best];
    return best;
  }

  // Root LP work, all before any parallel strand exists: builds the root
  // strand's warm state, separates a few rounds of root cuts, and seeds
  // the pseudo-cost
  // tables by strong branching. Returns false when the relaxation (with
  // globally valid cuts) is infeasible — a proof that the component is.
  bool RootLpSetup(Strand* s, double* root_bound) {
    LICM_TRACE_SPAN("solver", "root_lp");
    EnsureLp(s);
    auto solve = [&] {
      const SolveStatus st = s->lp->Solve(s->dom.lower, s->dom.upper);
      ++stats_->lp_solves;
      ++stats_->warm_lp_solves;
      stats_->lp_pivots += s->lp->last_pivots();
      stats_->max_resolve_pivots =
          std::max(stats_->max_resolve_pivots, s->lp->last_pivots());
      return st;
    };
    SolveStatus st = solve();
    if (st == SolveStatus::kInfeasible) return false;
    if (st == SolveStatus::kOptimal && opt_.use_cuts) {
      for (int round = 0; round < 4; ++round) {
        if (SeparateCuts(s, s->lp->values(), stats_) == 0) break;
        st = solve();
        if (st == SolveStatus::kInfeasible) return false;
        if (st != SolveStatus::kOptimal) break;
      }
    }
    if (st == SolveStatus::kOptimal) {
      *root_bound = s->lp->objective();
      if (integral_) *root_bound = std::floor(*root_bound + kTol);
      if (opt_.use_pseudo_cost) StrongBranchRoot(s);
    }
    return true;
  }

  // Strong branching at the component root: probes both directions of the
  // most fractional variables by direct bound mutation + warm re-solve
  // (single-threaded here, so no trail needed) and records the observed
  // degradations as pseudo-cost seeds. Leaves the LP re-solved at the true
  // root bounds.
  void StrongBranchRoot(Strand* s) {
    const double root_obj = s->lp->objective();
    const std::vector<double> x = s->lp->values();  // re-solves overwrite
    Domains& dom = s->dom;
    std::vector<std::pair<double, VarId>> cands;
    for (VarId v = 0; v < lp_.num_vars(); ++v) {
      if (!lp_.vars()[v].is_integer) continue;
      if (dom.upper[v] - dom.lower[v] <= 0.5) continue;
      const double f = std::abs(x[v] - std::round(x[v]));
      if (f > kTol) cands.emplace_back(f, v);
    }
    std::sort(cands.begin(), cands.end(), [](const auto& a, const auto& b) {
      return a.first > b.first || (a.first == b.first && a.second < b.second);
    });
    if (cands.size() > kStrongBranchCandidates) {
      cands.resize(kStrongBranchCandidates);
    }
    for (const auto& [f, v] : cands) {
      if (deadline_.Expired()) break;
      const double split = std::floor(x[v]);
      const double frac = x[v] - split;
      const double lo = dom.lower[v], hi = dom.upper[v];
      dom.upper[v] = std::max(split, lo);  // down probe: x[v] <= split
      SolveStatus st = s->lp->Solve(dom.lower, dom.upper);
      ++stats_->strong_branch_solves;
      stats_->lp_pivots += s->lp->last_pivots();
      if (st == SolveStatus::kOptimal) {
        RecordPseudoCost(
            v, 0, (root_obj - s->lp->objective()) / std::max(frac, 1e-6));
      }
      dom.upper[v] = hi;
      dom.lower[v] = std::min(split + 1.0, hi);  // up probe: >= split + 1
      st = s->lp->Solve(dom.lower, dom.upper);
      ++stats_->strong_branch_solves;
      stats_->lp_pivots += s->lp->last_pivots();
      if (st == SolveStatus::kOptimal) {
        RecordPseudoCost(v, 1, (root_obj - s->lp->objective()) /
                                   std::max(1.0 - frac, 1e-6));
      }
      dom.lower[v] = lo;
    }
    s->lp->Solve(dom.lower, dom.upper);
    stats_->lp_pivots += s->lp->last_pivots();
  }

  // One depth-first strand. Sequential runs have exactly one strand;
  // parallel runs spawn more via SplitStack. `stats` is strand-local and
  // merged under stats_mu_ when the strand ends. The wrapper charges the
  // strand's elapsed time to cpu_seconds: strands run concurrently, so
  // their sum approximates CPU time, not wall time.
  void Dfs(Strand* s, MipStats* stats) {
    StopWatch strand_clock;
    DfsLoop(s, stats);
    stats->cpu_seconds += strand_clock.ElapsedSeconds();
  }

  void DfsLoop(Strand* s, MipStats* stats) {
    int64_t since_split = 0;
    int64_t since_progress = 0;
    Domains& dom = s->dom;
    while (!s->stack.empty()) {
      if (stopped_.load(std::memory_order_relaxed) ||
          nodes_.load(std::memory_order_relaxed) >=
              opt_.max_nodes_per_component ||
          deadline_.Expired()) {
        stopped_.store(true, std::memory_order_relaxed);
        // Remaining decisions contribute to the proved bound.
        AccountOpen(*s);
        return;
      }
      // Donate the oldest open subtrees once this strand has done enough
      // work to suggest the component is hard and someone is idle.
      if (group_ != nullptr && s->stack.size() >= 2 &&
          ++since_split >= opt_.split_node_threshold &&
          scheduler_->HasIdleWorker()) {
        since_split = 0;
        SplitStack(s, stats);
      }
      const Decision d = s->stack.back();
      s->stack.pop_back();
      // O(#changes) backtrack to this decision's parent state, then apply
      // and propagate its bound change.
      s->trail.UnwindTo(d.mark, &dom);
      nodes_.fetch_add(1, std::memory_order_relaxed);
      ++stats->nodes;

      if (d.var != kNoVar) {
        s->trail.Record(d.var, dom);
        dom.lower[d.var] = d.lo;
        dom.upper[d.var] = d.hi;
        if (propagator_.Run(&dom, {&d.var, 1}, &s->trail, &s->scratch) ==
            PropagateResult::kInfeasible) {
          continue;
        }
      }
      infeasible_only_.store(false, std::memory_order_relaxed);

      double bound = std::min(ActivityBound(lp_, dom), d.inherited);
      if (integral_) bound = std::floor(bound + kTol);
      if (telemetry::Enabled() &&
          ++since_progress >= opt_.trace_progress_nodes) {
        since_progress = 0;
        EmitProgress(bound);
      }
      if (Cut(bound)) continue;

      if (opt_.use_objective_probing && !ProbeObjectiveVars(s)) {
        continue;  // probing proved the node infeasible
      }
      bound = std::min(ActivityBound(lp_, dom), d.inherited);
      if (integral_) bound = std::floor(bound + kTol);
      if (Cut(bound)) continue;

      // LP relaxation at the node: re-solves the strand's incremental
      // state from the previous basis in a few dual pivots and feeds
      // reduced-cost fixing, cut separation, and pseudo-cost data.
      VarId branch_var = kNoVar;
      double frac_target = -1.0;  // LP value of the branch variable
      double lp_obj = kNan;       // node relaxation objective if optimal
      if (node_lp_) {
        EnsureLp(s);
        ApplyNewCuts(s);
        bool prune = false;
        bool did_rc = false;
        bool did_cuts = false;
        bool pc_recorded = false;
        for (;;) {
          const SolveStatus st = s->lp->Solve(dom.lower, dom.upper);
          ++stats->lp_solves;
          ++stats->warm_lp_solves;
          stats->lp_pivots += s->lp->last_pivots();
          stats->max_resolve_pivots =
              std::max(stats->max_resolve_pivots, s->lp->last_pivots());
          if (st == SolveStatus::kInfeasible) {
            prune = true;
            break;
          }
          if (st != SolveStatus::kOptimal) break;  // keep activity bound
          lp_obj = s->lp->objective();
          if (!pc_recorded && opt_.use_pseudo_cost && d.var != kNoVar &&
              !std::isnan(d.parent_obj) && d.pc_dist > 1e-6) {
            pc_recorded = true;
            RecordPseudoCost(d.var, d.dir,
                             (d.parent_obj - lp_obj) / d.pc_dist);
          }
          double lpb = lp_obj;
          if (integral_) lpb = std::floor(lpb + kTol);
          bound = std::min(bound, lpb);
          if (Cut(bound)) {
            prune = true;
            break;
          }
          if (!did_rc && opt_.use_rc_fixing &&
              has_incumbent_.load(std::memory_order_relaxed)) {
            did_rc = true;
            const int fixed = RcFix(s, lp_obj, stats);
            if (fixed < 0) {
              prune = true;
              break;
            }
            if (fixed > 0) continue;  // re-solve under the fixed bounds
          }
          const std::vector<double>& x = s->lp->values();
          VarId most_frac = kNoVar;
          double best_frac = kTol;
          for (VarId v = 0; v < lp_.num_vars(); ++v) {
            if (!lp_.vars()[v].is_integer) continue;
            const double f = std::abs(x[v] - std::round(x[v]));
            if (f > best_frac && dom.upper[v] - dom.lower[v] > 0.5) {
              best_frac = f;
              most_frac = v;
            }
          }
          if (most_frac == kNoVar) {
            // Integral vertex: a feasible point of the node. Snap the
            // within-tolerance values to exact integers and re-evaluate so
            // the incumbent never carries simplex epsilons (bounds must be
            // bit-identical to enumerating worlds).
            std::vector<double> xi = x;
            for (VarId v = 0; v < lp_.num_vars(); ++v) {
              if (lp_.vars()[v].is_integer) xi[v] = std::round(xi[v]);
            }
            const double val = lp_.EvalObjective(xi);
            OfferIncumbent(val, std::move(xi));
            prune = true;
            break;
          }
          if (!did_cuts && opt_.use_cuts) {
            did_cuts = true;
            if (SeparateCuts(s, x, stats) > 0) continue;  // one re-solve
          }
          branch_var = most_frac;
          frac_target = x[most_frac];
          if (opt_.use_pseudo_cost) {
            double pf = -1.0;
            const VarId pv = SelectPseudoCost(dom, x, &pf);
            if (pv != kNoVar) {
              branch_var = pv;
              frac_target = pf;
            }
          }
          break;
        }
        if (prune) continue;
      }

      // No LP-guided choice: pick the unfixed integer variable most
      // connected to already-fixed variables — on permutation-coupled
      // instances this interleaves the two sides of each join so objective
      // variables get decided (and the bound tightens) early in each dive.
      if (branch_var == kNoVar) {
        double best_score = -1.0;
        for (VarId v = 0; v < lp_.num_vars(); ++v) {
          if (!lp_.vars()[v].is_integer ||
              dom.upper[v] - dom.lower[v] <= 0.5) {
            continue;
          }
          double score = 0.0;
          for (const RowRef& ref : propagator_.rows_of(v)) {
            const Row& row = lp_.rows()[ref.row];
            int fixed = 0;
            for (const Term& t : row.terms) {
              if (dom.upper[t.var] - dom.lower[t.var] <= 0.5) ++fixed;
            }
            score += static_cast<double>(fixed) /
                     static_cast<double>(row.terms.size());
          }
          if (score > best_score + 1e-12) {
            best_score = score;
            branch_var = v;
          }
        }
        if (branch_var == kNoVar) {
          // All integer variables fixed; propagation fixpoint on fully
          // fixed integer rows implies feasibility (activities are point
          // values).
          std::vector<double> x(lp_.num_vars());
          for (VarId v = 0; v < lp_.num_vars(); ++v) x[v] = dom.lower[v];
          const double val = lp_.EvalObjective(x);
          OfferIncumbent(val, std::move(x));
          continue;
        }
      }

      // SOS1 branching: if the variable sits in a sum(=1) row with several
      // candidates, branch "who gets the 1" — one child per candidate.
      const size_t mark = s->trail.Mark();
      if (sos1_of_var_[branch_var] >= 0) {
        const Row& row =
            lp_.rows()[static_cast<uint32_t>(sos1_of_var_[branch_var])];
        std::vector<VarId> candidates;
        for (const Term& t : row.terms) {
          if (dom.upper[t.var] - dom.lower[t.var] > 0.5) {
            candidates.push_back(t.var);
          }
        }
        if (candidates.size() >= 2) {
          // Push in reverse so the first candidate is explored first.
          for (size_t i = candidates.size(); i-- > 0;) {
            Decision child;
            child.mark = mark;
            child.var = candidates[i];
            child.lo = 1.0;
            child.hi = dom.upper[candidates[i]];
            child.inherited = bound;
            s->stack.push_back(child);
          }
          continue;
        }
      }

      // Child A explores the preferred value first (pushed last).
      const double lo = dom.lower[branch_var];
      const double hi = dom.upper[branch_var];
      double split;  // branch: x <= split  |  x >= split + 1
      if (frac_target >= 0.0) {
        split = std::clamp(std::floor(frac_target), lo, hi - 1.0);
      } else {
        split = lo;  // binary-style: try lo side vs rest
      }
      const double c = lp_.objective_coef(branch_var);
      const bool prefer_up =
          frac_target >= 0.0 ? (frac_target - split > 0.5) : (c > 0);

      Decision down{mark,   branch_var, lo,
                    split,  bound,      lp_obj,
                    frac_target >= 0.0 ? frac_target - split : -1.0, 0};
      Decision up{mark,     branch_var,  split + 1.0,
                  hi,       bound,       lp_obj,
                  frac_target >= 0.0 ? split + 1.0 - frac_target : -1.0, 1};

      if (prefer_up) {
        s->stack.push_back(down);
        s->stack.push_back(up);
      } else {
        s->stack.push_back(up);
        s->stack.push_back(down);
      }
    }
  }

  // Donates the oldest half of the open stack (the subtrees nearest the
  // root) to the pool as fresh strands of this same search. A donated
  // strand materializes its Domains by replaying the donor's trail down to
  // the decision's mark (non-destructively) and inherits the donor's basis
  // snapshot so its first LP solve warm-starts too.
  void SplitStack(Strand* s, MipStats* stats) {
    const size_t donate = s->stack.size() / 2;
    telemetry::Instant("scheduler", "donate",
                       {{"component", static_cast<double>(trace_id_)},
                        {"tasks", static_cast<double>(donate)}});
    LpBasis basis;
    if (s->lp != nullptr) basis = s->lp->SaveBasis();
    for (size_t i = 0; i < donate; ++i) {
      const Decision& d = s->stack[i];
      // shared_ptr because std::function requires a copyable callable.
      auto child = std::make_shared<Strand>();
      child->dom = s->dom;
      s->trail.ReplayUndo(d.mark, &child->dom);
      Decision seed = d;
      seed.mark = 0;
      child->stack.push_back(seed);
      child->seed_basis = basis;
      ++stats->subtree_tasks;
      group_->Submit([this, child] {
        LICM_TRACE_SPAN("bnb", "subtree");
        MipStats local;
        Dfs(child.get(), &local);
        MergeLocalStats(local);
      });
    }
    s->stack.erase(s->stack.begin(),
                   s->stack.begin() + static_cast<ptrdiff_t>(donate));
    ++stats->subtree_splits;
  }

  // Periodic gap-vs-time sample from one strand — the per-component
  // progress log. `bound` is the strand's current node bound: a valid
  // upper bound on what its subtree can still deliver.
  void EmitProgress(double bound) const {
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    const bool has_inc = has_incumbent_.load(std::memory_order_relaxed);
    const double inc =
        has_inc ? incumbent_value_.load(std::memory_order_relaxed) : kNan;
    telemetry::Instant(
        "bnb", "progress",
        {{"component", static_cast<double>(trace_id_)},
         {"nodes",
          static_cast<double>(nodes_.load(std::memory_order_relaxed))},
         {"incumbent", inc},
         {"best_bound", bound},
         {"gap", has_inc ? std::max(0.0, bound - inc) : kNan}});
  }

  // Folds unexplored frontier decisions into the proved bound of a
  // stopped search. Each decision's Domains are materialized from the
  // strand's live state by non-destructive trail replay (only runs once,
  // at stop time).
  void AccountOpen(const Strand& s) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Decision& d : s.stack) {
      Domains dm = s.dom;
      s.trail.ReplayUndo(d.mark, &dm);
      if (d.var != kNoVar) {
        dm.lower[d.var] = d.lo;
        dm.upper[d.var] = d.hi;
      }
      open_bound_ = std::max(open_bound_,
                             std::min(NodeBoundCheap(dm), d.inherited));
    }
  }

  void OfferIncumbent(double value, std::vector<double> x) {
    // Racy fast path: the incumbent value only ever increases, so a stale
    // read can at worst let a tied-or-worse candidate reach the lock.
    if (has_incumbent_.load(std::memory_order_relaxed) &&
        value <= incumbent_value_.load(std::memory_order_relaxed)) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!has_incumbent_.load(std::memory_order_relaxed) ||
        value > incumbent_value_.load(std::memory_order_relaxed)) {
      incumbent_ = std::move(x);
      incumbent_value_.store(value, std::memory_order_relaxed);
      has_incumbent_.store(true, std::memory_order_relaxed);
    }
  }

  // True when `bound` cannot beat the shared incumbent. A stale incumbent
  // read only delays a cut (extra nodes), never removes a solution.
  bool Cut(double bound) const {
    return has_incumbent_.load(std::memory_order_relaxed) &&
           bound <= incumbent_value_.load(std::memory_order_relaxed) +
                        kTol;
  }

  // True when the incumbent already matches the root activity bound (same
  // floor + tolerance as the node prune): the search would cut its first
  // node immediately, so any remaining prologue work is pure overhead.
  bool RootGapClosed(const Domains& dom) const {
    double bound = ActivityBound(lp_, dom);
    if (integral_) bound = std::floor(bound + kTol);
    return Cut(bound);
  }

  void MergeLocalStats(const MipStats& local) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_->MergeFrom(local);
  }

  double NodeBoundCheap(const Domains& dom) const {
    double b = ActivityBound(lp_, dom);
    if (integral_) b = std::floor(b + kTol);
    return b;
  }

  const LinearProgram& lp_;
  const MipOptions& opt_;
  const Deadline& deadline_;
  Scheduler* const scheduler_;  // null => splitting disabled
  MipStats* stats_ = nullptr;   // merged into under stats_mu_
  const int64_t trace_id_;      // component id in telemetry events
  Propagator propagator_;       // Run() is const and stateless: shared
  const bool integral_;
  // The propagated root, kept from CloseAtRoot for Search(), and whether
  // its completion found a world.
  Strand root_;
  bool completed_ = false;
  // Set by PrepareSearch.
  bool node_lp_ = false;  // strands keep warm IncrementalLp states
  std::vector<int32_t> sos1_of_var_;

  // Cut registry shared by all strands: each strand's LP has absorbed the
  // prefix cuts_[0 .. strand.applied_cuts); ApplyNewCuts replays the rest.
  // cut_keys_ dedupes across strands. Guarded by cuts_mu_.
  std::mutex cuts_mu_;
  std::vector<Row> cuts_;
  std::unordered_set<std::string> cut_keys_;

  // Pseudo-cost tables per direction (0 = down, 1 = up), guarded by
  // pc_mu_. Sized by PrepareSearch iff use_pseudo_cost.
  std::mutex pc_mu_;
  std::vector<double> pc_sum_[2];
  std::vector<int32_t> pc_cnt_[2];

  // State shared by all strands of this component's search. The atomics
  // are monotone signals (relaxed ordering suffices: a stale read costs
  // extra nodes, never correctness); the vectors live under mu_.
  Scheduler::Group* group_ = nullptr;
  std::atomic<int64_t> nodes_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> infeasible_only_{true};
  std::atomic<bool> has_incumbent_{false};
  std::atomic<double> incumbent_value_{-kInfinity};
  std::mutex mu_;        // incumbent_ vector + open_bound_
  std::mutex stats_mu_;  // strand-local MipStats merges into *stats_
  double open_bound_ = -kInfinity;
  std::vector<double> incumbent_;
};

// ---------------------------------------------------------------------------
// Shared pipeline: decomposition runs once, components are solved as one
// deduplicated batch (cache-aware), results assemble per sense.

struct PreparedPipeline {
  bool infeasible = false;
  std::vector<Component> comps;
};

void Prepare(const LinearProgram& lp, const MipOptions& opt, MipStats* stats,
             PreparedPipeline* p) {
  ++stats->decompose_calls;
  if (opt.use_decomposition) {
    p->comps = Decompose(lp, &p->infeasible);
  } else {
    Component whole;
    whole.program = lp;
    whole.to_parent.resize(lp.num_vars());
    for (VarId v = 0; v < lp.num_vars(); ++v) whole.to_parent[v] = v;
    p->comps.push_back(std::move(whole));
  }
  stats->components = p->comps.size();
}

ComponentResult EntryToResult(const ComponentCache::Entry& e,
                              const CanonicalForm& form) {
  ComponentResult res;
  res.status = e.status;
  res.has_solution = e.has_solution;
  res.objective = res.best_bound = e.objective;
  if (e.has_solution) res.solution = CanonicalToInput(form, e.solution);
  return res;
}

// Runs `fn(task, stats)` for every task, one scheduler task each when the
// scheduler has more than one thread; per-task stats then merge in
// task-index order, so counter totals are deterministic however the work
// interleaved.
template <typename Fn>
void ForEachTask(const std::vector<size_t>& tasks, Scheduler* scheduler,
                 MipStats* stats, const Fn& fn) {
  if (scheduler == nullptr || scheduler->num_threads() == 1) {
    for (size_t t : tasks) fn(t, stats);
    return;
  }
  // A single-task batch still goes through the group so the lone
  // component can split internally.
  std::vector<MipStats> task_stats(tasks.size());
  {
    Scheduler::Group group(scheduler);
    for (size_t idx = 0; idx < tasks.size(); ++idx) {
      group.Submit([&, idx] { fn(tasks[idx], &task_stats[idx]); });
    }
    group.Wait();
  }
  for (const MipStats& s : task_stats) stats->MergeFrom(s);
}

// Solves every program (all maximization-oriented) in one batch. With a
// cache, programs are canonicalized and grouped by form: one search
// answers the whole isomorphism class, and proved results are memoized for
// later batches. Rowless programs skip the cache — solving them by
// inspection is cheaper than fingerprinting them — as do components above
// the size cap (kCacheMaxComponentVars). A nonzero `twin_offset` says that
// programs[twin_offset + i] is the negated-objective twin of programs[i]:
// the twin reuses its original's relabeling (CanonicalizeTwin), so each
// pair is refined once.
//
// `batch_local_cache` says the cache was created for this call
// (SolveResources owns it): it is empty now and dropped when the call
// ends, so a program can only hit an isomorphic partner inside this
// batch. Such a batch first runs the root step (ComponentSearch::
// CloseAtRoot) of every cacheable program; a program it closes is done,
// and counts as neither a hit nor a miss. Only the programs left open are
// grouped: their cheap IsomorphismInvariant is computed, an open program
// is fingerprinted only when its invariant occurs more than once among
// them, and an (original, twin) pair is fingerprinted together only when
// both sides are open (a lone open side is fingerprinted on its own).
// Every other open program goes straight to search and counts as a miss,
// as a singleton class would. Grouping by key already deduplicates the
// batch, so it also skips the cache's Lookup/Insert. A cache the caller
// supplies fingerprints every cacheable program and looks it up first: a
// later batch can hit it.
//
// With a multi-thread scheduler, root steps and component searches go
// through one shared pool, and each ComponentSearch may additionally
// donate subtrees into that same pool — so a batch that is one giant
// component (the Query-3 join regime) still saturates the machine.
std::vector<ComponentResult> SolveBatch(
    const std::vector<const LinearProgram*>& programs, size_t twin_offset,
    const MipOptions& opt, bool batch_local_cache, MipStats* stats) {
  const size_t n = programs.size();
  std::vector<ComponentResult> results(n);

  std::vector<CanonicalForm> forms(n);
  // cacheable: may share a result (counts a hit or a miss); use_cache:
  // fingerprinted and grouped by key.
  std::vector<uint8_t> cacheable(n, 0);
  std::vector<uint8_t> use_cache(n, 0);
  // Programs whose root step ran in this call: closed by it, or left open
  // with their root state kept for the search.
  std::vector<uint8_t> closed(n, 0);
  std::vector<std::unique_ptr<ComponentSearch>> open(n);
  std::vector<std::vector<size_t>> group_members;  // ordered by first member
  std::vector<int32_t> group_of_rep(n, -1);
  if (opt.cache) {
    std::vector<size_t> roots;
    for (size_t i = 0; i < n; ++i) {
      cacheable[i] = programs[i]->num_rows() > 0 &&
                     programs[i]->num_vars() <= kCacheMaxComponentVars;
      use_cache[i] = cacheable[i];
      if (cacheable[i]) roots.push_back(i);
    }
    if (batch_local_cache) {
      ForEachTask(roots, opt.scheduler, stats,
                  [&](size_t i, MipStats* task_stats) {
                    telemetry::ScopedSpan span("solver", "search");
                    span.AddArg("component", static_cast<double>(i));
                    auto search = std::make_unique<ComponentSearch>(
                        *programs[i], opt, static_cast<int64_t>(i));
                    if (search->CloseAtRoot(task_stats, &results[i])) {
                      closed[i] = 1;
                    } else {
                      open[i] = std::move(search);
                    }
                  });
    }
    LICM_TRACE_SPAN("solver", "canonicalize");
    if (batch_local_cache) {
      std::vector<uint64_t> invariant(n, 0);
      std::unordered_map<uint64_t, uint32_t> seen;
      for (size_t i : roots) {
        cacheable[i] = use_cache[i] = !closed[i];
        if (closed[i]) continue;
        invariant[i] = IsomorphismInvariant(*programs[i]);
        ++seen[invariant[i]];
      }
      for (size_t i : roots) {
        if (!closed[i]) use_cache[i] = seen[invariant[i]] > 1;
      }
      // A twin's form is derived from its original's: where both sides
      // are open, fingerprint the pair together or not at all.
      for (size_t i = 0; i < twin_offset; ++i) {
        const size_t j = twin_offset + i;
        if (!cacheable[i] || !cacheable[j]) continue;
        use_cache[i] = use_cache[j] = use_cache[i] | use_cache[j];
      }
    }
    std::unordered_map<std::string_view, size_t> group_of;
    for (size_t i = 0; i < n; ++i) {
      if (!use_cache[i]) {
        if (cacheable[i]) ++stats->cache_misses;
        continue;
      }
      const bool twin = twin_offset > 0 && i >= twin_offset &&
                        use_cache[i - twin_offset];
      forms[i] = twin ? CanonicalizeTwin(*programs[i], forms[i - twin_offset])
                      : Canonicalize(*programs[i]);
      ++stats->canonical_forms;
      auto [it, fresh] = group_of.try_emplace(std::string_view(forms[i].key),
                                              group_members.size());
      if (fresh) group_members.emplace_back();
      group_members[it->second].push_back(i);
    }
  }

  // Task list: every program that was neither closed at the root nor
  // fingerprinted, plus one representative per isomorphism class.
  std::vector<size_t> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!use_cache[i] && !closed[i]) tasks.push_back(i);
  }
  for (size_t g = 0; g < group_members.size(); ++g) {
    group_of_rep[group_members[g].front()] = static_cast<int32_t>(g);
    tasks.push_back(group_members[g].front());
    for (size_t mi = 1; mi < group_members[g].size(); ++mi) {
      open[group_members[g][mi]].reset();  // answered by the representative
    }
  }
  std::vector<uint8_t> rep_hit(group_members.size(), 0);

  // Against a caller's cache, look a fingerprinted program up, otherwise
  // search, and memoize a proved search result for later batches.
  const bool memoize = opt.cache != nullptr && !batch_local_cache;
  auto run_task = [&](size_t i, MipStats* task_stats) {
    if (use_cache[i] && memoize) {
      ComponentCache::Entry entry;
      if (opt.cache->Lookup(forms[i], &entry)) {
        telemetry::Instant("cache", "cache_hit",
                           {{"component", static_cast<double>(i)}});
        results[i] = EntryToResult(entry, forms[i]);
        rep_hit[static_cast<size_t>(group_of_rep[i])] = 1;
        return;
      }
    }
    if (cacheable[i]) {
      telemetry::Instant("cache", "cache_miss",
                         {{"component", static_cast<double>(i)}});
    }
    telemetry::ScopedSpan span("solver", "search");
    span.AddArg("component", static_cast<double>(i));
    if (open[i] != nullptr) {
      results[i] = open[i]->Search(task_stats);
      open[i].reset();
    } else {
      ComponentSearch search(*programs[i], opt, static_cast<int64_t>(i));
      results[i] = search.Run(task_stats);
    }
    const ComponentResult& res = results[i];
    if (use_cache[i] && memoize &&
        (res.status == SolveStatus::kOptimal ||
         res.status == SolveStatus::kInfeasible)) {
      ComponentCache::Entry ins;
      ins.status = res.status;
      ins.objective = res.objective;
      ins.has_solution = res.has_solution;
      if (res.has_solution) {
        ins.solution = InputToCanonical(forms[i], res.solution);
      }
      opt.cache->Insert(forms[i], std::move(ins));
    }
  };
  ForEachTask(tasks, opt.scheduler, stats, run_task);

  // Replay each representative's result to the rest of its isomorphism
  // class, permuting the solution through canonical space. Time-limited
  // results are shared too (their bounds are permutation-invariant) but
  // were not inserted into the cache above.
  for (size_t g = 0; g < group_members.size(); ++g) {
    const std::vector<size_t>& members = group_members[g];
    const size_t rep = members.front();
    if (rep_hit[g]) {
      stats->cache_hits += static_cast<int64_t>(members.size());
    } else {
      ++stats->cache_misses;
      stats->cache_hits += static_cast<int64_t>(members.size()) - 1;
    }
    if (members.size() == 1) continue;
    const ComponentResult& src = results[rep];
    std::vector<double> canonical_x;
    if (src.has_solution) {
      canonical_x = InputToCanonical(forms[rep], src.solution);
    }
    for (size_t mi = 1; mi < members.size(); ++mi) {
      const size_t m = members[mi];
      ComponentResult res;
      res.status = src.status;
      res.objective = src.objective;
      res.best_bound = src.best_bound;
      res.has_solution = src.has_solution;
      if (src.has_solution) {
        res.solution = CanonicalToInput(forms[m], canonical_x);
      }
      results[m] = std::move(res);
    }
  }
  return results;
}

// Assembles component results (for maximize-oriented solved programs) into
// a MipResult. `offset` selects the slice of `solved` belonging to this
// sense; `num_vars` and `solved_work_constant` are the variable count and
// objective constant of the solved whole program; `negate` flips objective/bound back into the caller's
// orientation (the min side solves negated programs).
MipResult Assemble(const PreparedPipeline& p, size_t num_vars,
                   const std::vector<const LinearProgram*>& solved_programs,
                   const std::vector<ComponentResult>& solved, size_t offset,
                   double solved_work_constant, bool negate) {
  MipResult result;
  // Component programs carry coefficient-only objectives, so the whole
  // program's constant is added once. (Component constants are subtracted
  // back out to keep this correct when decomposition is disabled and the
  // single component *is* the whole program.)
  double objective = solved_work_constant;
  double best_bound = solved_work_constant;
  bool all_optimal = true;
  bool any_solution_missing = false;
  std::vector<double> assembled(num_vars, 0.0);

  for (size_t ci = 0; ci < p.comps.size(); ++ci) {
    const ComponentResult& cr = solved[offset + ci];
    if (cr.status == SolveStatus::kInfeasible) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }
    if (cr.status == SolveStatus::kUnbounded) {
      result.status = SolveStatus::kUnbounded;
      return result;
    }
    if (cr.status != SolveStatus::kOptimal) all_optimal = false;
    const double comp_const =
        solved_programs[offset + ci]->objective_constant();
    objective += cr.has_solution ? cr.objective - comp_const : 0.0;
    best_bound += cr.best_bound - comp_const;
    if (cr.has_solution) {
      const Component& comp = p.comps[ci];
      for (size_t i = 0; i < comp.to_parent.size(); ++i)
        assembled[comp.to_parent[i]] = cr.solution[i];
    } else {
      any_solution_missing = true;
    }
  }

  result.status =
      all_optimal ? SolveStatus::kOptimal : SolveStatus::kTimeLimit;
  result.has_solution = !any_solution_missing;
  if (result.has_solution) {
    result.solution = std::move(assembled);
    result.objective = negate ? -objective : objective;
  }
  result.best_bound = negate ? -best_bound : best_bound;
  if (result.status == SolveStatus::kOptimal) {
    result.best_bound = result.objective;
  }
  // Normalize negative zeros introduced by the negation.
  if (result.objective == 0.0) result.objective = 0.0;
  if (result.best_bound == 0.0) result.best_bound = 0.0;
  return result;
}

// Copies a negated-objective twin of `lp` (same feasible set; maximizing it
// solves the min side).
LinearProgram NegateObjective(const LinearProgram& lp) {
  LinearProgram neg = lp;
  for (VarId v = 0; v < neg.num_vars(); ++v)
    neg.SetObjectiveCoef(v, -neg.objective_coef(v));
  neg.AddObjectiveConstant(-2.0 * neg.objective_constant());
  return neg;
}

}  // namespace

void MipStats::MergeFrom(const MipStats& other) {
  nodes += other.nodes;
  lp_solves += other.lp_solves;
  components += other.components;
  presolve_fixed_vars += other.presolve_fixed_vars;
  decompose_calls += other.decompose_calls;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  canonical_forms += other.canonical_forms;
  root_completion_failures += other.root_completion_failures;
  subtree_splits += other.subtree_splits;
  subtree_tasks += other.subtree_tasks;
  warm_lp_solves += other.warm_lp_solves;
  lp_pivots += other.lp_pivots;
  max_resolve_pivots = std::max(max_resolve_pivots, other.max_resolve_pivots);
  rc_fixed_vars += other.rc_fixed_vars;
  cuts_generated += other.cuts_generated;
  strong_branch_solves += other.strong_branch_solves;
  num_threads = std::max(num_threads, other.num_threads);
  // Wall time keeps the outermost (concurrent strands overlap in time);
  // CPU time sums across strands. Sequential aggregation over *disjoint*
  // intervals (e.g. the feasibility prober's probe sequence) must sum
  // walls explicitly around this merge.
  solve_seconds = std::max(solve_seconds, other.solve_seconds);
  cpu_seconds += other.cpu_seconds;
}

namespace {

// Global solver counters, flushed once per top-level solve from the
// solve's merged MipStats. The search hot path keeps updating the plain
// stats struct; one batched Increment per metric here keeps the registry
// off the per-node path entirely. Scrapers turn the monotonic totals
// into rates (steal/donation pressure, cut/cache hit rates).
void RecordSolveMetrics(const MipStats& s) {
  auto& reg = metrics::MetricsRegistry::Default();
  static metrics::Counter* solves =
      reg.GetCounter("licm_solver_solves_total");
  static metrics::Counter* nodes = reg.GetCounter("licm_solver_nodes_total");
  static metrics::Counter* lp_solves =
      reg.GetCounter("licm_solver_lp_solves_total");
  static metrics::Counter* pivots =
      reg.GetCounter("licm_solver_lp_pivots_total");
  static metrics::Counter* rc_fixed =
      reg.GetCounter("licm_solver_rc_fixed_vars_total");
  static metrics::Counter* cuts_generated =
      reg.GetCounter("licm_solver_cuts_generated_total");
  static metrics::Counter* cache_hits =
      reg.GetCounter("licm_solver_cache_hits_total");
  static metrics::Counter* cache_misses =
      reg.GetCounter("licm_solver_cache_misses_total");
  static metrics::Counter* completion_failures =
      reg.GetCounter("licm_solver_root_completion_failures_total");
  static metrics::Counter* steals =
      reg.GetCounter("licm_solver_subtree_steals_total");
  static metrics::Counter* donations =
      reg.GetCounter("licm_solver_subtree_donations_total");
  solves->Increment();
  nodes->Increment(static_cast<int64_t>(s.nodes));
  lp_solves->Increment(static_cast<int64_t>(s.lp_solves));
  pivots->Increment(static_cast<int64_t>(s.lp_pivots));
  rc_fixed->Increment(static_cast<int64_t>(s.rc_fixed_vars));
  cuts_generated->Increment(static_cast<int64_t>(s.cuts_generated));
  cache_hits->Increment(static_cast<int64_t>(s.cache_hits));
  cache_misses->Increment(static_cast<int64_t>(s.cache_misses));
  completion_failures->Increment(s.root_completion_failures);
  steals->Increment(static_cast<int64_t>(s.subtree_splits));
  donations->Increment(static_cast<int64_t>(s.subtree_tasks));
}

}  // namespace

SolveResources::SolveResources(const MipOptions& options)
    : options_(options) {
  if (!options_.use_cache) {
    options_.cache = nullptr;
  } else if (options_.cache == nullptr) {
    cache_ = std::make_unique<ComponentCache>();
    options_.cache = cache_.get();
  }
  if (options_.deadline == nullptr) {
    deadline_ = Deadline::After(options_.time_limit_seconds);
    options_.deadline = &deadline_;
  }
  if (options_.scheduler == nullptr &&
      Scheduler::ResolveThreads(options_.num_threads) > 1) {
    scheduler_ = std::make_unique<Scheduler>(options_.num_threads);
    options_.scheduler = scheduler_.get();
  }
}

SolveResources::~SolveResources() = default;

int SolveResources::num_threads() const {
  return options_.scheduler != nullptr ? options_.scheduler->num_threads()
                                       : 1;
}

MipResult MipSolver::Solve(const LinearProgram& input, Sense sense) const {
  StopWatch clock;
  LICM_TRACE_SPAN("solver", "mip_solve");
  LICM_CHECK_OK(input.Validate());

  // Normalize to maximization.
  const bool minimize = sense == Sense::kMinimize;
  LinearProgram lp = input;
  if (minimize) lp = NegateObjective(input);

  const SolveResources resources(options_);
  const MipOptions& opt = resources.options();
  MipStats stats;
  stats.num_threads = resources.num_threads();
  PreparedPipeline p;
  Prepare(lp, opt, &stats, &p);
  if (p.infeasible) {
    MipResult result;
    result.status = SolveStatus::kInfeasible;
    result.stats = stats;
    result.stats.solve_seconds = clock.ElapsedSeconds();
    RecordSolveMetrics(result.stats);
    return result;
  }

  std::vector<const LinearProgram*> programs;
  programs.reserve(p.comps.size());
  for (const Component& c : p.comps) programs.push_back(&c.program);
  std::vector<ComponentResult> solved =
      SolveBatch(programs, /*twin_offset=*/0, opt, resources.owns_cache(),
                 &stats);
  MipResult result = Assemble(p, lp.num_vars(), programs, solved, 0,
                              lp.objective_constant(), minimize);
  result.stats = stats;
  result.stats.solve_seconds = clock.ElapsedSeconds();
  RecordSolveMetrics(result.stats);
  return result;
}

MinMaxMipResult MipSolver::SolveMinMax(const LinearProgram& input) const {
  StopWatch clock;
  LICM_TRACE_SPAN("solver", "mip_solve_minmax");
  MinMaxMipResult out;
  LICM_CHECK_OK(input.Validate());

  const SolveResources resources(options_);
  const MipOptions& opt = resources.options();
  PreparedPipeline p;
  out.stats.num_threads = resources.num_threads();
  Prepare(input, opt, &out.stats, &p);
  if (p.infeasible) {
    out.min.status = out.max.status = SolveStatus::kInfeasible;
    out.stats.solve_seconds = clock.ElapsedSeconds();
    RecordSolveMetrics(out.stats);
    return out;
  }

  // One task list covers both senses: components as-is for the max side,
  // negated-objective twins for the min side. A single batch shares the
  // thread pool and the cache across senses, each twin is fingerprinted
  // under its original's relabeling (one refinement per pair), and
  // feasibility-only components (zero objective) even dedupe *between*
  // senses.
  const size_t nc = p.comps.size();
  std::vector<LinearProgram> negated;
  negated.reserve(nc);
  for (const Component& c : p.comps) {
    negated.push_back(NegateObjective(c.program));
  }
  std::vector<const LinearProgram*> programs(2 * nc);
  for (size_t i = 0; i < nc; ++i) {
    programs[i] = &p.comps[i].program;
    programs[nc + i] = &negated[i];
  }
  std::vector<ComponentResult> solved =
      SolveBatch(programs, /*twin_offset=*/nc, opt, resources.owns_cache(),
                 &out.stats);

  out.max = Assemble(p, input.num_vars(), programs, solved, 0,
                     input.objective_constant(), /*negate=*/false);
  out.min = Assemble(p, input.num_vars(), programs, solved, nc,
                     -input.objective_constant(), /*negate=*/true);
  out.stats.solve_seconds = clock.ElapsedSeconds();
  RecordSolveMetrics(out.stats);
  return out;
}

}  // namespace licm::solver
