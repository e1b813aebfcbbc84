// Exact branch & bound solver for the binary integer programs LICM emits.
//
// Pipeline: connected-component decomposition -> per-component root step
// (propagation and one verified completion) -> depth-first branch & bound
// with activity bounds, bound propagation at every node, and optional
// LP-relaxation bounds from the simplex, for the components the root step
// leaves open. Optima
// are *proved*, matching the paper's use of CPLEX; a time/node limit yields
// valid approximate bounds with a reported gap (the paper's Query-3
// behaviour on bipartite data).
#ifndef LICM_SOLVER_MIP_SOLVER_H_
#define LICM_SOLVER_MIP_SOLVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stopwatch.h"
#include "solver/linear_program.h"

namespace licm::solver {

class ComponentCache;
class Scheduler;

struct MipOptions {
  double time_limit_seconds = 300.0;
  bool use_decomposition = true;
  /// Node LP bound: each search strand keeps one warm bounded-variable
  /// dual-simplex state (simplex.h IncrementalLp) and re-solves a node's
  /// relaxation from the previous node's basis in a few pivots. Applies to
  /// components of at most 400 variables whose dense tableau fits the
  /// engine (IncrementalLp::Suitable); larger ones keep the propagation
  /// and probing bounds. Also the prerequisite for use_rc_fixing /
  /// use_cuts / use_pseudo_cost, which consume its duals and fractional
  /// vertices.
  bool use_lp_bound = true;
  /// Consult a canonical-form solve cache per connected component (see
  /// solve_cache.h): isomorphic components — the common case under
  /// k-anonymization, where every group of size k emits the same
  /// sub-program up to variable renaming — are solved once and answered by
  /// permutation thereafter.
  bool use_cache = true;
  /// Cache shared across solver calls, and the only state a solve carries
  /// into later ones: proved component results keyed by canonical form.
  /// Components of more than 512 variables are never fingerprinted and
  /// bypass it. When null and use_cache is set, each call gets a private
  /// cache (SolveResources), which still dedupes isomorphic components
  /// within the call and fingerprints only the components that can have
  /// an isomorphic partner there.
  ComponentCache* cache = nullptr;
  /// Singleton-consistency probing at each component root.
  bool use_probing = true;
  /// Per-node probing of objective variables: tentatively fix each unfixed
  /// objective variable to its objective-preferred value and propagate; a
  /// refutation forces the other value, tightening the activity bound.
  /// This is the workhorse bound on permutation-coupled instances where
  /// the LP relaxation is uninformative.
  bool use_objective_probing = true;
  /// Node cap per connected component; exceeding it degrades the result to
  /// kTimeLimit with valid (objective, best_bound) interval.
  int64_t max_nodes_per_component = 4'000'000;
  /// Reduced-cost variable fixing: after an optimal node relaxation with
  /// an incumbent in hand, a nonbasic integer whose reduced cost proves
  /// every improving solution keeps it at its bound is fixed there for the
  /// subtree (and the fixing propagated). Undone on backtrack via the
  /// bound trail.
  bool use_rc_fixing = true;
  /// Cover/clique cuts separated from cardinality rows (cuts.h) at
  /// fractional relaxation vertices, shared by every search strand of a
  /// component.
  bool use_cuts = true;
  /// Pseudo-cost branching seeded by strong branching at the component
  /// root, replacing the most-fractional rule when relaxation data is
  /// available (falls back to the structural heuristic otherwise).
  bool use_pseudo_cost = true;
  /// Worker threads shared by independent connected components and by
  /// intra-component subtree search (the paper's concluding remark that
  /// "parallelism ... may be required to scale"). 0 (the default)
  /// auto-detects from std::thread::hardware_concurrency(), capped at
  /// Scheduler::kMaxAutoThreads; 1 forces fully sequential solves.
  int num_threads = 0;
  /// Nodes a component search runs before it offers its oldest open
  /// subtrees to idle workers (see scheduler.h). Only consulted when the
  /// resolved thread count exceeds 1; small values exercise the split
  /// path in tests, larger ones keep trivial searches split-free.
  int64_t split_node_threshold = 10'000;
  /// Shared scheduler. When null, each call sizes a private pool by
  /// `num_threads` (SolveResources); the MIN/MAX feasibility prober
  /// shares one pool across its whole probe sequence (like `cache`). The
  /// scheduler's own thread count governs when set.
  Scheduler* scheduler = nullptr;
  /// Shared absolute deadline. When set it overrides
  /// `time_limit_seconds`, letting a caller budget one wall-clock limit
  /// across many solver calls; all workers of a solve check this single
  /// deadline, so a timed-out parallel solve stops at one consistent
  /// point (sticky expiry, see common/stopwatch.h).
  const Deadline* deadline = nullptr;
  /// Nodes between "progress" telemetry events of one search strand
  /// (incumbent, best bound, gap, node count — the gap-vs-time curve per
  /// component). Only consulted while a trace session is recording
  /// (common/telemetry.h); small values are test/demo territory.
  int64_t trace_progress_nodes = 4096;
};

struct MipStats {
  /// Popped depth-first decisions. A component closed before the search
  /// pushes its root (by the root step, the prologue or the root LP)
  /// counts 0.
  int64_t nodes = 0;
  int64_t lp_solves = 0;
  size_t components = 0;
  /// Always 0: the solver has no presolve (it fixed no variable on any
  /// measured workload and was deleted). Kept because the repository
  /// benchmark reads and digests it.
  size_t presolve_fixed_vars = 0;
  /// Pipeline invocations. SolveMinMax runs decomposition exactly once for
  /// both senses; callers assert on this to keep it so.
  int64_t decompose_calls = 0;
  /// Component-instance cache accounting: a hit is a component answered
  /// without a search (cache memo, or in-batch sharing with an isomorphic
  /// twin solved in the same call); a miss runs a search. A component a
  /// call-local batch closes in its root step never consults the cache
  /// and, like rowless and oversized ones, counts as neither.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Canonical fingerprints computed (components routed through the cache).
  int64_t canonical_forms = 0;
  /// Root completions that found no feasible world (the component then
  /// falls back to an objective-guided dive).
  int64_t root_completion_failures = 0;
  /// Intra-component parallelism: split events (a search donating open
  /// subtrees to the pool) and subtree tasks donated. Zero on sequential
  /// runs. Node counts of parallel runs are *not* run-order-independent
  /// (pruning depends on when workers share incumbents); bounds are.
  int64_t subtree_splits = 0;
  int64_t subtree_tasks = 0;
  /// Incremental LP core accounting: dual-simplex re-solves performed by
  /// warm strand states, total pivots across them, and the pivot count of
  /// the deepest single re-solve (MergeFrom keeps the max — the "how warm
  /// are the starts" metric).
  int64_t warm_lp_solves = 0;
  int64_t lp_pivots = 0;
  int64_t max_resolve_pivots = 0;
  /// Variables fixed by reduced-cost bounds across all nodes.
  int64_t rc_fixed_vars = 0;
  /// Cut rows separated by this solve.
  int64_t cuts_generated = 0;
  /// Strong-branching probe solves at component roots.
  int64_t strong_branch_solves = 0;
  /// Resolved executor count of the solve (MergeFrom keeps the max).
  int num_threads = 0;
  /// Wall-clock seconds of the outermost solve. MergeFrom keeps the max
  /// (concurrent strands overlap in time); sequential aggregation — e.g.
  /// the MIN/MAX feasibility prober's probe sequence — must sum walls
  /// explicitly around the merge.
  double solve_seconds = 0.0;
  /// CPU seconds summed across search strands (MergeFrom adds). Equals
  /// solve_seconds on sequential runs; on parallel runs the ratio
  /// cpu_seconds / solve_seconds measures effective parallelism.
  double cpu_seconds = 0.0;

  /// Deterministic merge: every counter adds, independent of the order
  /// worker threads finished in (num_threads and solve_seconds keep the
  /// max). Used for per-thread and per-phase stats.
  void MergeFrom(const MipStats& other);
};

struct MipResult {
  SolveStatus status = SolveStatus::kInfeasible;
  /// Objective of the best feasible solution found (valid iff has_solution).
  double objective = 0.0;
  /// Proved bound on the true optimum: >= objective when maximizing,
  /// <= objective when minimizing. Equal to objective when kOptimal.
  double best_bound = 0.0;
  bool has_solution = false;
  /// Assignment in the input program's variable space (iff has_solution).
  std::vector<double> solution;
  MipStats stats;

  /// Absolute gap |best_bound - objective| (0 when optimal).
  double Gap() const {
    return has_solution ? (best_bound > objective ? best_bound - objective
                                                  : objective - best_bound)
                        : kInfinity;
  }
};

/// Both senses of one program, solved off a single decomposition pass. `stats` covers the whole pass; the per-side stats
/// inside min/max are left zero because searches are shared across senses
/// (a feasibility-only component has the same canonical form in both).
struct MinMaxMipResult {
  MipResult min;
  MipResult max;
  MipStats stats;
};

/// The per-call resources a solve derives from MipOptions, set up in one
/// place for every solver entry point: `use_cache` without a shared
/// `cache` gets a private cache (and `use_cache` off clears `cache`), no
/// shared `deadline` means one `time_limit_seconds` from now, and no
/// shared `scheduler` with more than one resolved thread means a private
/// pool. `options()` points at whatever was created here, so the object
/// must outlive every solve that uses them.
///
/// A private cache made by `MipSolver::Solve`/`SolveMinMax` lives for one
/// batch of components and never answers a lookup, so the batch first
/// closes what it can at the root, shares results only between isomorphic
/// members of what stays open, fingerprints only open components whose
/// isomorphism invariant it sees twice, and skips the cache's lookups (owns_cache(), mip_solver.cc SolveBatch). The MIN/MAX
/// feasibility prober's private cache spans its whole probe sequence and
/// reaches each probe's solve as a caller-supplied cache.
class SolveResources {
 public:
  explicit SolveResources(const MipOptions& options);
  ~SolveResources();
  SolveResources(const SolveResources&) = delete;
  SolveResources& operator=(const SolveResources&) = delete;

  const MipOptions& options() const { return options_; }
  /// Resolved executor count of the solves (1 without a scheduler).
  int num_threads() const;
  /// True when `options().cache` was created here rather than supplied.
  bool owns_cache() const { return cache_ != nullptr; }

 private:
  MipOptions options_;
  std::unique_ptr<ComponentCache> cache_;
  Deadline deadline_ = Deadline::Never();
  std::unique_ptr<Scheduler> scheduler_;
};

class MipSolver {
 public:
  explicit MipSolver(MipOptions options = {}) : options_(options) {}

  /// Solves `lp` to proven optimality (or the configured limits).
  MipResult Solve(const LinearProgram& lp, Sense sense) const;

  /// Solves `lp` for both senses in one pass: decomposition runs once, and every component (plus its negated-objective twin for
  /// the min side) goes through one shared batch of searches — one thread
  /// pool, one solve cache, isomorphic components deduplicated across
  /// senses.
  MinMaxMipResult SolveMinMax(const LinearProgram& lp) const;

  const MipOptions& options() const { return options_; }

 private:
  MipOptions options_;
};

}  // namespace licm::solver

#endif  // LICM_SOLVER_MIP_SOLVER_H_
