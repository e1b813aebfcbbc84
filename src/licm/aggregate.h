// Aggregate query answering (Section IV-D).
//
// The final LICM relation of a query plus the accumulated constraint set
// define a binary integer program: objective = sum of Ext attributes
// (COUNT) or sum of value * Ext (SUM); constraints = the lineage-encoding
// constraint set. Minimizing/maximizing yields the exact lower/upper bound
// over all possible worlds, and the solution vector names an extreme world.
#ifndef LICM_LICM_AGGREGATE_H_
#define LICM_LICM_AGGREGATE_H_

#include <unordered_map>
#include <vector>

#include "licm/licm_relation.h"
#include "licm/prune.h"
#include "solver/mip_solver.h"

namespace licm {

/// COUNT(*) / SUM objective over parallel value/lineage vectors (one
/// entry per tuple): tuple i contributes values[i] * Ext_i, so COUNT(*)
/// passes 1 per tuple and SUM(column) the column's values. Terms are
/// accumulated in tuple order.
Objective LinearObjective(const std::vector<double>& values,
                          const std::vector<Ext>& exts);

struct BoundsOptions {
  /// Remove variables/constraints unreachable from the objective before
  /// solving (Section V-C).
  bool prune = true;
  /// Solver configuration. `mip.cache` may point at a shared
  /// solver::ComponentCache to memoize isomorphic-component solves across
  /// calls; by default every bound computation uses a private cache that
  /// still dedupes the (typically thousands of) isomorphic group
  /// components within the call.
  solver::MipOptions mip;
};

/// One side of the answer range.
struct BoundSide {
  /// Best possible-world answer found. Always achievable by a world when
  /// `has_world`; equals the true extremum when `exact`.
  double value = 0.0;
  bool exact = false;
  bool has_world = false;
  /// Proved outer bound: <= true min (for the min side), >= true max (for
  /// the max side). Equals `value` when exact.
  double proved = 0.0;
  /// Assignment of the live (unpruned) variables achieving `value`. Pruned
  /// variables are unconstrained by the objective and can be completed by
  /// any satisfying assignment of the pruned remainder.
  std::unordered_map<BVar, uint8_t> world;
};

struct AggregateBounds {
  BoundSide min;
  BoundSide max;
  PruneResult::Stats prune_stats;
  /// Solver statistics for the whole computation. Both sides are solved in
  /// one pass (presolve + decomposition run exactly once; see
  /// solver::MipSolver::SolveMinMax), so the stats are shared rather than
  /// per side.
  solver::MipStats stats;
};

/// Computes [min, max] of `objective` subject to `constraints` over
/// variables 0..num_vars-1 (the database's pool). Returns
/// Status::Infeasible when the constraint set admits no world.
Result<AggregateBounds> ComputeBounds(const Objective& objective,
                                      const ConstraintSet& constraints,
                                      uint32_t num_vars,
                                      const BoundsOptions& options = {});

/// Bounds of a MIN or MAX aggregate over a numeric column (the paper's
/// "MIN and MAX can be handled ... using case based reasoning"). The range
/// is taken over the worlds where the result relation is non-empty.
struct MinMaxBounds {
  double lo = 0.0;
  double hi = 0.0;
  /// Feasibility subproblems that hit the solver's limits make the
  /// corresponding side conservative (outer) rather than exact.
  bool exact_lo = true;
  bool exact_hi = true;
  /// Some world instantiates the relation to empty (aggregate undefined
  /// there); when every world is empty, `always_empty` is set and lo/hi
  /// are meaningless.
  bool may_be_empty = false;
  bool always_empty = false;
  /// Merged solver statistics over the whole probe sequence (the probes
  /// share one constraint-graph decomposition and one solve cache).
  solver::MipStats stats;
};

/// Case-based MIN/MAX bounds over parallel value/lineage vectors (one
/// entry per tuple of the result relation): a sequence of solver
/// feasibility probes over the distinct values. `is_max` selects MAX
/// (else MIN).
Result<MinMaxBounds> ComputeMinMaxBounds(const std::vector<double>& values,
                                         const std::vector<Ext>& exts,
                                         const ConstraintSet& constraints,
                                         uint32_t num_vars, bool is_max,
                                         const BoundsOptions& options = {});

}  // namespace licm

#endif  // LICM_LICM_AGGREGATE_H_
