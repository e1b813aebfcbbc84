// From a constraint set to the solver: lineage pruning (Section V-C
// "Pruning"), the one program builder and the one feasibility check.
//
// Variables and constraints not reachable from the aggregate objective
// cannot affect the optimum, so they are removed before the BIP is handed
// to the solver. The paper exploits sequential variable creation to prune
// in a single reverse pass; we label the connected components of the row
// hypergraph instead (solver::UnionFind), which costs the same
// asymptotically and stays correct even for constraint orders that
// interleave groups (e.g. permutation row/column constraints). Pruning
// keeps every component that holds a seed.
//
// Soundness caveat (shared with the paper): pruning assumes the pruned-away
// remainder is satisfiable. ComputeBounds checks exactly that with
// CheckFeasible below, the consistency check of Flesca et al.; the MIN/MAX
// feasibility probes run the same check on the components their extra rows
// touch. The check leans on the same sequential variable creation the
// paper's pruning pass does: lineage rows define each fresh variable from
// older ones, so a pass over the variables in creation order usually
// builds a world outright, and only the sets it cannot settle are solved.
#ifndef LICM_LICM_PRUNE_H_
#define LICM_LICM_PRUNE_H_

#include <unordered_map>
#include <vector>

#include "licm/constraint.h"
#include "solver/components.h"
#include "solver/linear_program.h"
#include "solver/mip_solver.h"

namespace licm {

/// Linear objective over existence variables: constant (from certain
/// tuples) + sum of coef * b.
struct Objective {
  double constant = 0.0;
  std::unordered_map<BVar, double> coefs;
};

/// Connected components of the row hypergraph over variables
/// 0..num_vars-1: every row is one hyperedge over its variables. Rows
/// naming a variable beyond num_vars grow the node set.
solver::UnionFind LabelComponents(const ConstraintSet& constraints,
                                  uint32_t num_vars);

/// A selection of rows and variables of a constraint set.
struct PruneResult {
  /// Indices of the kept rows, ascending (the original row order).
  std::vector<uint32_t> rows;
  /// Live variables, ascending (includes the seeds).
  std::vector<BVar> live;

  struct Stats {
    size_t vars_before = 0;
    size_t vars_after = 0;
    size_t constraints_before = 0;
    size_t constraints_after = 0;
  } stats;
};

/// Keeps the rows and variables of every connected component that holds
/// one of `seeds`. A seed that appears in no row is kept as its own
/// singleton component.
PruneResult Prune(const ConstraintSet& constraints,
                  const std::vector<BVar>& seeds, uint32_t num_vars);

/// The identity selection: every row and every variable 0..num_vars-1.
PruneResult KeepAll(const ConstraintSet& constraints, uint32_t num_vars);

/// Builds the binary program over `vars` (ascending; vars[i] becomes
/// solver variable i): rows `rows` of `constraints` in the given order,
/// then `extras`, and `objective` when given. Every variable a row or the
/// objective names must be in `vars`.
solver::LinearProgram BuildProgram(
    const ConstraintSet& constraints, const std::vector<uint32_t>& rows,
    const std::vector<BVar>& vars,
    const std::vector<LinearConstraint>& extras = {},
    const Objective* objective = nullptr);

enum class Feasibility { kFeasible, kInfeasible, kUnknown };

/// Does some 0/1 assignment satisfy rows `rows` of `constraints` together
/// with `extras`? In order, stopping at the first that settles it:
///  1. constant rows are evaluated directly (one that fails: kInfeasible);
///  2. the greedy witness: each >=/== row raises its lowest positive
///     variables until it holds;
///  3. the creation-order witness: variables in ascending order each take
///     0, or else 1, to satisfy the rows whose largest variable they are;
///  4. a zero-objective solve under `mip` of the program BuildProgram makes
///     from the rows (kUnknown when that solve hits a limit).
/// Each witness reads the rows in place and is verified exactly against
/// every row, so a verified one proves kFeasible and a failed one proves
/// nothing. `*stats`, when given, receives the solve's statistics and is
/// left untouched when no solve ran.
Feasibility CheckFeasible(const ConstraintSet& constraints,
                          const std::vector<uint32_t>& rows,
                          const std::vector<LinearConstraint>& extras,
                          const solver::MipOptions& mip,
                          solver::MipStats* stats = nullptr);

}  // namespace licm

#endif  // LICM_LICM_PRUNE_H_
