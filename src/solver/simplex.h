// Simplex solvers for the LP relaxation of LICM programs.
//
// Two engines share this header:
//
//  * SolveLpRelaxation — a two-phase *primal* simplex on a dense tableau.
//    Stateless: every call builds the tableau from scratch. Used once per
//    pure-LP component (no integer variables); never per node.
//
//  * IncrementalLp — a bounded-variable *dual* simplex that keeps its
//    basis, tableau, and reduced costs alive between solves: the one node
//    LP of branch & bound. Branch & bound re-solves the same program thousands of times under slightly
//    different variable bounds; the dual method re-establishes optimality
//    from the parent basis in a handful of pivots instead of a full
//    re-solve, and its reduced costs drive reduced-cost variable fixing
//    and pseudo-cost branching (mip_solver.cc). Requires every variable
//    to have finite bounds (LICM variables are binary, so this always
//    holds).
//
// Both operate on dense tableaus, appropriate because the MIP layer only
// invokes them on connected components below a size cap.
#ifndef LICM_SOLVER_SIMPLEX_H_
#define LICM_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "solver/linear_program.h"

namespace licm::solver {


/// Solves the *continuous relaxation* of `lp` (integrality flags ignored).
/// Maximizes when sense == kMaximize. On kOptimal, `values` holds one
/// optimal vertex in original variable space.
LpSolution SolveLpRelaxation(const LinearProgram& lp, Sense sense);

/// Status of one column (structural variable or row slack) in a
/// bounded-variable basis.
enum class VarStatus : uint8_t { kBasic, kAtLower, kAtUpper };

/// Compact basis snapshot: one status per column, structurals first, then
/// one slack per row (original rows followed by cut rows). A donated
/// subtree carries one so its strand warm-starts where the donor left off.
struct LpBasis {
  std::vector<VarStatus> status;
  bool empty() const { return status.empty(); }
};

/// Lifetime counters of one IncrementalLp instance.
struct IncrementalLpStats {
  int64_t solves = 0;
  int64_t pivots = 0;
  int64_t refactorizations = 0;
  /// Pivot count of the most expensive single re-solve.
  int64_t max_resolve_pivots = 0;
};

/// Bounded-variable dual simplex with a persistent basis.
///
/// Always *maximizes* (the MIP layer negates objectives for the min
/// sense). Every row becomes an equality with a slack column whose bounds
/// encode the row sense; nonbasic columns rest at a finite bound, so the
/// all-slack basis (structurals at their objective-preferred bound) is
/// dual feasible by construction and both the first solve and every warm
/// re-solve run the same dual iteration.
///
/// The referenced program must outlive the instance. Variable bounds are
/// passed per Solve call (the search's current domains); rows are fixed at
/// construction except for AddCutRow.
class IncrementalLp {
 public:
  explicit IncrementalLp(const LinearProgram& lp);

  IncrementalLp(const IncrementalLp&) = delete;
  IncrementalLp& operator=(const IncrementalLp&) = delete;

  /// True when `lp` fits this engine: every variable bound finite and the
  /// dense tableau within the engine's cell cap.
  static bool Suitable(const LinearProgram& lp);

  /// Re-solves under the given bounds (indexed by VarId), warm-starting
  /// from the current basis. The first call cold-starts from the all-slack
  /// basis. kTimeLimit means the pivot cap was hit: objective/values/
  /// reduced costs are NOT valid and the caller must fall back to other
  /// bounds.
  SolveStatus Solve(const std::vector<double>& lower,
                    const std::vector<double>& upper);

  /// Optimal objective (including the program's constant). Valid after a
  /// kOptimal Solve.
  double objective() const { return objective_; }
  /// Optimal structural values, indexed by VarId. Valid after kOptimal.
  const std::vector<double>& values() const { return values_; }

  /// Reduced cost of structural variable `v` at the last optimum, in the
  /// maximization orientation: nonbasic-at-lower implies d <= 0 and
  /// raising v by t can improve the objective by at most d * t (i.e. not
  /// at all); symmetrically at-upper implies d >= 0.
  double ReducedCost(VarId v) const { return d_[v]; }
  VarStatus StatusOf(VarId v) const { return status_[v]; }

  /// Appends a globally valid cut row (sum(terms) <= rhs over structural
  /// variables). The cut's slack joins the basis; if the current point
  /// violates the cut, the next Solve repairs feasibility in dual pivots.
  void AddCutRow(const Row& row);
  size_t num_cut_rows() const { return num_rows_ - num_base_rows_; }

  LpBasis SaveBasis() const;
  /// Adopts a basis snapshot (e.g. from a donor strand) and refactorizes.
  /// Falls back to the all-slack cold basis when the snapshot does not
  /// match the column layout or is singular.
  void RestoreBasis(const LpBasis& basis);

  /// Pivots performed by the most recent Solve call.
  int64_t last_pivots() const { return last_pivots_; }
  const IncrementalLpStats& stats() const { return stats_; }

 private:
  void ColdBasis();
  /// Rebuilds tableau, beta, and reduced costs from `status_`. Returns
  /// false when the implied basis matrix is singular.
  bool Refactorize();
  void SyncBounds(const std::vector<double>& lower,
                  const std::vector<double>& upper);
  double NonbasicValue(size_t col) const;
  void Pivot(size_t row, size_t enter_col, double ratio);

  const LinearProgram& lp_;
  size_t num_vars_;       // structural columns
  size_t num_base_rows_;  // rows of the original program
  size_t num_rows_;       // base rows + cut rows
  size_t num_cols_;       // num_vars_ + num_rows_

  // Row storage (original + cuts) used by Refactorize: normalized terms,
  // rhs, and slack bounds encoding the row sense.
  struct StoredRow {
    std::vector<Term> terms;
    double rhs = 0.0;
    double slack_lo = 0.0;
    double slack_hi = 0.0;
  };
  std::vector<StoredRow> rows_;

  std::vector<std::vector<double>> tab_;  // num_rows_ x num_cols_
  std::vector<size_t> basis_;             // row -> basic column
  std::vector<VarStatus> status_;         // per column
  std::vector<double> beta_;              // value of each row's basic var
  std::vector<double> d_;                 // reduced costs per column
  std::vector<double> lb_, ub_;           // working bounds per column
  std::vector<double> obj_;               // objective coef per column

  bool factorized_ = false;
  int pivots_since_refactor_ = 0;
  int64_t last_pivots_ = 0;
  double objective_ = 0.0;
  std::vector<double> values_;
  IncrementalLpStats stats_;
};

}  // namespace licm::solver

#endif  // LICM_SOLVER_SIMPLEX_H_
