// Activity-based bound propagation for integer linear programs.
//
// For every row, the minimum / maximum possible activity under the current
// variable bounds implies bounds on each participating variable. Iterating
// to a fixpoint fixes forced variables and detects infeasibility early.
// This is the workhorse of the branch & bound search: LICM constraint sets
// are dominated by cardinality rows for which propagation is very strong.
//
// Search integration: propagation can record every bound write into a
// BoundTrail so the caller restores the pre-propagation state in
// O(#changes) instead of copying whole Domains per node/probe, and can
// reuse a PropagationScratch so the per-run worklist does not reallocate.
#ifndef LICM_SOLVER_PROPAGATION_H_
#define LICM_SOLVER_PROPAGATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "solver/linear_program.h"

namespace licm::solver {

/// Mutable per-variable bounds used during search. Starts as a copy of the
/// LP's variable bounds and tightens monotonically.
struct Domains {
  std::vector<double> lower;
  std::vector<double> upper;

  static Domains FromProgram(const LinearProgram& lp);

  bool IsFixed(VarId v, double tol = 1e-9) const {
    return upper[v] - lower[v] <= tol;
  }
};

/// Undo log of domain writes. Every mutation of a Domains during search
/// (branch decisions, propagation, probes, reduced-cost fixings) records
/// the variable's prior bounds here; UnwindTo restores them in reverse
/// order, turning backtracking and probing into O(#changes) operations on
/// one shared Domains instead of full copies.
class BoundTrail {
 public:
  size_t Mark() const { return recs_.size(); }

  /// Records `v`'s current bounds (call BEFORE overwriting them).
  void Record(VarId v, const Domains& dom) {
    recs_.push_back(Rec{v, dom.lower[v], dom.upper[v]});
  }

  /// Pops records down to `mark`, restoring each into `dom`.
  void UnwindTo(size_t mark, Domains* dom) {
    while (recs_.size() > mark) {
      const Rec& r = recs_.back();
      dom->lower[r.var] = r.lo;
      dom->upper[r.var] = r.hi;
      recs_.pop_back();
    }
  }

  /// Like UnwindTo but non-destructive: undoes records above `mark` into
  /// `dom` while leaving the trail itself intact. Used to materialize the
  /// Domains of an interior decision (subtree donation, open-bound
  /// accounting) from the live strand state.
  void ReplayUndo(size_t mark, Domains* dom) const {
    for (size_t i = recs_.size(); i > mark; --i) {
      const Rec& r = recs_[i - 1];
      dom->lower[r.var] = r.lo;
      dom->upper[r.var] = r.hi;
    }
  }

  /// Discards records above `mark` WITHOUT undoing them: the writes they
  /// guard become permanent. Used when a probe refutation fixes a variable
  /// for good at the component root.
  void CommitTo(size_t mark) { recs_.resize(mark); }

  size_t size() const { return recs_.size(); }
  void Clear() { recs_.clear(); }

 private:
  struct Rec {
    VarId var;
    double lo, hi;
  };
  std::vector<Rec> recs_;
};

/// Reusable worklist storage for Propagator::Run. A per-strand instance
/// avoids reallocating (and re-zeroing) a rows-sized queued bitmap on
/// every propagation call — significant when probing fixes one variable
/// at a time on programs with 100k+ rows.
struct PropagationScratch {
  /// stamp[r] == epoch means row r is currently queued.
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
  std::vector<uint32_t> queue;
};

enum class PropagateResult { kFixpoint, kInfeasible };

/// One (row, coefficient) occurrence of a variable.
struct RowRef {
  uint32_t row;
  double coef;
};

/// Reusable propagation engine: caches the variable -> rows adjacency of
/// one program so branch & bound can propagate millions of nodes without
/// rebuilding it. The adjacency is one CSR buffer (two allocations per
/// program, whatever its size). The program must outlive the propagator.
class Propagator {
 public:
  explicit Propagator(const LinearProgram& lp);

  /// Tightens `domains` until fixpoint or proven infeasibility, starting
  /// from every row. Integer variables are rounded to integral bounds.
  /// When `trail` is given, every bound write is recorded so the caller
  /// can unwind (including the partial writes of an infeasible run).
  /// `scratch` reuses worklist storage across calls; it may be shared by
  /// calls on different Domains but not concurrently.
  PropagateResult Run(Domains* domains, BoundTrail* trail = nullptr,
                      PropagationScratch* scratch = nullptr) const;

  /// Same, but the initial worklist holds only the rows mentioning
  /// `touched` (the variables whose bounds the caller just changed).
  PropagateResult Run(Domains* domains, std::span<const VarId> touched,
                      BoundTrail* trail = nullptr,
                      PropagationScratch* scratch = nullptr) const;

  /// The rows mentioning `v`, with v's coefficient in each.
  std::span<const RowRef> rows_of(VarId v) const {
    return {refs_.data() + start_[v], refs_.data() + start_[v + 1]};
  }

 private:
  // The worklist loop of both Run overloads.
  PropagateResult Drain(Domains* domains, bool all_rows,
                        std::span<const VarId> touched, BoundTrail* trail,
                        PropagationScratch* scratch) const;

  const LinearProgram& lp_;
  std::vector<uint32_t> start_;  // rows_of(v) = refs_[start_[v], start_[v+1])
  std::vector<RowRef> refs_;
};

/// One-shot convenience wrapper around Propagator (all rows).
PropagateResult Propagate(const LinearProgram& lp, Domains* domains);

}  // namespace licm::solver

#endif  // LICM_SOLVER_PROPAGATION_H_
