#include "licm/prune.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/telemetry.h"

namespace licm {

namespace {

solver::RowOp ToRowOp(ConstraintOp op) {
  switch (op) {
    case ConstraintOp::kLe: return solver::RowOp::kLe;
    case ConstraintOp::kGe: return solver::RowOp::kGe;
    case ConstraintOp::kEq: return solver::RowOp::kEq;
  }
  return solver::RowOp::kEq;
}

// Does `lhs op rhs` hold?
bool Holds(ConstraintOp op, int64_t lhs, int64_t rhs) {
  return op == ConstraintOp::kLe   ? lhs <= rhs
         : op == ConstraintOp::kGe ? lhs >= rhs
                                   : lhs == rhs;
}

// The rows a feasibility check covers: the selected rows of the
// constraint set, then the extra rows. Both witnesses read them in place,
// so the program is built only when a solve has to settle the question.
class CheckedRows {
 public:
  CheckedRows(const ConstraintSet& constraints,
              const std::vector<uint32_t>& rows,
              const std::vector<LinearConstraint>& extras)
      : constraints_(constraints), rows_(rows), extras_(extras) {}

  size_t size() const { return rows_.size() + extras_.size(); }
  const LinearConstraint& operator[](size_t i) const {
    return i < rows_.size() ? constraints_.constraints()[rows_[i]]
                            : extras_[i - rows_.size()];
  }

  // One past the largest variable any row names.
  size_t VarLimit() const {
    size_t limit = 0;
    for (size_t i = 0; i < size(); ++i) {
      for (const auto& t : (*this)[i].terms) {
        limit = std::max<size_t>(limit, t.var + 1);
      }
    }
    return limit;
  }

  // Does the 0/1 assignment `x` satisfy every row? Exact: integer
  // coefficients, int64 activities.
  bool AllHold(const std::vector<uint8_t>& x) const {
    for (size_t i = 0; i < size(); ++i) {
      if (!(*this)[i].Satisfied(x)) return false;
    }
    return true;
  }

 private:
  const ConstraintSet& constraints_;
  const std::vector<uint32_t>& rows_;
  const std::vector<LinearConstraint>& extras_;
};

// Variables the checked rows name, ascending. A dense mark vector keeps
// this linear: ids are contiguous, and sorting the terms of a large
// remainder would cost more than building its program.
std::vector<BVar> RowVars(const CheckedRows& rows, size_t var_limit) {
  std::vector<uint8_t> seen(var_limit, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const auto& t : rows[i].terms) seen[t.var] = 1;
  }
  std::vector<BVar> vars;
  for (BVar v = 0; v < seen.size(); ++v) {
    if (seen[v]) vars.push_back(v);
  }
  return vars;
}

// Greedy witness: LICM constraint sets are overwhelmingly disjoint
// cardinality blocks ("between lo and hi of this group set"), where
// raising the minimum number of variables per >=/== row yields a possible
// world. Each >=/== row, in order, raises its positive-coefficient
// variables in ascending variable order (duplicate terms merged) until it
// holds. A failed verification proves nothing either way.
bool GreedyWitnessHolds(const CheckedRows& rows, size_t var_limit) {
  std::vector<uint8_t> x(var_limit, 0);
  std::vector<LinearConstraint::Term> merged;
  for (size_t i = 0; i < rows.size(); ++i) {
    const LinearConstraint& c = rows[i];
    if (c.op == ConstraintOp::kLe) continue;
    // Rows are almost always emitted with ascending, distinct variables;
    // only the others need a sorted, merged copy.
    const std::vector<LinearConstraint::Term>* terms = &c.terms;
    if (std::adjacent_find(c.terms.begin(), c.terms.end(),
                           [](const auto& a, const auto& b) {
                             return a.var >= b.var;
                           }) != c.terms.end()) {
      merged = c.terms;
      std::sort(merged.begin(), merged.end(),
                [](const auto& a, const auto& b) { return a.var < b.var; });
      size_t out = 0;
      for (const auto& t : merged) {
        if (out > 0 && merged[out - 1].var == t.var) {
          merged[out - 1].coef += t.coef;
        } else {
          merged[out++] = t;
        }
      }
      merged.resize(out);
      terms = &merged;
    }
    int64_t act = 0;
    for (const auto& t : *terms) act += t.coef * x[t.var];
    for (const auto& t : *terms) {
      if (act >= c.rhs) break;
      if (t.coef > 0 && x[t.var] == 0) {
        x[t.var] = 1;
        act += t.coef;
      }
    }
  }
  return rows.AllHold(x);
}

// Creation-order witness: every lineage primitive (lineage.h) makes a
// fresh variable and emits rows in which it is the newest, defining it
// from older ones; a cardinality block holds once its newest variable is
// raised. So visit variables in ascending order and give each the value,
// 0 or else 1, that satisfies every row whose largest variable it is —
// all older variables of those rows are settled by then. Rows are
// bucketed by their largest variable with a counting sort, so the pass is
// O(rows + nnz). A failed verification proves nothing either way.
bool CreationOrderWitnessHolds(const CheckedRows& rows, size_t var_limit) {
  // start[v]..start[v + 1] indexes the rows whose largest variable is v.
  // Constant rows hold (CheckFeasible evaluated them) and join no bucket.
  std::vector<uint32_t> start(var_limit + 1, 0);
  std::vector<BVar> top(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].terms.empty()) continue;
    BVar max_var = 0;
    for (const auto& t : rows[i].terms) max_var = std::max(max_var, t.var);
    top[i] = max_var;
    ++start[max_var + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<uint32_t> by_top(start.back());
  std::vector<uint32_t> fill(start.begin(), start.end() - 1);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].terms.empty()) by_top[fill[top[i]]++] = i;
  }

  std::vector<uint8_t> x(var_limit, 0);
  for (BVar v = 0; v < var_limit; ++v) {
    bool zero_holds = true, one_holds = true;
    for (uint32_t k = start[v]; k < start[v + 1]; ++k) {
      const LinearConstraint& c = rows[by_top[k]];
      int64_t rest = 0, own = 0;
      for (const auto& t : c.terms) {
        if (t.var == v) {
          own += t.coef;
        } else {
          rest += t.coef * x[t.var];
        }
      }
      zero_holds = zero_holds && Holds(c.op, rest, c.rhs);
      one_holds = one_holds && Holds(c.op, rest + own, c.rhs);
    }
    if (!zero_holds) {
      if (!one_holds) return false;
      x[v] = 1;
    }
  }
  return rows.AllHold(x);
}

}  // namespace

solver::UnionFind LabelComponents(const ConstraintSet& constraints,
                                  uint32_t num_vars) {
  solver::UnionFind components(num_vars);
  for (const LinearConstraint& c : constraints.constraints()) {
    for (size_t i = 1; i < c.terms.size(); ++i) {
      components.Union(c.terms[0].var, c.terms[i].var);
    }
  }
  return components;
}

PruneResult Prune(const ConstraintSet& constraints,
                  const std::vector<BVar>& seeds, uint32_t num_vars) {
  LICM_TRACE_SPAN("licm", "prune");
  const auto& cs = constraints.constraints();
  solver::UnionFind components = LabelComponents(constraints, num_vars);
  LICM_CHECK(components.num_nodes() == num_vars);

  // Marks component roots holding a seed.
  std::vector<uint8_t> seeded(num_vars, 0);
  for (BVar s : seeds) {
    LICM_CHECK(s < num_vars);
    seeded[components.Find(s)] = 1;
  }
  PruneResult out;
  for (uint32_t c = 0; c < cs.size(); ++c) {
    if (!cs[c].terms.empty() && seeded[components.Find(cs[c].terms[0].var)]) {
      out.rows.push_back(c);
    }
  }
  for (BVar v = 0; v < num_vars; ++v) {
    if (seeded[components.Find(v)]) out.live.push_back(v);
  }
  out.stats = {num_vars, out.live.size(), cs.size(), out.rows.size()};
  return out;
}

PruneResult KeepAll(const ConstraintSet& constraints, uint32_t num_vars) {
  PruneResult out;
  out.rows.resize(constraints.size());
  std::iota(out.rows.begin(), out.rows.end(), 0u);
  out.live.resize(num_vars);
  std::iota(out.live.begin(), out.live.end(), BVar{0});
  out.stats = {num_vars, num_vars, constraints.size(), constraints.size()};
  return out;
}

solver::LinearProgram BuildProgram(const ConstraintSet& constraints,
                                   const std::vector<uint32_t>& rows,
                                   const std::vector<BVar>& vars,
                                   const std::vector<LinearConstraint>& extras,
                                   const Objective* objective) {
  // BVar -> VarId uses a dense vector: ids are contiguous, and at Query-3
  // scale (hundreds of thousands of terms) map hashing dominates
  // construction otherwise.
  constexpr solver::VarId kUnmapped =
      std::numeric_limits<solver::VarId>::max();
  std::vector<solver::VarId> to_lp(vars.empty() ? 0 : vars.back() + 1,
                                   kUnmapped);
  solver::LinearProgram lp;
  for (BVar v : vars) to_lp[v] = lp.AddBinary();
  auto lp_var = [&](BVar v) {
    LICM_CHECK(v < to_lp.size() && to_lp[v] != kUnmapped);
    return to_lp[v];
  };
  auto add_row = [&](const LinearConstraint& c) {
    solver::Row row;
    row.terms.reserve(c.terms.size());
    for (const auto& t : c.terms) {
      row.terms.push_back({lp_var(t.var), static_cast<double>(t.coef)});
    }
    row.op = ToRowOp(c.op);
    row.rhs = static_cast<double>(c.rhs);
    lp.AddRow(std::move(row));
  };
  for (uint32_t k : rows) add_row(constraints.constraints()[k]);
  for (const LinearConstraint& c : extras) add_row(c);
  if (objective != nullptr) {
    for (const auto& [v, coef] : objective->coefs) {
      lp.SetObjectiveCoef(lp_var(v), coef);
    }
    lp.AddObjectiveConstant(objective->constant);
  }
  return lp;
}

Feasibility CheckFeasible(const ConstraintSet& constraints,
                          const std::vector<uint32_t>& rows,
                          const std::vector<LinearConstraint>& extras,
                          const solver::MipOptions& mip,
                          solver::MipStats* stats) {
  const CheckedRows checked(constraints, rows, extras);
  for (size_t i = 0; i < checked.size(); ++i) {
    const LinearConstraint& c = checked[i];
    if (c.terms.empty() && !Holds(c.op, 0, c.rhs)) {
      return Feasibility::kInfeasible;
    }
  }
  const size_t var_limit = checked.VarLimit();
  if (GreedyWitnessHolds(checked, var_limit) ||
      CreationOrderWitnessHolds(checked, var_limit)) {
    return Feasibility::kFeasible;
  }

  const solver::LinearProgram lp = BuildProgram(
      constraints, rows, RowVars(checked, var_limit), extras);
  const solver::MipResult r =
      solver::MipSolver(mip).Solve(lp, solver::Sense::kMaximize);
  if (stats != nullptr) *stats = r.stats;
  switch (r.status) {
    case solver::SolveStatus::kOptimal: return Feasibility::kFeasible;
    case solver::SolveStatus::kInfeasible: return Feasibility::kInfeasible;
    default: return Feasibility::kUnknown;
  }
}

}  // namespace licm
