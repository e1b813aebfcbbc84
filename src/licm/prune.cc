#include "licm/prune.h"

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

// A row without terms reads 0 op rhs.
bool ConstantRowHolds(const LinearConstraint& c) {
  return c.op == ConstraintOp::kLe   ? 0 <= c.rhs
         : c.op == ConstraintOp::kGe ? 0 >= c.rhs
                                     : c.rhs == 0;
}

// Variables the selected rows name, ascending. A dense mark vector keeps
// this linear: ids are contiguous, and sorting the terms of a large
// remainder would cost more than building its program.
std::vector<BVar> RowVars(const ConstraintSet& constraints,
                          const std::vector<uint32_t>& rows,
                          const std::vector<LinearConstraint>& extras) {
  std::vector<uint8_t> seen;
  auto mark = [&](const LinearConstraint& c) {
    for (const auto& t : c.terms) {
      if (t.var >= seen.size()) seen.resize(t.var + 1, 0);
      seen[t.var] = 1;
    }
  };
  for (uint32_t k : rows) mark(constraints.constraints()[k]);
  for (const LinearConstraint& c : extras) mark(c);
  std::vector<BVar> vars;
  for (BVar v = 0; v < seen.size(); ++v) {
    if (seen[v]) vars.push_back(v);
  }
  return vars;
}

// Witness fast path: LICM constraint sets are overwhelmingly disjoint
// cardinality blocks ("between lo and hi of this group set"), where
// raising the minimum number of variables per >=/== row yields a possible
// world. Build that assignment greedily, then verify it against EVERY row
// exactly — all quantities are small integers, so the checks are exact and
// a verified witness proves feasibility outright, skipping the solver
// (whose canonicalization pass dominates on monolithic-component
// workloads). A failed verification proves nothing either way.
bool GreedyWitnessHolds(const solver::LinearProgram& lp) {
  std::vector<uint8_t> x(lp.num_vars(), 0);
  for (const solver::Row& row : lp.rows()) {
    if (row.op == solver::RowOp::kLe) continue;
    double act = 0.0;
    for (const auto& t : row.terms) act += t.coef * x[t.var];
    for (const auto& t : row.terms) {
      if (act >= row.rhs) break;
      if (t.coef > 0 && x[t.var] == 0) {
        x[t.var] = 1;
        act += t.coef;
      }
    }
  }
  for (const solver::Row& row : lp.rows()) {
    double act = 0.0;
    for (const auto& t : row.terms) act += t.coef * x[t.var];
    const bool sat = row.op == solver::RowOp::kLe   ? act <= row.rhs
                     : row.op == solver::RowOp::kGe ? act >= row.rhs
                                                    : act == row.rhs;
    if (!sat) return false;
  }
  return true;
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
  for (uint32_t k : rows) {
    const LinearConstraint& c = constraints.constraints()[k];
    if (c.terms.empty() && !ConstantRowHolds(c)) return Feasibility::kInfeasible;
  }
  for (const LinearConstraint& c : extras) {
    if (c.terms.empty() && !ConstantRowHolds(c)) return Feasibility::kInfeasible;
  }
  const solver::LinearProgram lp = BuildProgram(
      constraints, rows, RowVars(constraints, rows, extras), extras);
  if (GreedyWitnessHolds(lp)) return Feasibility::kFeasible;

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
