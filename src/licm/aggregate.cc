#include "licm/aggregate.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/telemetry.h"

namespace licm {

Objective LinearObjective(const std::vector<double>& values,
                          const std::vector<Ext>& exts) {
  LICM_CHECK(values.size() == exts.size());
  Objective obj;
  for (size_t i = 0; i < values.size(); ++i) {
    if (exts[i].certain()) {
      obj.constant += values[i];
    } else {
      obj.coefs[exts[i].var()] += values[i];
    }
  }
  return obj;
}

Result<AggregateBounds> ComputeBounds(const Objective& objective,
                                      const ConstraintSet& constraints,
                                      uint32_t num_vars,
                                      const BoundsOptions& options) {
  telemetry::ScopedSpan bip_span("licm", "build_bip");
  // Determine the variable/constraint subsystem to hand to the solver.
  std::vector<BVar> seeds;
  seeds.reserve(objective.coefs.size());
  for (const auto& [v, c] : objective.coefs) seeds.push_back(v);

  const PruneResult pruned = options.prune ? Prune(constraints, seeds, num_vars)
                                            : KeepAll(constraints, num_vars);
  bool remainder_exact = true;
  if (pruned.rows.size() < constraints.size()) {
    // The dropped rows share no variable with the live set (a shared
    // variable would have put them in a seeded component), so their
    // feasibility is independent of the kept program — and pruning is
    // sound exactly when this remainder admits a world.
    std::vector<uint32_t> dropped;
    dropped.reserve(constraints.size() - pruned.rows.size());
    size_t next = 0;
    for (uint32_t k = 0; k < constraints.size(); ++k) {
      if (next < pruned.rows.size() && pruned.rows[next] == k) {
        ++next;
      } else {
        dropped.push_back(k);
      }
    }
    // The span shows which answers still pay a solve: `solved` is 1 only
    // when neither witness settled the remainder. Every solve runs
    // decomposition, so its stats count the call.
    telemetry::ScopedSpan remainder_span("licm", "remainder");
    solver::MipStats remainder_stats;
    const Feasibility remainder =
        CheckFeasible(constraints, dropped, {}, options.mip, &remainder_stats);
    remainder_span.AddArg("rows", static_cast<double>(dropped.size()));
    const bool solved = remainder_stats.decompose_calls > 0;
    remainder_span.AddArg("solved", solved ? 1.0 : 0.0);
    remainder_span.End();
    switch (remainder) {
      case Feasibility::kInfeasible:
        return Status::Infeasible(
            "LICM constraint set admits no possible world");
      case Feasibility::kUnknown:
        remainder_exact = false;
        break;
      case Feasibility::kFeasible:
        break;
    }
  }

  // The BIP over the live variables, in ascending BVar order.
  const solver::LinearProgram lp =
      BuildProgram(constraints, pruned.rows, pruned.live, {}, &objective);

  bip_span.AddArg("vars", static_cast<double>(lp.num_vars()));
  bip_span.AddArg("rows", static_cast<double>(lp.num_rows()));
  bip_span.End();

  // One shared pass: decomposition runs once, and every
  // component is solved for both senses through one batch (thread pool and
  // solve cache shared; isomorphic group components deduplicated).
  const solver::MipSolver solver(options.mip);
  solver::MinMaxMipResult r = solver.SolveMinMax(lp);

  AggregateBounds out;
  out.prune_stats = pruned.stats;
  out.stats = r.stats;

  auto to_side = [&](const solver::MipResult& side_result,
                     BoundSide* side) -> Status {
    switch (side_result.status) {
      case solver::SolveStatus::kInfeasible:
        return Status::Infeasible(
            "LICM constraint set admits no possible world");
      case solver::SolveStatus::kUnbounded:
        return Status::Unbounded("aggregate objective unbounded (bug: "
                                 "binary programs are always bounded)");
      case solver::SolveStatus::kOptimal:
        side->exact = true;
        break;
      case solver::SolveStatus::kTimeLimit:
        side->exact = false;
        break;
    }
    side->proved = side_result.best_bound;
    side->has_world = side_result.has_solution;
    side->value = side_result.has_solution ? side_result.objective
                                           : side_result.best_bound;
    if (side_result.has_solution) {
      side->world.reserve(pruned.live.size());
      for (size_t i = 0; i < pruned.live.size(); ++i) {
        side->world.emplace(pruned.live[i],
                            static_cast<uint8_t>(
                                std::lround(side_result.solution[i])));
      }
    }
    return Status::OK();
  };

  LICM_RETURN_NOT_OK(to_side(r.min, &out.min));
  LICM_RETURN_NOT_OK(to_side(r.max, &out.max));
  if (!remainder_exact) {
    // The dropped remainder's feasibility is unresolved, so the bounds are
    // valid for a superset of the worlds and cannot be claimed exact.
    out.min.exact = false;
    out.max.exact = false;
  }
  return out;
}

namespace {

// Shared machinery for the MIN/MAX case analysis: a sequence of
// feasibility probes against the same base constraint set, each with a
// couple of extra rows. The constraint graph is labeled into connected
// components once (LabelComponents, the labeling Prune() uses); every
// probe then checks only the components its extra rows touch, instead of
// re-copying and re-pruning the whole constraint set per distinct value.
// All probes share one solve cache, so a probe whose touched region is
// isomorphic to an earlier one (the common case across values under group
// anonymization) is answered without a search.
class FeasibilityProber {
 public:
  FeasibilityProber(const ConstraintSet& constraints, uint32_t num_vars,
                    const BoundsOptions& options)
      : constraints_(constraints),
        options_(options),
        all_rows_(KeepAll(constraints, /*num_vars=*/0).rows),
        components_(LabelComponents(constraints, num_vars)),
        // One cache, thread pool and wall-clock budget for the whole probe
        // sequence: the time limit bounds the MIN/MAX case analysis as a
        // unit (sticky expiry stops every later probe immediately), and
        // worker threads are spawned once instead of per probe.
        resources_(options.mip) {
    const auto& rows = constraints_.constraints();
    for (uint32_t k = 0; k < rows.size(); ++k) {
      if (rows[k].terms.empty()) continue;
      rows_of_root_[components_.Find(rows[k].terms[0].var)].push_back(k);
    }
  }

  /// Feasibility of the base constraint set alone (every component, no
  /// pruning) — the global "does any world exist" check. Solved once and
  /// memoized.
  Feasibility CheckBase() {
    if (!base_checked_) {
      base_result_ = Probe(all_rows_, {});
      base_checked_ = true;
    }
    return base_result_;
  }

  /// Feasibility of base + `extras`. With pruning enabled this checks only
  /// the components touched by the extras (exactly the region reachable
  /// from the extras' variables, matching the paper's pruning semantics);
  /// otherwise the full system is included.
  Feasibility Check(const std::vector<LinearConstraint>& extras) {
    if (!options_.prune) return Probe(all_rows_, extras);
    std::vector<BVar> roots;
    for (const LinearConstraint& c : extras) {
      for (const auto& t : c.terms) roots.push_back(components_.Find(t.var));
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    std::vector<uint32_t> rows;
    for (BVar root : roots) {
      auto it = rows_of_root_.find(root);
      if (it == rows_of_root_.end()) continue;
      rows.insert(rows.end(), it->second.begin(), it->second.end());
    }
    std::sort(rows.begin(), rows.end());
    return Probe(rows, extras);
  }

  const solver::MipStats& stats() const { return stats_; }

 private:
  Feasibility Probe(const std::vector<uint32_t>& rows,
                    const std::vector<LinearConstraint>& extras) {
    telemetry::ScopedSpan span("licm", "feasibility_probe");
    span.AddArg("probe", static_cast<double>(++probe_count_));
    span.AddArg("extra_rows", static_cast<double>(extras.size()));
    solver::MipStats probe_stats;
    const Feasibility f =
        CheckFeasible(constraints_, rows, extras, resources_.options(),
                      &probe_stats);
    // Probes run one after another, so their walls are disjoint intervals
    // that must add up — MergeFrom alone would keep only the longest
    // probe (its max semantics target concurrent strands).
    const double wall_total =
        stats_.solve_seconds + probe_stats.solve_seconds;
    stats_.MergeFrom(probe_stats);
    stats_.solve_seconds = wall_total;
    return f;
  }

  const ConstraintSet& constraints_;
  const BoundsOptions& options_;
  const std::vector<uint32_t> all_rows_;
  solver::UnionFind components_;
  std::unordered_map<BVar, std::vector<uint32_t>> rows_of_root_;
  const solver::SolveResources resources_;
  solver::MipStats stats_;
  int64_t probe_count_ = 0;
  bool base_checked_ = false;
  Feasibility base_result_ = Feasibility::kUnknown;
};

// Constraint "at least one of `vars` is present" / "none are present".
LinearConstraint AtLeastOne(const std::vector<BVar>& vars) {
  LinearConstraint c;
  for (BVar v : vars) c.terms.push_back({v, 1});
  c.op = ConstraintOp::kGe;
  c.rhs = 1;
  return c;
}
LinearConstraint None(const std::vector<BVar>& vars) {
  LinearConstraint c;
  for (BVar v : vars) c.terms.push_back({v, 1});
  c.op = ConstraintOp::kLe;
  c.rhs = 0;
  return c;
}

}  // namespace

Result<MinMaxBounds> ComputeMinMaxBounds(const std::vector<double>& vals,
                                         const std::vector<Ext>& tuple_exts,
                                         const ConstraintSet& constraints,
                                         uint32_t num_vars, bool is_max,
                                         const BoundsOptions& options) {
  LICM_CHECK(vals.size() == tuple_exts.size());
  MinMaxBounds out;
  if (vals.empty()) {
    out.always_empty = true;
    out.may_be_empty = true;
    return out;
  }

  // Distinct values ascending, with the variables / certainty per value.
  std::map<double, std::pair<bool, std::vector<BVar>>> by_value;
  bool any_certain = false;
  for (size_t i = 0; i < vals.size(); ++i) {
    auto& entry = by_value[vals[i]];
    if (tuple_exts[i].certain()) {
      entry.first = true;
      any_certain = true;
    } else {
      entry.second.push_back(tuple_exts[i].var());
    }
  }
  std::vector<double> values;
  for (const auto& [v, e] : by_value) values.push_back(v);

  // All probes below share one constraint-graph decomposition and one
  // solve cache; each solves only the region its extra rows touch. That
  // pruning is blind to components none of the relation's variables reach,
  // so an infeasible one would let a pruned probe report a world that
  // cannot exist (and the extreme/tame scans contradict each other). Check
  // global feasibility once up front: the component solves land in the
  // shared cache, so later probes get them back for free.
  FeasibilityProber prober(constraints, num_vars, options);
  {
    Feasibility base = prober.CheckBase();
    if (base == Feasibility::kInfeasible) {
      return Status::Infeasible(
          "LICM constraint set admits no possible world");
    }
    if (base == Feasibility::kUnknown) out.exact_lo = out.exact_hi = false;
  }

  // Emptiness: feasible to drop every tuple?
  if (any_certain) {
    out.may_be_empty = false;
  } else {
    std::vector<BVar> all_vars;
    for (const auto& [v, e] : by_value) {
      all_vars.insert(all_vars.end(), e.second.begin(), e.second.end());
    }
    Feasibility f = prober.Check({None(all_vars)});
    out.may_be_empty = f != Feasibility::kInfeasible;
    if (f == Feasibility::kUnknown) out.exact_lo = out.exact_hi = false;
  }

  // For MIN, mirror the values so the MAX logic below applies unchanged.
  auto key = [&](double v) { return is_max ? v : -v; };
  std::sort(values.begin(), values.end(),
            [&](double a, double b) { return key(a) < key(b); });
  // values is now ascending in "goodness": the extreme side (hi for MAX,
  // lo for MIN) is the largest-key value that can be present.

  // Extreme side: scan from the best value down; the first value whose
  // tuple-set can be non-empty bounds the aggregate.
  double extreme = values.front();
  bool extreme_exact = true;
  bool extreme_found = false;
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    const auto& entry = by_value.at(*it);
    if (entry.first) {  // certain tuple: always present
      extreme = *it;
      extreme_found = true;
      break;
    }
    Feasibility f = prober.Check({AtLeastOne(entry.second)});
    if (f == Feasibility::kFeasible) {
      extreme = *it;
      extreme_found = true;
      break;
    }
    if (f == Feasibility::kUnknown) {
      extreme = *it;  // conservative outer bound
      extreme_exact = false;
      extreme_found = true;
      break;
    }
  }
  if (!extreme_found) {
    // No tuple can ever be present; the up-front base check already ruled
    // out a contradictory constraint system, so the relation is simply
    // empty in every world.
    out.always_empty = true;
    out.may_be_empty = true;
    out.stats = prober.stats();
    return out;
  }

  // Tame side: the smallest-key value v such that a world exists with all
  // better-than-v tuples absent and some tuple (value-key <= v) present.
  double tame = values.back();
  bool tame_exact = true;
  for (double v : values) {
    // Certain tuple better than v => infeasible immediately.
    bool certain_better = false;
    std::vector<BVar> better, not_better;
    bool tame_has_certain = false;
    for (const auto& [val, entry] : by_value) {
      if (key(val) > key(v)) {
        certain_better |= entry.first;
        better.insert(better.end(), entry.second.begin(),
                      entry.second.end());
      } else {
        tame_has_certain |= entry.first;
        not_better.insert(not_better.end(), entry.second.begin(),
                          entry.second.end());
      }
    }
    if (certain_better) continue;
    std::vector<LinearConstraint> extras;
    if (!better.empty()) extras.push_back(None(better));
    if (!tame_has_certain) {
      if (not_better.empty()) continue;
      extras.push_back(AtLeastOne(not_better));
    }
    Feasibility f = prober.Check(extras);
    if (f == Feasibility::kFeasible) {
      tame = v;
      break;
    }
    if (f == Feasibility::kUnknown) {
      tame = v;  // conservative outer bound
      tame_exact = false;
      break;
    }
  }

  if (is_max) {
    out.hi = extreme;
    out.exact_hi = out.exact_hi && extreme_exact;
    out.lo = tame;
    out.exact_lo = out.exact_lo && tame_exact;
  } else {
    out.lo = extreme;
    out.exact_lo = out.exact_lo && extreme_exact;
    out.hi = tame;
    out.exact_hi = out.exact_hi && tame_exact;
  }
  out.stats = prober.stats();
  LICM_CHECK(out.lo <= out.hi);
  return out;
}

}  // namespace licm
