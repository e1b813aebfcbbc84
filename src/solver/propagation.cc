#include "solver/propagation.h"

#include <algorithm>
#include <cmath>

namespace licm::solver {

namespace {
constexpr double kTol = 1e-7;

// Rounds a derived bound for an integer variable, absorbing numerical fuzz.
double FloorTol(double x) { return std::floor(x + kTol); }
double CeilTol(double x) { return std::ceil(x - kTol); }
}  // namespace

Domains Domains::FromProgram(const LinearProgram& lp) {
  Domains d;
  d.lower.reserve(lp.num_vars());
  d.upper.reserve(lp.num_vars());
  for (const auto& v : lp.vars()) {
    d.lower.push_back(v.lower);
    d.upper.push_back(v.upper);
  }
  return d;
}

Propagator::Propagator(const LinearProgram& lp)
    : lp_(lp), start_(lp.num_vars() + 1, 0) {
  // start_[v] counts up to the end of v's range, then the rows are placed
  // back to front, which leaves start_[v] at its beginning and each list
  // in ascending row order.
  const auto& rows = lp.rows();
  for (const Row& row : rows)
    for (const Term& t : row.terms) ++start_[t.var];
  for (size_t v = 1; v <= lp.num_vars(); ++v) start_[v] += start_[v - 1];
  refs_.resize(start_.back());
  for (uint32_t r = static_cast<uint32_t>(rows.size()); r-- > 0;) {
    const auto& terms = rows[r].terms;
    for (auto t = terms.rbegin(); t != terms.rend(); ++t) {
      refs_[--start_[t->var]] = {r, t->coef};
    }
  }
}

PropagateResult Propagate(const LinearProgram& lp, Domains* domains) {
  return Propagator(lp).Run(domains);
}

PropagateResult Propagator::Run(Domains* domains, BoundTrail* trail,
                                PropagationScratch* scratch) const {
  return Drain(domains, /*all_rows=*/true, {}, trail, scratch);
}

PropagateResult Propagator::Run(Domains* domains,
                                std::span<const VarId> touched,
                                BoundTrail* trail,
                                PropagationScratch* scratch) const {
  return Drain(domains, /*all_rows=*/false, touched, trail, scratch);
}

PropagateResult Propagator::Drain(Domains* domains, bool all_rows,
                                  std::span<const VarId> touched,
                                  BoundTrail* trail,
                                  PropagationScratch* scratch) const {
  const LinearProgram& lp = lp_;
  const auto& rows = lp.rows();

  // Worklist: FIFO queue with an epoch-stamped membership test, so a
  // reused scratch needs no clearing between runs.
  PropagationScratch local;
  PropagationScratch& s = scratch != nullptr ? *scratch : local;
  if (s.stamp.size() != rows.size()) {
    s.stamp.assign(rows.size(), 0);
    s.epoch = 0;
  }
  if (++s.epoch == 0) {  // wraparound: old stamps could collide
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    s.epoch = 1;
  }
  s.queue.clear();
  size_t head = 0;
  auto enqueue_row = [&](uint32_t r) {
    if (s.stamp[r] != s.epoch) {
      s.stamp[r] = s.epoch;
      s.queue.push_back(r);
    }
  };

  auto enqueue_var = [&](VarId v) {
    for (const RowRef& ref : rows_of(v)) enqueue_row(ref.row);
  };
  if (all_rows) {
    for (uint32_t r = 0; r < rows.size(); ++r) enqueue_row(r);
  } else {
    for (VarId v : touched) enqueue_var(v);
  }

  // Activity range of `row` under the current domains.
  auto activity = [&](const Row& row, double* min_act, double* max_act) {
    *min_act = *max_act = 0.0;
    for (const Term& t : row.terms) {
      const double lo = t.coef * domains->lower[t.var];
      const double hi = t.coef * domains->upper[t.var];
      *min_act += std::min(lo, hi);
      *max_act += std::max(lo, hi);
    }
  };

  // One visit per row: every term is tightened in one pass against the
  // row's running activity range, which each bound change updates by its
  // delta. The row keeps its queued stamp while it is visited, so the
  // variables it tightens do not requeue it; it is requeued once at the
  // end when anything moved. The propagators are monotone and narrowing on
  // integer domains, so any visit order reaches the same fixpoint.
  while (head < s.queue.size()) {
    const uint32_t ri = s.queue[head++];
    const Row& row = rows[ri];

    // Treat the row as up to two one-sided constraints.
    const bool has_le = row.op != RowOp::kGe;  // sum <= rhs
    const bool has_ge = row.op != RowOp::kLe;  // sum >= rhs

    double min_act, max_act;
    activity(row, &min_act, &max_act);
    if (has_le && min_act > row.rhs + kTol) return PropagateResult::kInfeasible;
    if (has_ge && max_act < row.rhs - kTol) return PropagateResult::kInfeasible;

    // The inner scan makes no call and no write, so the compiler keeps its
    // loads out of the loop (a scan that also applied changes ran about
    // 30 % slower on long rows); it stops at the next term whose bounds
    // tighten, and the change is applied before the scan resumes.
    const Term* t = row.terms.data();
    const Term* const end = t + row.terms.size();
    bool moved = false;
    for (;; ++t) {
      double lo = 0.0, hi = 0.0;
      for (; t != end; ++t) {
        const VarId v = t->var;
        const double a = t->coef;
        lo = domains->lower[v];
        hi = domains->upper[v];
        const bool is_int = lp.vars()[v].is_integer;
        if (has_le) {
          // a*x <= rhs - (min activity of the other terms)
          const double resid = min_act - (a > 0 ? a * lo : a * hi);
          double nb = (row.rhs - resid) / a;
          if (a > 0) {
            if (is_int) nb = FloorTol(nb);
            if (nb < hi - kTol) hi = nb;
          } else {
            if (is_int) nb = CeilTol(nb);
            if (nb > lo + kTol) lo = nb;
          }
        }
        if (has_ge) {
          // a*x >= rhs - (max activity of the other terms)
          const double resid = max_act - (a > 0 ? a * hi : a * lo);
          double nb = (row.rhs - resid) / a;
          if (a > 0) {
            if (is_int) nb = CeilTol(nb);
            if (nb > lo + kTol) lo = nb;
          } else {
            if (is_int) nb = FloorTol(nb);
            if (nb < hi - kTol) hi = nb;
          }
        }
        if (lo > hi + kTol) return PropagateResult::kInfeasible;
        if (lo > domains->lower[v] + kTol || hi < domains->upper[v] - kTol) {
          break;
        }
      }
      if (t == end) break;
      const VarId v = t->var;
      const double a = t->coef;
      const double old_lo = domains->lower[v], old_hi = domains->upper[v];
      if (trail != nullptr) trail->Record(v, *domains);
      hi = std::max(lo, hi);
      domains->lower[v] = lo;
      domains->upper[v] = hi;
      if (std::isfinite(old_lo) && std::isfinite(old_hi)) {
        min_act += a > 0 ? a * (lo - old_lo) : a * (hi - old_hi);
        max_act += a > 0 ? a * (hi - old_hi) : a * (lo - old_lo);
      } else {
        activity(row, &min_act, &max_act);  // an infinite bound moved
      }
      enqueue_var(v);
      moved = true;
    }
    if (moved) {
      s.queue.push_back(ri);  // still stamped: requeued exactly once
    } else {
      s.stamp[ri] = 0;  // dequeued (epoch is never 0)
    }
  }
  return PropagateResult::kFixpoint;
}

}  // namespace licm::solver
