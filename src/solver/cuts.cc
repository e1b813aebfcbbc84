#include "solver/cuts.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace licm::solver {
namespace {

constexpr double kEps = 1e-9;
// Cap on returned cuts per call (most violated first).
constexpr int kMaxCuts = 32;
// Minimum violation at the separation point for a cut to be emitted.
constexpr double kMinViolation = 1e-3;
// Rows with more terms than this are skipped (dense rows make weak covers
// and cost quadratic minimalization time).
constexpr size_t kMaxRowTerms = 128;

// One complemented term of a knapsack row: weight > 0, and the literal's
// LP value (1 - x when complemented).
struct Literal {
  VarId var;
  double weight;
  bool complemented;
  double value;
};

// De-complements sum_{L} l_j <= bound into input space: each complemented
// literal contributes (1 - x_j), shifting the rhs down by one and flipping
// the coefficient sign.
Row ToInputRow(const std::vector<const Literal*>& lits, int bound) {
  Row row;
  row.op = RowOp::kLe;
  row.rhs = bound;
  row.terms.reserve(lits.size());
  for (const Literal* l : lits) {
    if (l->complemented) {
      row.terms.push_back(Term{l->var, -1.0});
      row.rhs -= 1.0;
    } else {
      row.terms.push_back(Term{l->var, 1.0});
    }
  }
  std::sort(row.terms.begin(), row.terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  return row;
}

// Canonical key for deduplication: sorted (var, sign) pairs plus rhs.
std::vector<std::pair<int64_t, int>> CutKey(const Row& row) {
  std::vector<std::pair<int64_t, int>> key;
  key.reserve(row.terms.size() + 1);
  for (const Term& t : row.terms)
    key.emplace_back(static_cast<int64_t>(t.var), t.coef > 0 ? 1 : -1);
  key.emplace_back(static_cast<int64_t>(std::llround(row.rhs * 4.0)), 0);
  return key;
}

}  // namespace

std::vector<Row> GenerateCardinalityCuts(const LinearProgram& lp,
                                         const std::vector<double>& x) {
  struct Found {
    Row row;
    double violation;
  };
  std::vector<Found> found;
  std::vector<Literal> lits;

  // Expand each row into <=-form knapsacks: kLe as-is, kGe negated, kEq
  // both ways.
  struct Knap {
    const Row* row;
    double sign;  // +1 keeps the row, -1 negates it
  };
  std::vector<Knap> knaps;
  knaps.reserve(lp.num_rows() + 4);
  for (const Row& r : lp.rows()) {
    if (r.op != RowOp::kGe) knaps.push_back(Knap{&r, 1.0});
    if (r.op != RowOp::kLe) knaps.push_back(Knap{&r, -1.0});
  }

  for (const Knap& kn : knaps) {
    const Row& row = *kn.row;
    if (row.terms.size() < 3 || row.terms.size() > kMaxRowTerms) continue;

    // Complement to an all-positive knapsack over binaries.
    lits.clear();
    double rhs = kn.sign * row.rhs;
    double weight_sum = 0.0;
    bool ok = true;
    bool uniform = true;
    double first_w = 0.0;
    for (const Term& t : row.terms) {
      const auto& def = lp.vars()[t.var];
      if (!def.is_integer || def.lower < -kEps || def.upper > 1.0 + kEps) {
        ok = false;
        break;
      }
      const double a = kn.sign * t.coef;
      if (std::abs(a) < kEps) continue;
      Literal l;
      l.var = t.var;
      if (a > 0) {
        l.weight = a;
        l.complemented = false;
        l.value = x[t.var];
      } else {
        // a*x = |a|*y - |a| with y = 1 - x: weight |a|, rhs grows by |a|.
        l.weight = -a;
        l.complemented = true;
        l.value = 1.0 - x[t.var];
        rhs += -a;
      }
      if (lits.empty()) first_w = l.weight;
      else if (std::abs(l.weight - first_w) > kEps) uniform = false;
      weight_sum += l.weight;
      lits.push_back(l);
    }
    if (!ok || lits.size() < 3) continue;
    if (rhs < -kEps) continue;  // infeasible row; propagation's job
    if (weight_sum <= rhs + kEps) continue;  // no cover exists

    // --- Cover cut: greedily pick high-LP-value literals until the
    // weight budget is exceeded, then drop redundant members. Uniform
    // rows are skipped: they are cardinality bounds already and every
    // cover they yield is dominated by the row itself.
    if (!uniform) {
      std::vector<const Literal*> order;
      order.reserve(lits.size());
      for (const Literal& l : lits) order.push_back(&l);
      std::stable_sort(order.begin(), order.end(),
                       [](const Literal* a, const Literal* b) {
                         return a->value > b->value;
                       });
      std::vector<const Literal*> cover;
      double w = 0.0;
      for (const Literal* l : order) {
        cover.push_back(l);
        w += l->weight;
        if (w > rhs + kEps) break;
      }
      if (w > rhs + kEps) {
        // Minimalize: a member whose removal keeps w > rhs is redundant.
        for (size_t i = cover.size(); i-- > 0;) {
          if (w - cover[i]->weight > rhs + kEps) {
            w -= cover[i]->weight;
            cover.erase(cover.begin() + static_cast<long>(i));
          }
        }
        double val = 0.0;
        for (const Literal* l : cover) val += l->value;
        const double viol = val - (static_cast<double>(cover.size()) - 1.0);
        if (cover.size() >= 2 && viol >= kMinViolation) {
          found.push_back(
              Found{ToInputRow(cover, static_cast<int>(cover.size()) - 1),
                    viol});
        }
      }
    }

    // --- Clique cut: literals heavier than half the budget are pairwise
    // exclusive.
    std::vector<const Literal*> clique;
    double val = 0.0;
    for (const Literal& l : lits) {
      if (l.weight > rhs / 2.0 + kEps) {
        clique.push_back(&l);
        val += l.value;
      }
    }
    if (clique.size() >= 3 && val - 1.0 >= kMinViolation) {
      found.push_back(Found{ToInputRow(clique, 1), val - 1.0});
    }
  }

  std::stable_sort(found.begin(), found.end(),
                   [](const Found& a, const Found& b) {
                     return a.violation > b.violation;
                   });

  std::vector<Row> out;
  std::set<std::vector<std::pair<int64_t, int>>> seen;
  for (Found& c : found) {
    if (static_cast<int>(out.size()) >= kMaxCuts) break;
    if (!seen.insert(CutKey(c.row)).second) continue;
    out.push_back(std::move(c.row));
  }
  return out;
}

}  // namespace licm::solver
