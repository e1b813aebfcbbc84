// Lineage-encoding primitives of the LICM operators (columnar_ops.cc).
//
// Each primitive is one case analysis of Section IV: OR/AND lineage
// linking (Algorithms 1-3) and Algorithm 4's two-constraint cardinality
// encodings. An operator that feeds them its tuples in a fixed row order
// gets a fixed pool.New() sequence and fixed constraint rows, which is
// what keeps variable ids, bounds and digests reproducible.
#ifndef LICM_LICM_LINEAGE_H_
#define LICM_LICM_LINEAGE_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "licm/licm_relation.h"
#include "relational/query.h"

namespace licm {

/// Mutable variable pool + constraint set of the database being queried:
/// where the operators append derived lineage variables and their linking
/// constraints.
struct OpContext {
  VariablePool* pool;
  ConstraintSet* constraints;
};

/// Collects the distinct maybe-variables of a tuple group; `any_certain` is
/// set when at least one group member is certain.
struct GroupExt {
  bool any_certain = false;
  std::vector<BVar> vars;  // distinct, first-seen order
};

inline void Accumulate(GroupExt* g, Ext e) {
  if (e.certain()) {
    g->any_certain = true;
  } else if (std::find(g->vars.begin(), g->vars.end(), e.var()) ==
             g->vars.end()) {
    g->vars.push_back(e.var());
  }
}

/// Existence of "at least one member of the group": certain, a reused
/// single variable (Example 7's optimization), or a fresh OR-linked
/// variable.
inline Ext GroupOrExt(const GroupExt& g, OpContext ctx) {
  if (g.any_certain) return Ext::Certain();
  LICM_CHECK(!g.vars.empty());
  if (g.vars.size() == 1) return Ext::Maybe(g.vars[0]);
  const BVar out = ctx.pool->New();
  ctx.constraints->AddOr(out, g.vars);
  return Ext::Maybe(out);
}

/// AND of two tuple existences (Algorithm 2/3 case analysis).
inline Ext AndExt(Ext a, Ext b, OpContext ctx) {
  if (a == b || b.certain()) return a;
  if (a.certain()) return b;
  const BVar out = ctx.pool->New();
  ctx.constraints->AddAnd(out, a.var(), b.var());
  return Ext::Maybe(out);
}

/// One group of Algorithm 4: n certain tuples and maybe-terms B = sum of
/// existence variables (with multiplicity when several group members share
/// a variable).
struct CountGroup {
  int64_t n = 0;
  std::vector<LinearConstraint::Term> terms;  // merged by variable
  int64_t m = 0;  // number of maybe tuples (sum of coefficients)
  // Group existence (set semantics: a group value only appears in the
  // output when at least one of its tuples is present). Tracked over ALL
  // group tuples, including zero-weight ones.
  bool any_certain = false;
  std::vector<BVar> existence_vars;  // distinct
};

/// Folds one tuple of weight `w` into the group: existence is tracked for
/// every tuple, the cardinality terms only for non-zero weights.
inline void AccumulateCount(CountGroup* cg, Ext e, int64_t w) {
  if (e.certain()) {
    cg->any_certain = true;
  } else {
    const BVar v = e.var();
    if (std::find(cg->existence_vars.begin(), cg->existence_vars.end(), v) ==
        cg->existence_vars.end()) {
      cg->existence_vars.push_back(v);
    }
  }
  if (w == 0) return;  // zero-weight tuples cannot affect the sum
  if (e.certain()) {
    cg->n += w;
  } else {
    cg->m += w;
    const BVar v = e.var();
    auto term = std::find_if(cg->terms.begin(), cg->terms.end(),
                             [v](const auto& x) { return x.var == v; });
    if (term == cg->terms.end()) {
      cg->terms.push_back({v, w});
    } else {
      term->coef += w;
    }
  }
}

/// Existence outcome for a group under one one-sided count predicate.
struct CountCase {
  enum Kind { kCertain, kExcluded, kVariable } kind;
  BVar var = 0;
};

/// COUNT <= d over the group (Algorithm 4, case 1).
inline CountCase EncodeLe(const CountGroup& g, int64_t d, OpContext ctx) {
  if (g.m + g.n <= d) return {CountCase::kCertain, 0};
  if (g.n > d) return {CountCase::kExcluded, 0};
  const BVar b = ctx.pool->New();
  // (d - n + 1) b + B >= d - n + 1
  LinearConstraint c1;
  c1.terms = g.terms;
  c1.terms.push_back({b, d - g.n + 1});
  c1.op = ConstraintOp::kGe;
  c1.rhs = d - g.n + 1;
  ctx.constraints->Add(std::move(c1));
  // (m - d + n) b + B <= m
  LinearConstraint c2;
  c2.terms = g.terms;
  c2.terms.push_back({b, g.m - d + g.n});
  c2.op = ConstraintOp::kLe;
  c2.rhs = g.m;
  ctx.constraints->Add(std::move(c2));
  return {CountCase::kVariable, b};
}

/// COUNT >= d over the group (Algorithm 4, case 2).
inline CountCase EncodeGe(const CountGroup& g, int64_t d, OpContext ctx) {
  if (g.n >= d) return {CountCase::kCertain, 0};
  if (g.m + g.n < d) return {CountCase::kExcluded, 0};
  const BVar b = ctx.pool->New();
  // (d - n) b <= B
  LinearConstraint c1;
  c1.terms = g.terms;
  for (auto& t : c1.terms) t.coef = -t.coef;
  c1.terms.push_back({b, d - g.n});
  c1.op = ConstraintOp::kLe;
  c1.rhs = 0;
  ctx.constraints->Add(std::move(c1));
  // B <= d - n - 1 + (m - d + n + 1) b
  LinearConstraint c2;
  c2.terms = g.terms;
  c2.terms.push_back({b, -(g.m - d + g.n + 1)});
  c2.op = ConstraintOp::kLe;
  c2.rhs = d - g.n - 1;
  ctx.constraints->Add(std::move(c2));
  return {CountCase::kVariable, b};
}

/// `COUNT op d` normalized onto the <= / >= sides Algorithm 4 encodes.
struct CountOpSides {
  bool want_le = false, want_ge = false;
  int64_t d_le = 0, d_ge = 0;
};

inline Result<CountOpSides> NormalizeCountOp(rel::CmpOp op, int64_t d) {
  CountOpSides s;
  switch (op) {
    case rel::CmpOp::kLe: s.want_le = true; s.d_le = d; break;
    case rel::CmpOp::kLt: s.want_le = true; s.d_le = d - 1; break;
    case rel::CmpOp::kGe: s.want_ge = true; s.d_ge = d; break;
    case rel::CmpOp::kGt: s.want_ge = true; s.d_ge = d + 1; break;
    case rel::CmpOp::kEq:
      s.want_le = s.want_ge = true;
      s.d_le = s.d_ge = d;
      break;
    case rel::CmpOp::kNe:
      return Status::Unimplemented(
          "COUNT != d requires disjunctive lineage, which LICM encodes only "
          "via the completeness construction");
  }
  return s;
}

/// Lineage of one emitted group row of Algorithm 4: ANDs the per-side
/// existence variables and, when needed, the group's set-semantics
/// existence. Returns nullopt when the group is excluded (can never
/// satisfy the predicate, or can never exist).
inline std::optional<Ext> GroupRowExt(const CountGroup& cg,
                                      const CountOpSides& sides, OpContext ctx,
                                      CountCase le, CountCase ge) {
  if (le.kind == CountCase::kExcluded || ge.kind == CountCase::kExcluded) {
    return std::nullopt;
  }
  Ext e = Ext::Certain();
  if (le.kind == CountCase::kVariable && ge.kind == CountCase::kVariable) {
    e = AndExt(Ext::Maybe(le.var), Ext::Maybe(ge.var), ctx);
  } else if (le.kind == CountCase::kVariable) {
    e = Ext::Maybe(le.var);
  } else if (ge.kind == CountCase::kVariable) {
    e = Ext::Maybe(ge.var);
  }
  // Set semantics: the group value only exists in the output when some
  // group tuple is present. A satisfied >= d side with d >= 1 already
  // implies this; otherwise (pure <=, or thresholds <= 0) AND it in.
  const bool existence_implied = sides.want_ge && sides.d_ge >= 1;
  if (!existence_implied && !cg.any_certain) {
    if (cg.existence_vars.empty()) return std::nullopt;  // cannot ever exist
    GroupExt gext;
    gext.vars = cg.existence_vars;
    e = AndExt(e, GroupOrExt(gext, ctx), ctx);
  }
  return e;
}

}  // namespace licm

#endif  // LICM_LICM_LINEAGE_H_
