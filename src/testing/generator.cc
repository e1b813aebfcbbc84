#include "testing/generator.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"

namespace licm::testing {
namespace {

using rel::CmpOp;
using rel::QueryNodePtr;
using rel::Value;
using rel::ValueType;

constexpr const char* kItems[] = {"ale", "brie", "cola", "dill", "eggs"};
constexpr uint32_t kNumItems = 5;

Value Item(Rng* rng) { return Value(std::string(kItems[rng->Uniform(kNumItems)])); }

// The base relation: a few transactions, each item a certain or maybe
// tuple; maybe-variables sometimes shared (correlated tuples). `vars`
// collects the fresh tuple variables for constraint generation.
LicmRelation MakeRelation(Rng* rng, const GeneratorOptions& opt,
                          LicmDatabase* db, std::vector<BVar>* vars) {
  LicmRelation r(rel::Schema({{"tid", ValueType::kInt},
                              {"item", ValueType::kString},
                              {"val", ValueType::kInt}}));
  const int num_tids = 2 + static_cast<int>(rng->Uniform(opt.max_tids - 1));
  for (int tid = 1; tid <= num_tids; ++tid) {
    const int num_items =
        1 + static_cast<int>(rng->Uniform(opt.max_items_per_tid));
    std::vector<Value> items;  // drawn so far for this tid
    for (int k = 0; k < num_items; ++k) {
      rel::Tuple t{static_cast<int64_t>(tid),
                   std::string(kItems[rng->Uniform(kNumItems)]),
                   rng->UniformInt(0, 9)};
      // Keep the base relation a set over (tid, item): duplicate-merge
      // semantics are exercised downstream by projections and joins.
      if (std::find(items.begin(), items.end(), t[1]) != items.end()) continue;
      items.push_back(t[1]);
      if (rng->Bernoulli(opt.certain_prob)) {
        r.AppendUnchecked(std::move(t), Ext::Certain());
      } else if (!vars->empty() && rng->Bernoulli(opt.shared_var_prob)) {
        r.AppendUnchecked(std::move(t),
                          Ext::Maybe((*vars)[rng->Uniform(vars->size())]));
      } else if (db->pool().size() < opt.max_vars) {
        BVar b = db->pool().New();
        vars->push_back(b);
        r.AppendUnchecked(std::move(t), Ext::Maybe(b));
      } else {
        r.AppendUnchecked(std::move(t), Ext::Certain());
      }
    }
  }
  return r;
}

// A k x k permutation bijection over fresh variables: k*k maybe tuples in
// distinct transactions, with row-sum and column-sum = 1 constraints (the
// bipartite anonymization shape). Only added when the variable budget
// allows a 2x2 block.
void MaybeAddPermutationBlock(Rng* rng, const GeneratorOptions& opt,
                              LicmDatabase* db, LicmRelation* r) {
  constexpr uint32_t k = 2;
  if (db->pool().size() + k * k > opt.max_vars) return;
  if (!rng->Bernoulli(opt.permutation_prob)) return;
  BVar block[k][k];
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t j = 0; j < k; ++j) {
      block[i][j] = db->pool().New();
      // Slot j of element i: transaction 100+i may contain item j with a
      // value that identifies the slot.
      r->AppendUnchecked(
          rel::Tuple{static_cast<int64_t>(100 + i),
                     std::string(kItems[j]), static_cast<int64_t>(j)},
          Ext::Maybe(block[i][j]));
    }
  }
  for (uint32_t i = 0; i < k; ++i) {
    std::vector<BVar> row, col;
    for (uint32_t j = 0; j < k; ++j) {
      row.push_back(block[i][j]);
      col.push_back(block[j][i]);
    }
    db->constraints().AddCardinality(row, 1, 1);
    db->constraints().AddCardinality(col, 1, 1);
  }
}

// Random correlations over the tuple variables (Example 5 vocabulary).
void AddRandomConstraints(Rng* rng, const GeneratorOptions& opt,
                          LicmDatabase* db, const std::vector<BVar>& vars) {
  const int num = static_cast<int>(rng->Uniform(opt.max_constraints + 1));
  for (int c = 0; c < num && vars.size() >= 2; ++c) {
    std::vector<BVar> subset;
    for (BVar v : vars) {
      if (rng->Bernoulli(0.5)) subset.push_back(v);
    }
    if (subset.size() < 2) continue;
    switch (rng->Uniform(4)) {
      case 0: {
        int64_t z1 = rng->UniformInt(0, 1);
        int64_t z2 = rng->UniformInt(z1, static_cast<int64_t>(subset.size()));
        db->constraints().AddCardinality(subset, z1, z2);
        break;
      }
      case 1:
        db->constraints().AddImplication(subset[0], subset[1]);
        break;
      case 2:
        db->constraints().AddMutualExclusion(subset[0], subset[1]);
        break;
      case 3:
        db->constraints().AddCoexistence(subset[0], subset[1]);
        break;
    }
  }
}

// A random aggregate query over t(tid, item, val). Shapes cover every
// operator the LICM evaluator implements: selection, projection,
// intersection, join, mid-tree COUNT/SUM predicates, COUNT(*)/SUM heads.
QueryNodePtr MakeQuery(Rng* rng) {
  using namespace rel;
  QueryNodePtr base = Scan(kFuzzRelation);
  const CmpOp cmp3[] = {CmpOp::kGe, CmpOp::kLe, CmpOp::kEq};
  switch (rng->Uniform(8)) {
    case 0:
      return CountStar(Select(base, {{"item", CmpOp::kGe, Item(rng)}}));
    case 1:
      return CountStar(Project(
          Select(base, {{"item", CmpOp::kLe, Item(rng)}}), {"tid"}));
    case 2:
      // Transactions with (>=|<=|=) d selected items (Query-1 shape).
      return CountStar(CountPredicate(
          Select(base, {{"item", CmpOp::kNe, Item(rng)}}), "tid",
          cmp3[rng->Uniform(3)], rng->UniformInt(1, 3)));
    case 3:
      // Intersection of two COUNT predicates (Query-2 shape).
      return CountStar(Intersect(
          CountPredicate(
              Select(base, {{"item", CmpOp::kGe, Value(std::string("b"))}}),
              "tid", CmpOp::kGe, rng->UniformInt(1, 2)),
          CountPredicate(
              Select(base, {{"item", CmpOp::kLe, Value(std::string("d"))}}),
              "tid", CmpOp::kGe, 1)));
    case 4:
      // Join shape (Query-3 flavour): transactions sharing an item with a
      // popular item set.
      return CountStar(Project(
          Join(base,
               CountPredicate(base, "item", CmpOp::kGe,
                              rng->UniformInt(1, 2)),
               {{"item", "item"}}),
          {"tid"}));
    case 5:
      return Sum(Select(base, {{"item", CmpOp::kGe, Item(rng)}}), "val");
    case 6:
      // SUM over the surviving group keys of a COUNT predicate.
      return Sum(CountPredicate(base, "tid", cmp3[rng->Uniform(3)],
                                rng->UniformInt(1, 3)),
                 "tid");
    default:
      // Mid-tree SUM predicate (weighted Algorithm 4).
      return CountStar(SumPredicate(base, "tid", "val",
                                    cmp3[rng->Uniform(3)],
                                    rng->UniformInt(2, 12)));
  }
}

}  // namespace

FuzzCase GenerateCase(uint64_t seed, const GeneratorOptions& options) {
  Rng rng(seed);
  FuzzCase out;
  out.seed = seed;
  std::vector<BVar> vars;
  LicmRelation r = MakeRelation(&rng, options, &out.db, &vars);
  MaybeAddPermutationBlock(&rng, options, &out.db, &r);
  AddRandomConstraints(&rng, options, &out.db, vars);
  out.num_base_vars = out.db.pool().size();
  LICM_CHECK_OK(out.db.AddRelation(kFuzzRelation, std::move(r)));
  out.query = MakeQuery(&rng);
  // One case in eight (chosen by seed, drawn last, so every other case is
  // unchanged) also gets a cardinality row no world satisfies: more of a
  // random subset of the tuple variables present than the subset holds.
  // Every feasibility check over rows that include it — the pruned
  // remainder when the query does not reach the subset — must then say
  // infeasible, which a witness that reports a world without verifying
  // it gets wrong.
  if (seed % 8 == 0 && !vars.empty()) {
    std::vector<BVar> subset;
    for (BVar v : vars) {
      if (rng.Bernoulli(0.5)) subset.push_back(v);
    }
    if (subset.empty()) subset.push_back(vars[rng.Uniform(vars.size())]);
    const auto n = static_cast<int64_t>(subset.size());
    out.db.constraints().AddCardinality(subset, n + 1, n + 1);
  }
  return out;
}

}  // namespace licm::testing
