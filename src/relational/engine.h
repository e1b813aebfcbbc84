// Deterministic evaluation of query trees over certain relations.
//
// This engine plays two roles in the reproduction: (i) it is the
// "traditional DBMS" that the Monte-Carlo baseline runs each sampled
// possible world through (the paper used SQL Server for this), and (ii) it
// is the ground-truth oracle the tests compare the LICM evaluator against
// by enumerating all possible worlds.
//
// All operators use set semantics, per the paper's relational-algebra
// setting: base relations are deduplicated on scan, projection/intersection
// deduplicate their outputs.
#ifndef LICM_RELATIONAL_ENGINE_H_
#define LICM_RELATIONAL_ENGINE_H_

#include <unordered_map>

#include "relational/query.h"
#include "relational/relation.h"

namespace licm::rel {

/// A named collection of certain relations (one possible world).
class Database {
 public:
  Status Add(std::string name, Relation relation);
  Result<const Relation*> Get(const std::string& name) const;
  bool Has(const std::string& name) const { return map_.contains(name); }

 private:
  std::unordered_map<std::string, Relation> map_;
};

/// Which physical deterministic evaluator executes the query tree. Both
/// produce bit-identical relations (same rows, same order); kColumnar is
/// the production engine, kRow the reference the ColumnarRelationalDiff
/// tests compare it against. The LICM evaluator has no such switch: its
/// one operator implementation is licm/columnar_ops.h.
enum class EvalEngine { kColumnar, kRow };

/// Evaluates a non-aggregate query tree to a relation.
Result<Relation> Evaluate(const QueryNode& node, const Database& db,
                          EvalEngine engine = EvalEngine::kColumnar);

/// Evaluates a tree rooted at a kCountStar / kSum / kMin / kMax aggregate
/// to a scalar.
Result<double> EvaluateAggregate(const QueryNode& node, const Database& db,
                                 EvalEngine engine = EvalEngine::kColumnar);

/// Columnar entry points (columnar_engine.cc); the wrappers above
/// dispatch here by default.
Result<Relation> EvaluateColumnar(const QueryNode& node, const Database& db);
Result<double> EvaluateAggregateColumnar(const QueryNode& node,
                                         const Database& db);

/// Output schema of Product/Join column naming (shared with the LICM
/// operators, whose results must instantiate to this engine's relations).
Schema ProductSchema(const Schema& left, const Schema& right);
Schema JoinSchema(const Schema& left, const Schema& right,
                  const std::vector<std::pair<std::string, std::string>>& on);

}  // namespace licm::rel

#endif  // LICM_RELATIONAL_ENGINE_H_
