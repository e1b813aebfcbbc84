// Test helper for the LICM operator tests: runs a query tree through the
// batch operators the way AnswerAggregate does (EvaluateLicmBatch, then
// MergeDuplicatesBatch) and materializes the result, so tests can assert
// on tuples, Ext attributes and the lineage appended to the database.
#ifndef LICM_TESTS_LICM_EVAL_HELPER_H_
#define LICM_TESTS_LICM_EVAL_HELPER_H_

#include "licm/columnar_ops.h"

namespace licm {

/// Evaluates the non-aggregate tree `node` over `db`, appending its lineage
/// variables and constraints to `db`, and returns the merged result in
/// row order.
inline Result<LicmRelation> EvaluateToRelation(const rel::QueryNode& node,
                                               LicmDatabase* db) {
  ColumnarLicmContext ctx(OpContext{&db->pool(), &db->constraints()});
  LICM_ASSIGN_OR_RETURN(LicmBatch out, EvaluateLicmBatch(node, db, &ctx));
  LICM_ASSIGN_OR_RETURN(out, MergeDuplicatesBatch(out, &ctx));
  return BatchToLicmRelation(out, &ctx);
}

}  // namespace licm

#endif  // LICM_TESTS_LICM_EVAL_HELPER_H_
