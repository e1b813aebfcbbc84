// LICM aggregate answering: evaluates the same logical query trees as the
// deterministic engine, but over LICM relations (columnar_ops.h), producing
// constraints that encode the answer in every possible world (Section IV),
// and answers the aggregate root with exact bounds (Section IV-D).
#ifndef LICM_LICM_EVALUATOR_H_
#define LICM_LICM_EVALUATOR_H_

#include "licm/aggregate.h"
#include "licm/licm_relation.h"
#include "relational/query.h"

namespace licm {

struct AnswerOptions {
  BoundsOptions bounds;
};

/// Full answer to an aggregate query, with the phase instrumentation the
/// paper reports (L-query / L-solve timings, Figure 7 problem sizes).
struct AggregateAnswer {
  AggregateBounds bounds;

  /// Set for MIN/MAX roots: the full case-analysis result (bounds.min/max
  /// mirror lo/hi for uniform consumption; emptiness flags live here).
  bool is_minmax = false;
  MinMaxBounds minmax;

  /// Problem size right after query processing (Figure 7 "Querying").
  size_t vars_at_query = 0;
  size_t constraints_at_query = 0;

  double query_ms = 0.0;  // operator evaluation (L-query)
  double solve_ms = 0.0;  // both BIP solves (L-solve)
};

/// Answers a query tree rooted at kCountStar or kSum: runs the operator
/// pipeline, formulates the BIP, and computes exact (or time-limited)
/// lower/upper bounds. `db` is taken by value: evaluation appends derived
/// variables and constraints that the caller's database should not keep.
/// The copy shares the caller's relations (LicmDatabase copies share them),
/// so it costs the variable pool and the constraint set, not the tuples;
/// each scan then borrows its relation's columns in place, and only a
/// relation holding duplicate tuples is OR-merged on the way in.
Result<AggregateAnswer> AnswerAggregate(const rel::QueryNode& query,
                                        LicmDatabase db,
                                        const AnswerOptions& options = {});

}  // namespace licm

#endif  // LICM_LICM_EVALUATOR_H_
