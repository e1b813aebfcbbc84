#include "licm/evaluator.h"

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "licm/columnar_ops.h"

#include <string>
#include <vector>

namespace licm {

namespace {

// Batch-path totals, flushed once per aggregate answer (DESIGN.md §12):
// base-relation rows the scans borrowed, lineage constraints the
// evaluation appended, and arena bytes the batch views consumed.
void RecordQueryMetrics(size_t rows_scanned, size_t constraints_emitted,
                        size_t arena_bytes) {
  auto& reg = metrics::MetricsRegistry::Default();
  const metrics::Labels labels{{"engine", "columnar"}};
  reg.GetCounter("licm_query_rows_scanned_total", labels)
      ->Increment(static_cast<int64_t>(rows_scanned));
  reg.GetCounter("licm_query_constraints_emitted_total", labels)
      ->Increment(static_cast<int64_t>(constraints_emitted));
  if (arena_bytes > 0) {
    reg.GetCounter("licm_query_arena_bytes_total", labels)
        ->Increment(static_cast<int64_t>(arena_bytes));
  }
}

// The input column of an aggregate root in `schema`: the numeric
// `sum_column` of SUM/MIN/MAX, or kCountColumn for COUNT(*).
Result<size_t> AggregateColumn(const rel::QueryNode& query,
                               const rel::Schema& schema) {
  if (query.kind == rel::QueryKind::kCountStar) return kCountColumn;
  LICM_ASSIGN_OR_RETURN(size_t col, schema.IndexOf(query.sum_column));
  if (schema.column(col).type == rel::ValueType::kString) {
    return Status::InvalidArgument(
        std::string(query.kind == rel::QueryKind::kSum ? "SUM" : "MIN/MAX") +
        " over string column '" + query.sum_column + "'");
  }
  return col;
}

}  // namespace

Result<AggregateAnswer> AnswerAggregate(const rel::QueryNode& query,
                                        LicmDatabase db,
                                        const AnswerOptions& options) {
  if (!rel::IsAggregate(query)) {
    return Status::InvalidArgument(
        "AnswerAggregate requires kCountStar or kSum at the root");
  }
  StopWatch watch;
  const size_t cons_before = db.constraints().size();

  telemetry::ScopedSpan eval_span("licm", "query_eval");
  // The columnar context (arena, dictionary) lives until the answer
  // returns on purpose: freed before the solve, its large blocks get split
  // by the solver's small allocations, and the next answer's operators
  // fault in fresh pages. The scans themselves copy nothing: they borrow
  // the base relations' columns, which `db` shares with the caller.
  ColumnarLicmContext ctx(OpContext{&db.pool(), &db.constraints()});
  LICM_ASSIGN_OR_RETURN(LicmBatch result,
                        EvaluateLicmBatch(*query.left, &db, &ctx));
  // Aggregates count each distinct tuple once per world.
  LICM_ASSIGN_OR_RETURN(result, MergeDuplicatesBatch(result, &ctx));
  LICM_ASSIGN_OR_RETURN(size_t col, AggregateColumn(query, result.view.schema));
  const size_t arena_bytes = ctx.arena.bytes_allocated();
  // One (value, Ext) pair per merged tuple, in result order.
  std::vector<double> values;
  std::vector<Ext> exts;
  NumericColumnBatch(result, col, &ctx, &values, &exts);
  eval_span.End();
  RecordQueryMetrics(ctx.rows_scanned, db.constraints().size() - cons_before,
                     arena_bytes);
  telemetry::ScopedSpan solve_span("licm", "solve");

  AggregateAnswer out;
  const bool minmax = query.kind == rel::QueryKind::kMin ||
                      query.kind == rel::QueryKind::kMax;
  Objective obj;
  if (!minmax) obj = LinearObjective(values, exts);
  out.vars_at_query = db.pool().size();
  out.constraints_at_query = db.constraints().size();
  out.query_ms = watch.ElapsedMs();

  watch.Restart();
  if (minmax) {
    LICM_ASSIGN_OR_RETURN(
        out.minmax,
        ComputeMinMaxBounds(values, exts, db.constraints(),
                            db.pool().size(),
                            query.kind == rel::QueryKind::kMax,
                            options.bounds));
    out.is_minmax = true;
    out.bounds.min.value = out.bounds.min.proved = out.minmax.lo;
    out.bounds.min.exact = out.minmax.exact_lo;
    out.bounds.max.value = out.bounds.max.proved = out.minmax.hi;
    out.bounds.max.exact = out.minmax.exact_hi;
    out.bounds.stats = out.minmax.stats;
  } else {
    LICM_ASSIGN_OR_RETURN(
        out.bounds,
        ComputeBounds(obj, db.constraints(), db.pool().size(),
                      options.bounds));
  }
  out.solve_ms = watch.ElapsedMs();
  return out;
}

}  // namespace licm
