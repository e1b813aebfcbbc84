#include "licm/evaluator.h"

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "licm/columnar_ops.h"
#include "licm/ops.h"

#include <string>
#include <variant>
#include <vector>

namespace licm {

namespace {

// Batch-path totals, flushed once per aggregate answer (DESIGN.md §12):
// base-relation rows fed into the operator pipeline, lineage constraints
// the evaluation appended, and arena bytes the batch views consumed.
void RecordQueryMetrics(const char* engine, size_t rows_scanned,
                        size_t constraints_emitted, size_t arena_bytes) {
  auto& reg = metrics::MetricsRegistry::Default();
  const metrics::Labels labels{{"engine", engine}};
  reg.GetCounter("licm_query_rows_scanned_total", labels)
      ->Increment(static_cast<int64_t>(rows_scanned));
  reg.GetCounter("licm_query_constraints_emitted_total", labels)
      ->Increment(static_cast<int64_t>(constraints_emitted));
  if (arena_bytes > 0) {
    reg.GetCounter("licm_query_arena_bytes_total", labels)
        ->Increment(static_cast<int64_t>(arena_bytes));
  }
}

}  // namespace

Result<LicmRelation> EvaluateLicm(const rel::QueryNode& node,
                                  LicmDatabase* db) {
  OpContext ctx{&db->pool(), &db->constraints()};
  switch (node.kind) {
    case rel::QueryKind::kScan: {
      LICM_ASSIGN_OR_RETURN(const LicmRelation* r,
                            db->GetRelation(node.relation_name));
      // Set semantics on base relations, mirroring the deterministic
      // engine's dedup-on-scan.
      return MergeDuplicates(*r, ctx);
    }
    case rel::QueryKind::kSelect: {
      LICM_ASSIGN_OR_RETURN(LicmRelation in, EvaluateLicm(*node.left, db));
      return SelectOp(in, node.predicates);
    }
    case rel::QueryKind::kProject: {
      LICM_ASSIGN_OR_RETURN(LicmRelation in, EvaluateLicm(*node.left, db));
      return ProjectOp(in, node.columns, ctx);
    }
    case rel::QueryKind::kIntersect: {
      LICM_ASSIGN_OR_RETURN(LicmRelation l, EvaluateLicm(*node.left, db));
      LICM_ASSIGN_OR_RETURN(LicmRelation r, EvaluateLicm(*node.right, db));
      return IntersectOp(l, r, ctx);
    }
    case rel::QueryKind::kProduct: {
      LICM_ASSIGN_OR_RETURN(LicmRelation l, EvaluateLicm(*node.left, db));
      LICM_ASSIGN_OR_RETURN(LicmRelation r, EvaluateLicm(*node.right, db));
      return ProductOp(l, r, ctx);
    }
    case rel::QueryKind::kJoin: {
      LICM_ASSIGN_OR_RETURN(LicmRelation l, EvaluateLicm(*node.left, db));
      LICM_ASSIGN_OR_RETURN(LicmRelation r, EvaluateLicm(*node.right, db));
      return JoinOp(l, r, node.join_on, ctx);
    }
    case rel::QueryKind::kCountPredicate: {
      LICM_ASSIGN_OR_RETURN(LicmRelation in, EvaluateLicm(*node.left, db));
      return CountPredicateOp(in, node.group_column, node.count_op,
                              node.count_d, ctx);
    }
    case rel::QueryKind::kSumPredicate: {
      LICM_ASSIGN_OR_RETURN(LicmRelation in, EvaluateLicm(*node.left, db));
      return SumPredicateOp(in, node.group_column, node.sum_column,
                            node.count_op, node.count_d, ctx);
    }
    case rel::QueryKind::kCountStar:
    case rel::QueryKind::kSum:
    case rel::QueryKind::kMin:
    case rel::QueryKind::kMax:
      return Status::InvalidArgument(
          "aggregate root: use AnswerAggregate()");
  }
  return Status::Internal("unknown query kind");
}

namespace {

// The input column of an aggregate root in `schema`: the numeric
// `sum_column` of SUM/MIN/MAX, or kCountColumn for COUNT(*), which counts
// every tuple once.
constexpr size_t kCountColumn = static_cast<size_t>(-1);

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

// What an engine hands the shared answer tail: the merged result as one
// (value, Ext) pair per tuple, in result order, plus the engine's work
// counters for the query metrics.
struct EvaluatedColumn {
  std::vector<double> values;
  std::vector<Ext> exts;
  const char* engine = "";
  size_t rows_scanned = 0;
  size_t arena_bytes = 0;
};

Result<EvaluatedColumn> EvaluateColumnar(const rel::QueryNode& query,
                                         LicmDatabase* db,
                                         ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(LicmBatch result,
                        EvaluateLicmBatch(*query.left, db, ctx));
  // Aggregates count each distinct tuple once per world.
  LICM_ASSIGN_OR_RETURN(result, MergeDuplicatesBatch(result, ctx));
  LICM_ASSIGN_OR_RETURN(size_t col,
                        AggregateColumn(query, result.view.schema));
  EvaluatedColumn out;
  out.engine = "columnar";
  for (const auto& t : ctx->base_tables) out.rows_scanned += t->num_rows();
  out.arena_bytes = ctx->arena.bytes_allocated();
  if (col == kCountColumn) {
    const uint32_t* rows = rel::ActiveRows(result.view, &ctx->arena);
    out.exts.reserve(result.view.active);
    for (size_t i = 0; i < result.view.active; ++i) {
      out.exts.push_back(result.exts[rows[i]]);
    }
    out.values.assign(out.exts.size(), 1.0);
  } else {
    NumericColumnBatch(result, col, ctx, &out.values, &out.exts);
  }
  return out;
}

Result<EvaluatedColumn> EvaluateRow(const rel::QueryNode& query,
                                    LicmDatabase* db) {
  LICM_ASSIGN_OR_RETURN(LicmRelation result, EvaluateLicm(*query.left, db));
  OpContext ctx{&db->pool(), &db->constraints()};
  LICM_ASSIGN_OR_RETURN(result, MergeDuplicates(result, ctx));
  LICM_ASSIGN_OR_RETURN(size_t col, AggregateColumn(query, result.schema()));
  // The row path has no batch arena and does not track base-scan rows.
  EvaluatedColumn out;
  out.engine = "row";
  out.exts = result.exts();
  out.values.assign(result.size(), 1.0);
  if (col == kCountColumn) return out;
  for (size_t i = 0; i < result.size(); ++i) {
    const rel::Value& v = result.tuple(i)[col];
    out.values[i] = rel::TypeOf(v) == rel::ValueType::kInt
                        ? static_cast<double>(std::get<int64_t>(v))
                        : std::get<double>(v);
  }
  return out;
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

  // Both engines walk the merged result in the same row order, so the
  // objective sum (float-order-sensitive) and the MIN/MAX case analysis
  // below see identical inputs and the bounds match bit for bit.
  telemetry::ScopedSpan eval_span("licm", "query_eval");
  // The columnar context (arena, base-table copies) lives until the answer
  // returns on purpose: freed before the solve, its large blocks get split
  // by the solver's small allocations, and the next answer's scans fault in
  // fresh pages (about 30 % more paper-offline eval time).
  ColumnarLicmContext ctx(OpContext{&db.pool(), &db.constraints()});
  LICM_ASSIGN_OR_RETURN(EvaluatedColumn in,
                        options.engine == rel::EvalEngine::kColumnar
                            ? EvaluateColumnar(query, &db, &ctx)
                            : EvaluateRow(query, &db));
  eval_span.End();
  RecordQueryMetrics(in.engine, in.rows_scanned,
                     db.constraints().size() - cons_before, in.arena_bytes);
  telemetry::ScopedSpan solve_span("licm", "solve");

  AggregateAnswer out;
  const bool minmax = query.kind == rel::QueryKind::kMin ||
                      query.kind == rel::QueryKind::kMax;
  Objective obj;
  if (!minmax) obj = LinearObjective(in.values, in.exts);
  out.vars_at_query = db.pool().size();
  out.constraints_at_query = db.constraints().size();
  out.query_ms = watch.ElapsedMs();

  watch.Restart();
  if (minmax) {
    LICM_ASSIGN_OR_RETURN(
        out.minmax,
        ComputeMinMaxBounds(in.values, in.exts, db.constraints(),
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
