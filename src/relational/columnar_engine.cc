// Columnar batch evaluator. Mirrors the row engine operator by operator —
// same schemas, same row order, same error statuses — but executes over
// typed column spans, selection bitmaps and one per-query arena. The row
// order invariant (the active rows of every batch, in ascending physical
// order, equal the row engine's output rows in order) is what the
// differential tests assert and what keeps the LICM layer's variable
// allocation identical across engines.
#include <algorithm>
#include <memory>
#include <numeric>

#include "common/metrics.h"
#include "relational/columnar_engine.h"

namespace licm::rel {

namespace {

// Deterministic batch-engine totals, flushed once per evaluated query:
// base rows through the operator pipeline and arena bytes consumed.
void RecordBatchMetrics(size_t rows_scanned, size_t arena_bytes) {
  auto& reg = licm::metrics::MetricsRegistry::Default();
  static licm::metrics::Counter* rows = reg.GetCounter(
      "licm_query_rows_scanned_total", {{"engine", "deterministic"}});
  static licm::metrics::Counter* bytes = reg.GetCounter(
      "licm_query_arena_bytes_total", {{"engine", "deterministic"}});
  rows->Increment(static_cast<int64_t>(rows_scanned));
  bytes->Increment(static_cast<int64_t>(arena_bytes));
}

}  // namespace

Status AndPredicateBits(const BatchView& in, size_t column_index,
                        const Predicate& pred, const StringDictionary& dict,
                        Arena* arena, uint64_t* dst) {
  const ValueType col_type = in.schema.column(column_index).type;
  const ValueType operand_type = TypeOf(pred.operand);
  // Mirror Value::Compare: string and non-string never meet.
  LICM_CHECK((col_type == ValueType::kString) ==
             (operand_type == ValueType::kString));
  uint64_t* bits = arena->AllocArray<uint64_t>(BitmapWords(in.rows));
  const ColSpan& col = in.cols[column_index];
  switch (col_type) {
    case ValueType::kInt:
      if (operand_type == ValueType::kInt) {
        CompareBitsI64(col.i64, in.rows, pred.op,
                       std::get<int64_t>(pred.operand), bits);
      } else {
        CompareBitsI64AsF64(col.i64, in.rows, pred.op,
                            std::get<double>(pred.operand), bits);
      }
      break;
    case ValueType::kDouble: {
      const double operand =
          operand_type == ValueType::kInt
              ? static_cast<double>(std::get<int64_t>(pred.operand))
              : std::get<double>(pred.operand);
      CompareBitsF64(col.f64, in.rows, pred.op, operand, bits);
      break;
    }
    case ValueType::kString: {
      // One CmpApply per distinct string, not per row.
      uint8_t* table = arena->AllocArray<uint8_t>(dict.size());
      for (size_t id = 0; id < dict.size(); ++id) {
        table[id] = CmpApply(pred.op, Value(dict.str(static_cast<int64_t>(id))),
                             pred.operand)
                        ? 1
                        : 0;
      }
      CompareBitsTable(col.i64, in.rows, table, bits);
      break;
    }
  }
  BitmapAnd(dst, bits, in.rows);
  return Status::OK();
}

uint64_t* CopySelection(const BatchView& view, Arena* arena) {
  const size_t words = BitmapWords(view.rows);
  uint64_t* out = arena->AllocArray<uint64_t>(words);
  if (view.sel != nullptr) {
    for (size_t w = 0; w < words; ++w) out[w] = view.sel[w];
  } else {
    for (size_t w = 0; w < words; ++w) out[w] = ~uint64_t{0};
    const size_t rem = view.rows & 63;
    if (rem != 0) out[words - 1] = (uint64_t{1} << rem) - 1;
  }
  return out;
}

void DeduplicateBatch(BatchView* view, Arena* arena) {
  std::vector<size_t> all_cols(view->schema.size());
  std::iota(all_cols.begin(), all_cols.end(), size_t{0});
  const Grouping g = GroupBy(*view, all_cols, arena);
  if (g.num_groups == g.n) return;  // already a set
  uint64_t* sel = AllocBitmap(view->rows, arena);
  for (uint32_t gid = 0; gid < g.num_groups; ++gid) {
    BitmapSet(sel, g.rep_row[gid]);
  }
  view->sel = sel;
  view->active = g.num_groups;
}

Relation BatchToRelation(const BatchView& view, const StringDictionary& dict,
                         Arena* arena) {
  Relation out(view.schema);
  out.Reserve(view.active);
  const uint32_t* rows = ActiveRows(view, arena);
  const size_t num_cols = view.schema.size();
  for (size_t i = 0; i < view.active; ++i) {
    const uint32_t row = rows[i];
    Tuple t(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      switch (view.schema.column(c).type) {
        case ValueType::kInt: t[c] = view.cols[c].i64[row]; break;
        case ValueType::kDouble: t[c] = view.cols[c].f64[row]; break;
        case ValueType::kString: t[c] = dict.str(view.cols[c].i64[row]); break;
      }
    }
    out.AppendUnchecked(std::move(t));
  }
  return out;
}

namespace {

// Per-evaluation state: the arena owning every transient buffer, the
// string dictionary interning every string seen by the query, and the
// converted base tables (whose vectors back the leaf column spans).
struct Ctx {
  explicit Ctx(const Database& database) : db(database) {}

  const Database& db;
  Arena arena;
  StringDictionary dict;
  std::vector<std::unique_ptr<ColumnTable>> base_tables;
};

Result<BatchView> EvalNode(const QueryNode& node, Ctx* ctx);

Result<BatchView> EvalScan(const QueryNode& node, Ctx* ctx) {
  LICM_ASSIGN_OR_RETURN(const Relation* r, ctx->db.Get(node.relation_name));
  ctx->base_tables.push_back(
      std::make_unique<ColumnTable>(ColumnTable::FromRows(*r, &ctx->dict)));
  BatchView v = TableView(*ctx->base_tables.back());
  DeduplicateBatch(&v, &ctx->arena);  // scans deduplicate (set semantics)
  return v;
}

Result<BatchView> EvalSelect(const QueryNode& node, Ctx* ctx) {
  LICM_ASSIGN_OR_RETURN(BatchView in, EvalNode(*node.left, ctx));
  uint64_t* sel = CopySelection(in, &ctx->arena);
  for (const Predicate& p : node.predicates) {
    LICM_ASSIGN_OR_RETURN(size_t idx, in.schema.IndexOf(p.column));
    LICM_RETURN_NOT_OK(
        AndPredicateBits(in, idx, p, ctx->dict, &ctx->arena, sel));
  }
  BatchView out = in;
  out.sel = sel;
  out.active = BitmapCount(sel, out.rows);
  return out;
}

Result<BatchView> EvalProject(const QueryNode& node, Ctx* ctx) {
  LICM_ASSIGN_OR_RETURN(BatchView in, EvalNode(*node.left, ctx));
  std::vector<Column> cols(node.columns.size());
  BatchView out;
  out.rows = in.rows;
  out.sel = in.sel;
  out.active = in.active;
  out.cols.reserve(node.columns.size());
  for (size_t i = 0; i < node.columns.size(); ++i) {
    LICM_ASSIGN_OR_RETURN(size_t idx, in.schema.IndexOf(node.columns[i]));
    cols[i] = in.schema.column(idx);
    out.cols.push_back(in.cols[idx]);  // zero-copy: reuse the spans
  }
  out.schema = Schema(std::move(cols));
  DeduplicateBatch(&out, &ctx->arena);
  return out;
}

Result<BatchView> EvalIntersect(const QueryNode& node, Ctx* ctx) {
  LICM_ASSIGN_OR_RETURN(BatchView l, EvalNode(*node.left, ctx));
  LICM_ASSIGN_OR_RETURN(BatchView r, EvalNode(*node.right, ctx));
  if (!(l.schema == r.schema)) {
    return Status::InvalidArgument("intersect schema mismatch: " +
                                   l.schema.ToString() + " vs " +
                                   r.schema.ToString());
  }
  std::vector<size_t> all_cols(l.schema.size());
  std::iota(all_cols.begin(), all_cols.end(), size_t{0});
  const RowHashIndex index(r, all_cols, &ctx->arena);
  uint64_t* sel = AllocBitmap(l.rows, &ctx->arena);
  const uint32_t* lrows = ActiveRows(l, &ctx->arena);
  size_t kept = 0;
  for (size_t i = 0; i < l.active; ++i) {
    if (index.Find(l, all_cols, lrows[i]) != RowHashIndex::kNone) {
      BitmapSet(sel, lrows[i]);
      ++kept;
    }
  }
  BatchView out = l;
  out.sel = sel;
  out.active = kept;
  DeduplicateBatch(&out, &ctx->arena);
  return out;
}

Result<BatchView> EvalProduct(const QueryNode& node, Ctx* ctx) {
  LICM_ASSIGN_OR_RETURN(BatchView l, EvalNode(*node.left, ctx));
  LICM_ASSIGN_OR_RETURN(BatchView r, EvalNode(*node.right, ctx));
  const uint32_t* lrows = ActiveRows(l, &ctx->arena);
  const uint32_t* rrows = ActiveRows(r, &ctx->arena);
  const size_t n = l.active * r.active;
  // Left-major output order: physical row i*|R|+j pairs left row i with
  // right row j, matching the row engine's nested loop.
  uint32_t* lsrc = ctx->arena.AllocArray<uint32_t>(n);
  uint32_t* rsrc = ctx->arena.AllocArray<uint32_t>(n);
  size_t k = 0;
  for (size_t i = 0; i < l.active; ++i) {
    for (size_t j = 0; j < r.active; ++j, ++k) {
      lsrc[k] = lrows[i];
      rsrc[k] = rrows[j];
    }
  }
  BatchView out;
  out.schema = ProductSchema(l.schema, r.schema);
  out.rows = n;
  out.active = n;
  out.cols.reserve(l.schema.size() + r.schema.size());
  for (size_t c = 0; c < l.schema.size(); ++c) {
    out.cols.push_back(GatherColumn(l, c, lsrc, n, &ctx->arena));
  }
  for (size_t c = 0; c < r.schema.size(); ++c) {
    out.cols.push_back(GatherColumn(r, c, rsrc, n, &ctx->arena));
  }
  return out;  // product does not deduplicate (matches the row engine)
}

Result<BatchView> EvalJoin(const QueryNode& node, Ctx* ctx) {
  LICM_ASSIGN_OR_RETURN(BatchView l, EvalNode(*node.left, ctx));
  LICM_ASSIGN_OR_RETURN(BatchView r, EvalNode(*node.right, ctx));
  if (node.join_on.empty()) {
    return Status::InvalidArgument("join requires at least one key pair");
  }
  std::vector<size_t> lkeys, rkeys;
  for (const auto& [ln, rn] : node.join_on) {
    LICM_ASSIGN_OR_RETURN(size_t li, l.schema.IndexOf(ln));
    LICM_ASSIGN_OR_RETURN(size_t ri, r.schema.IndexOf(rn));
    lkeys.push_back(li);
    rkeys.push_back(ri);
  }
  const RowHashIndex index(r, rkeys, &ctx->arena);
  const Grouping& rg = index.grouping();

  // Probe once, remembering each left row's matching right group; runs are
  // ascending right rows, matching the row engine's bucket order.
  const uint32_t* lrows = ActiveRows(l, &ctx->arena);
  uint32_t* match = ctx->arena.AllocArray<uint32_t>(l.active);
  size_t total = 0;
  for (size_t i = 0; i < l.active; ++i) {
    const uint32_t gid = index.Find(l, lkeys, lrows[i]);
    match[i] = gid;
    if (gid != RowHashIndex::kNone) {
      total += rg.run_begin[gid + 1] - rg.run_begin[gid];
    }
  }
  uint32_t* lsrc = ctx->arena.AllocArray<uint32_t>(total);
  uint32_t* rsrc = ctx->arena.AllocArray<uint32_t>(total);
  size_t k = 0;
  for (size_t i = 0; i < l.active; ++i) {
    const uint32_t gid = match[i];
    if (gid == RowHashIndex::kNone) continue;
    for (uint32_t p = rg.run_begin[gid]; p < rg.run_begin[gid + 1]; ++p) {
      lsrc[k] = lrows[i];
      rsrc[k] = rg.run_rows[p];
      ++k;
    }
  }

  // Right key columns are dropped by index, like the row engine.
  std::vector<bool> rdrop(r.schema.size(), false);
  for (const size_t ri : rkeys) rdrop[ri] = true;
  BatchView out;
  out.schema = JoinSchema(l.schema, r.schema, node.join_on);
  out.rows = total;
  out.active = total;
  for (size_t c = 0; c < l.schema.size(); ++c) {
    out.cols.push_back(GatherColumn(l, c, lsrc, total, &ctx->arena));
  }
  for (size_t c = 0; c < r.schema.size(); ++c) {
    if (rdrop[c]) continue;
    out.cols.push_back(GatherColumn(r, c, rsrc, total, &ctx->arena));
  }
  LICM_CHECK(out.cols.size() == out.schema.size());
  DeduplicateBatch(&out, &ctx->arena);
  return out;
}

// Shared grouping body of Count/SumPredicate: dedup, group by the group
// column, emit qualifying group representatives in first-seen order.
Result<BatchView> EvalGroupPredicate(const QueryNode& node, Ctx* ctx) {
  LICM_ASSIGN_OR_RETURN(BatchView in, EvalNode(*node.left, ctx));
  LICM_ASSIGN_OR_RETURN(size_t gidx, in.schema.IndexOf(node.group_column));
  const bool weighted = node.kind == QueryKind::kSumPredicate;
  size_t vidx = 0;
  if (weighted) {
    LICM_ASSIGN_OR_RETURN(vidx, in.schema.IndexOf(node.sum_column));
    if (in.schema.column(vidx).type != ValueType::kInt) {
      return Status::InvalidArgument(
          "SUM predicate needs an int column, got " +
          std::string(TypeName(in.schema.column(vidx).type)));
    }
  }
  DeduplicateBatch(&in, &ctx->arena);
  const Grouping g = GroupBy(in, {gidx}, &ctx->arena);

  // Group totals from contiguous runs: counts are run lengths, sums one
  // pass over the weight column.
  std::vector<int64_t> totals(g.num_groups);
  for (uint32_t gid = 0; gid < g.num_groups; ++gid) {
    if (!weighted) {
      totals[gid] = g.run_begin[gid + 1] - g.run_begin[gid];
      continue;
    }
    int64_t sum = 0;
    for (uint32_t p = g.run_begin[gid]; p < g.run_begin[gid + 1]; ++p) {
      const int64_t w = in.cols[vidx].i64[g.run_rows[p]];
      if (w < 0) {
        return Status::Unimplemented("SUM predicate requires non-negative "
                                     "values");
      }
      sum += w;
    }
    totals[gid] = sum;
  }

  const Column gcol = in.schema.column(gidx);
  BatchView out;
  out.schema = Schema({gcol});
  out.cols.resize(1);
  if (gcol.type == ValueType::kDouble) {
    double* data = ctx->arena.AllocArray<double>(g.num_groups);
    size_t n = 0;
    for (uint32_t gid = 0; gid < g.num_groups; ++gid) {
      if (CmpApply(node.count_op, Value(totals[gid]), Value(node.count_d))) {
        data[n++] = in.cols[gidx].f64[g.rep_row[gid]];
      }
    }
    out.cols[0].f64 = data;
    out.rows = out.active = n;
  } else {
    int64_t* data = ctx->arena.AllocArray<int64_t>(g.num_groups);
    size_t n = 0;
    for (uint32_t gid = 0; gid < g.num_groups; ++gid) {
      if (CmpApply(node.count_op, Value(totals[gid]), Value(node.count_d))) {
        data[n++] = in.cols[gidx].i64[g.rep_row[gid]];
      }
    }
    out.cols[0].i64 = data;
    out.rows = out.active = n;
  }
  return out;
}

Result<BatchView> EvalNode(const QueryNode& node, Ctx* ctx) {
  switch (node.kind) {
    case QueryKind::kScan: return EvalScan(node, ctx);
    case QueryKind::kSelect: return EvalSelect(node, ctx);
    case QueryKind::kProject: return EvalProject(node, ctx);
    case QueryKind::kIntersect: return EvalIntersect(node, ctx);
    case QueryKind::kProduct: return EvalProduct(node, ctx);
    case QueryKind::kJoin: return EvalJoin(node, ctx);
    case QueryKind::kCountPredicate:
    case QueryKind::kSumPredicate:
      return EvalGroupPredicate(node, ctx);
    case QueryKind::kCountStar:
    case QueryKind::kSum:
    case QueryKind::kMin:
    case QueryKind::kMax:
      return Status::InvalidArgument(
          "aggregate root: use EvaluateAggregate()");
  }
  return Status::Internal("unknown query kind");
}

}  // namespace

namespace {

// Flushes the per-query totals when the evaluation scope unwinds, so
// every exit path (including error statuses) is counted once.
struct BatchMetricsScope {
  const Ctx& ctx;
  ~BatchMetricsScope() {
    size_t rows = 0;
    for (const auto& t : ctx.base_tables) rows += t->num_rows();
    RecordBatchMetrics(rows, ctx.arena.bytes_allocated());
  }
};

}  // namespace

Result<Relation> EvaluateColumnar(const QueryNode& node, const Database& db) {
  Ctx ctx(db);
  BatchMetricsScope metrics_scope{ctx};
  LICM_ASSIGN_OR_RETURN(BatchView out, EvalNode(node, &ctx));
  return BatchToRelation(out, ctx.dict, &ctx.arena);
}

Result<double> EvaluateAggregateColumnar(const QueryNode& node,
                                         const Database& db) {
  if (!IsAggregate(node)) {
    return Status::InvalidArgument("EvaluateAggregate requires kCountStar "
                                   "or kSum at the root");
  }
  Ctx ctx(db);
  BatchMetricsScope metrics_scope{ctx};
  LICM_ASSIGN_OR_RETURN(BatchView in, EvalNode(*node.left, &ctx));
  DeduplicateBatch(&in, &ctx.arena);
  if (node.kind == QueryKind::kCountStar) {
    return static_cast<double>(in.active);
  }
  LICM_ASSIGN_OR_RETURN(size_t idx, in.schema.IndexOf(node.sum_column));
  const ValueType t = in.schema.column(idx).type;
  if (t == ValueType::kString) {
    return Status::InvalidArgument("numeric aggregate over string column '" +
                                   node.sum_column + "'");
  }
  const uint32_t* rows = ActiveRows(in, &ctx.arena);
  auto numeric = [&](uint32_t row) {
    return t == ValueType::kInt ? static_cast<double>(in.cols[idx].i64[row])
                                : in.cols[idx].f64[row];
  };
  if (node.kind == QueryKind::kMin || node.kind == QueryKind::kMax) {
    if (in.active == 0) {
      return Status::InvalidArgument("MIN/MAX over an empty relation");
    }
    double best = numeric(rows[0]);
    for (size_t i = 0; i < in.active; ++i) {
      const double v = numeric(rows[i]);
      best = node.kind == QueryKind::kMin ? std::min(best, v)
                                          : std::max(best, v);
    }
    return best;
  }
  double sum = 0.0;
  for (size_t i = 0; i < in.active; ++i) sum += numeric(rows[i]);
  return sum;
}

}  // namespace licm::rel
