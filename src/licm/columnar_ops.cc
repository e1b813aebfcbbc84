#include "licm/columnar_ops.h"

#include <numeric>

#include "licm/lineage.h"
#include "relational/columnar_engine.h"
#include "relational/engine.h"

namespace licm {

namespace {

using rel::ActiveRows;
using rel::AllocBitmap;
using rel::BatchView;
using rel::BitmapSet;
using rel::GatherColumn;
using rel::Grouping;
using rel::RowHashIndex;

std::vector<size_t> AllColumns(const BatchView& view) {
  std::vector<size_t> all(view.schema.size());
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

// OR-merges the groups of identical active rows (all columns), replacing
// the selection with the group representatives: the body of projection
// with set semantics (Algorithm 1) and of MergeDuplicatesBatch. A group
// backed by a certain row is certain, a single-variable group reuses its
// variable (Example 7's optimization), and any other group gets a fresh
// OR-linked variable; groups go in first-seen order with members
// accumulated in row order. When the active rows are already distinct
// every group is a singleton, GroupOrExt returns each row's own Ext, and
// the input passes through untouched; a batch already marked distinct
// skips the grouping too.
LicmBatch OrMergeGroups(const LicmBatch& in, ColumnarLicmContext* ctx) {
  if (in.distinct) return in;
  const Grouping g = rel::GroupBy(in.view, AllColumns(in.view), &ctx->arena);
  LicmBatch out = in;
  out.distinct = true;
  if (g.num_groups == g.n) return out;
  Ext* exts = ctx->arena.AllocArray<Ext>(in.view.rows);
  uint64_t* sel = AllocBitmap(in.view.rows, &ctx->arena);
  for (uint32_t gid = 0; gid < g.num_groups; ++gid) {
    GroupExt ge;
    for (uint32_t p = g.run_begin[gid]; p < g.run_begin[gid + 1]; ++p) {
      Accumulate(&ge, in.exts[g.run_rows[p]]);
    }
    exts[g.rep_row[gid]] = GroupOrExt(ge, ctx->ops);
    BitmapSet(sel, g.rep_row[gid]);
  }
  out.view.sel = sel;
  out.view.active = g.num_groups;
  out.exts = exts;
  return out;
}

// Borrows the base relation's columns and Ext array in place. String
// columns are the exception: their ids are re-interned into the query's
// dictionary, each distinct string once.
Result<LicmBatch> ScanBatch(const rel::QueryNode& node, LicmDatabase* db,
                            ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(const LicmRelation* r,
                        db->GetRelation(node.relation_name));
  ctx->rows_scanned += r->size();
  LicmBatch b;
  b.view = rel::TableView(r->columns());
  b.exts = r->exts().data();
  std::vector<int64_t> query_id;  // relation dictionary id -> query id
  for (size_t c = 0; c < b.view.cols.size(); ++c) {
    if (b.view.schema.column(c).type != rel::ValueType::kString) continue;
    query_id.resize(r->dict().size(), -1);
    const int64_t* ids = b.view.cols[c].i64;
    int64_t* out = ctx->arena.AllocArray<int64_t>(r->size());
    for (size_t i = 0; i < r->size(); ++i) {
      int64_t& q = query_id[static_cast<size_t>(ids[i])];
      if (q < 0) q = ctx->dict.Intern(r->dict().str(ids[i]));
      out[i] = q;
    }
    b.view.cols[c].i64 = out;
  }
  // Set semantics on base relations, mirroring dedup-on-scan; a relation
  // known to be a set would pass through the merge unchanged.
  b.distinct = r->IsSet();
  return OrMergeGroups(b, ctx);
}

// Selection (Section IV-B): keeps tuples whose normal attributes satisfy
// the conjunctive predicates; constraints pass through untouched.
Result<LicmBatch> SelectBatch(const rel::QueryNode& node, LicmDatabase* db,
                              ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(LicmBatch in, EvaluateLicmBatch(*node.left, db, ctx));
  std::vector<size_t> idx(node.predicates.size());
  for (size_t i = 0; i < node.predicates.size(); ++i) {
    LICM_ASSIGN_OR_RETURN(idx[i],
                          in.view.schema.IndexOf(node.predicates[i].column));
  }
  uint64_t* sel = rel::CopySelection(in.view, &ctx->arena);
  for (size_t i = 0; i < node.predicates.size(); ++i) {
    LICM_RETURN_NOT_OK(rel::AndPredicateBits(in.view, idx[i],
                                             node.predicates[i], ctx->dict,
                                             &ctx->arena, sel));
  }
  LicmBatch out = in;
  out.view.sel = sel;
  out.view.active = rel::BitmapCount(sel, out.view.rows);
  return out;
}

Result<LicmBatch> ProjectBatch(const rel::QueryNode& node, LicmDatabase* db,
                               ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(LicmBatch in, EvaluateLicmBatch(*node.left, db, ctx));
  std::vector<rel::Column> cols(node.columns.size());
  LicmBatch mid;
  mid.view.rows = in.view.rows;
  mid.view.sel = in.view.sel;
  mid.view.active = in.view.active;
  mid.view.cols.reserve(node.columns.size());
  for (size_t i = 0; i < node.columns.size(); ++i) {
    LICM_ASSIGN_OR_RETURN(size_t idx, in.view.schema.IndexOf(node.columns[i]));
    cols[i] = in.view.schema.column(idx);
    mid.view.cols.push_back(in.view.cols[idx]);  // zero-copy
  }
  mid.view.schema = rel::Schema(std::move(cols));
  mid.exts = in.exts;
  return OrMergeGroups(mid, ctx);
}

// Intersection (Algorithm 2): tuples present in both inputs; existence is
// the AND of the inputs' existence.
Result<LicmBatch> IntersectBatch(const rel::QueryNode& node, LicmDatabase* db,
                                 ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(LicmBatch a, EvaluateLicmBatch(*node.left, db, ctx));
  LICM_ASSIGN_OR_RETURN(LicmBatch b, EvaluateLicmBatch(*node.right, db, ctx));
  if (!(a.view.schema == b.view.schema)) {
    return Status::InvalidArgument("intersect schema mismatch: " +
                                   a.view.schema.ToString() + " vs " +
                                   b.view.schema.ToString());
  }
  const LicmBatch l = OrMergeGroups(a, ctx);
  const LicmBatch r = OrMergeGroups(b, ctx);

  const std::vector<size_t> all = AllColumns(l.view);
  const RowHashIndex index(r.view, all, &ctx->arena);
  uint64_t* sel = AllocBitmap(l.view.rows, &ctx->arena);
  Ext* exts = ctx->arena.AllocArray<Ext>(l.view.rows);
  const uint32_t* lrows = ActiveRows(l.view, &ctx->arena);
  size_t kept = 0;
  for (size_t i = 0; i < l.view.active; ++i) {
    const uint32_t row = lrows[i];
    const uint32_t gid = index.Find(l.view, all, row);
    if (gid == RowHashIndex::kNone) continue;
    // The right side is merged, so each group is one active row.
    const uint32_t rrow = index.grouping().rep_row[gid];
    exts[row] = AndExt(l.exts[row], r.exts[rrow], ctx->ops);
    BitmapSet(sel, row);
    ++kept;
  }
  LicmBatch out = l;
  out.view.sel = sel;
  out.view.active = kept;
  out.exts = exts;
  return out;
}

// Cartesian product (Algorithm 3). Output schema follows rel::ProductSchema
// (clashing right columns get an "r_" prefix).
Result<LicmBatch> ProductBatch(const rel::QueryNode& node, LicmDatabase* db,
                               ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(LicmBatch a, EvaluateLicmBatch(*node.left, db, ctx));
  LICM_ASSIGN_OR_RETURN(LicmBatch b, EvaluateLicmBatch(*node.right, db, ctx));
  const LicmBatch l = OrMergeGroups(a, ctx);
  const LicmBatch r = OrMergeGroups(b, ctx);
  const uint32_t* lrows = ActiveRows(l.view, &ctx->arena);
  const uint32_t* rrows = ActiveRows(r.view, &ctx->arena);
  const size_t n = l.view.active * r.view.active;
  uint32_t* lsrc = ctx->arena.AllocArray<uint32_t>(n);
  uint32_t* rsrc = ctx->arena.AllocArray<uint32_t>(n);
  size_t k = 0;
  for (size_t i = 0; i < l.view.active; ++i) {
    for (size_t j = 0; j < r.view.active; ++j, ++k) {
      lsrc[k] = lrows[i];
      rsrc[k] = rrows[j];
    }
  }
  LicmBatch out;
  out.view.schema = rel::ProductSchema(l.view.schema, r.view.schema);
  out.view.rows = n;
  out.view.active = n;
  for (size_t c = 0; c < l.view.schema.size(); ++c) {
    out.view.cols.push_back(GatherColumn(l.view, c, lsrc, n, &ctx->arena));
  }
  for (size_t c = 0; c < r.view.schema.size(); ++c) {
    out.view.cols.push_back(GatherColumn(r.view, c, rsrc, n, &ctx->arena));
  }
  Ext* exts = ctx->arena.AllocArray<Ext>(n);
  for (size_t p = 0; p < n; ++p) {
    exts[p] = AndExt(l.exts[lsrc[p]], r.exts[rsrc[p]], ctx->ops);
  }
  out.exts = exts;
  out.distinct = true;  // pairs of rows of two sets
  return out;
}

// Equi-join: product restricted to key-equal pairs, dropping the right key
// columns (the paper builds join from product + selection + projection;
// this fuses them). Output schema follows rel::JoinSchema.
Result<LicmBatch> JoinBatch(const rel::QueryNode& node, LicmDatabase* db,
                            ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(LicmBatch a, EvaluateLicmBatch(*node.left, db, ctx));
  LICM_ASSIGN_OR_RETURN(LicmBatch b, EvaluateLicmBatch(*node.right, db, ctx));
  if (node.join_on.empty()) {
    return Status::InvalidArgument("join requires at least one key pair");
  }
  const LicmBatch l = OrMergeGroups(a, ctx);
  const LicmBatch r = OrMergeGroups(b, ctx);

  std::vector<size_t> lkeys, rkeys;
  for (const auto& [ln, rn] : node.join_on) {
    LICM_ASSIGN_OR_RETURN(size_t li, l.view.schema.IndexOf(ln));
    LICM_ASSIGN_OR_RETURN(size_t ri, r.view.schema.IndexOf(rn));
    lkeys.push_back(li);
    rkeys.push_back(ri);
  }
  const RowHashIndex index(r.view, rkeys, &ctx->arena);
  const Grouping& rg = index.grouping();

  const uint32_t* lrows = ActiveRows(l.view, &ctx->arena);
  uint32_t* match = ctx->arena.AllocArray<uint32_t>(l.view.active);
  size_t total = 0;
  for (size_t i = 0; i < l.view.active; ++i) {
    const uint32_t gid = index.Find(l.view, lkeys, lrows[i]);
    match[i] = gid;
    if (gid != RowHashIndex::kNone) {
      total += rg.run_begin[gid + 1] - rg.run_begin[gid];
    }
  }
  uint32_t* lsrc = ctx->arena.AllocArray<uint32_t>(total);
  uint32_t* rsrc = ctx->arena.AllocArray<uint32_t>(total);
  size_t k = 0;
  for (size_t i = 0; i < l.view.active; ++i) {
    const uint32_t gid = match[i];
    if (gid == RowHashIndex::kNone) continue;
    for (uint32_t p = rg.run_begin[gid]; p < rg.run_begin[gid + 1]; ++p) {
      lsrc[k] = lrows[i];
      rsrc[k] = rg.run_rows[p];
      ++k;
    }
  }

  std::vector<bool> rdrop(r.view.schema.size(), false);
  for (const size_t ri : rkeys) rdrop[ri] = true;
  LicmBatch out;
  out.view.schema = rel::JoinSchema(l.view.schema, r.view.schema,
                                    node.join_on);
  out.view.rows = total;
  out.view.active = total;
  for (size_t c = 0; c < l.view.schema.size(); ++c) {
    out.view.cols.push_back(GatherColumn(l.view, c, lsrc, total, &ctx->arena));
  }
  for (size_t c = 0; c < r.view.schema.size(); ++c) {
    if (rdrop[c]) continue;
    out.view.cols.push_back(GatherColumn(r.view, c, rsrc, total, &ctx->arena));
  }
  LICM_CHECK(out.view.cols.size() == out.view.schema.size());
  Ext* exts = ctx->arena.AllocArray<Ext>(total);
  for (size_t p = 0; p < total; ++p) {
    exts[p] = AndExt(l.exts[lsrc[p]], r.exts[rsrc[p]], ctx->ops);
  }
  out.exts = exts;
  // Distinct, since both inputs are sets: the dropped right key columns
  // equal the left row's keys, so two equal output rows would come from
  // the same left row and equal right rows, i.e. the same pair.
  out.distinct = true;
  return out;
}

// Mid-tree group predicate over the already-merged input: Algorithm 4 per
// contiguous group run, weighting each tuple by 1 (COUNT) or by its value
// in column `vidx` (SUM), and emitting the group values that can satisfy
// `op d` in some world, in first-seen order. Supports <=, <, >=, >, and =
// (the AND of <= and >=).
Result<LicmBatch> GroupPredicateBatch(const LicmBatch& merged, size_t gidx,
                                      size_t vidx, bool weighted,
                                      rel::CmpOp op, int64_t d,
                                      ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(CountOpSides sides, NormalizeCountOp(op, d));

  const Grouping g = rel::GroupBy(merged.view, {gidx}, &ctx->arena);
  std::vector<CountGroup> groups(g.num_groups);
  for (uint32_t gid = 0; gid < g.num_groups; ++gid) {
    CountGroup& cg = groups[gid];
    for (uint32_t p = g.run_begin[gid]; p < g.run_begin[gid + 1]; ++p) {
      const uint32_t row = g.run_rows[p];
      int64_t w = 1;
      if (weighted) {
        w = merged.view.cols[vidx].i64[row];
        if (w < 0) {
          return Status::Unimplemented(
              "SUM predicate requires non-negative values (Algorithm 4's "
              "case analysis assumes monotone activity)");
        }
      }
      AccumulateCount(&cg, merged.exts[row], w);
    }
  }

  const rel::Column gcol = merged.view.schema.column(gidx);
  const bool is_double = gcol.type == rel::ValueType::kDouble;
  int64_t* out_i64 =
      is_double ? nullptr : ctx->arena.AllocArray<int64_t>(g.num_groups);
  double* out_f64 =
      is_double ? ctx->arena.AllocArray<double>(g.num_groups) : nullptr;
  Ext* out_exts = ctx->arena.AllocArray<Ext>(g.num_groups);
  size_t n = 0;
  for (uint32_t gid = 0; gid < g.num_groups; ++gid) {
    const CountGroup& cg = groups[gid];
    CountCase le{CountCase::kCertain, 0}, ge{CountCase::kCertain, 0};
    if (sides.want_le) le = EncodeLe(cg, sides.d_le, ctx->ops);
    if (sides.want_ge) ge = EncodeGe(cg, sides.d_ge, ctx->ops);
    const std::optional<Ext> e = GroupRowExt(cg, sides, ctx->ops, le, ge);
    if (!e.has_value()) continue;
    const uint32_t rep = g.rep_row[gid];
    if (is_double) {
      out_f64[n] = merged.view.cols[gidx].f64[rep];
    } else {
      out_i64[n] = merged.view.cols[gidx].i64[rep];
    }
    out_exts[n] = *e;
    ++n;
  }
  LicmBatch out;
  out.view.schema = rel::Schema({gcol});
  out.view.rows = n;
  out.view.active = n;
  out.view.cols.resize(1);
  out.view.cols[0].i64 = out_i64;
  out.view.cols[0].f64 = out_f64;
  out.exts = out_exts;
  out.distinct = true;  // one row per group value
  return out;
}

Result<LicmBatch> CountPredicateBatch(const rel::QueryNode& node,
                                      LicmDatabase* db,
                                      ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(LicmBatch in, EvaluateLicmBatch(*node.left, db, ctx));
  LICM_ASSIGN_OR_RETURN(size_t gidx,
                        in.view.schema.IndexOf(node.group_column));
  // Set semantics: each distinct tuple counts once per world.
  LICM_ASSIGN_OR_RETURN(LicmBatch merged, MergeDuplicatesBatch(in, ctx));
  return GroupPredicateBatch(merged, gidx, 0, /*weighted=*/false,
                             node.count_op, node.count_d, ctx);
}

// The summed column must hold non-negative integers (the paper's "SUM over
// a constant numeric attribute" case); Algorithm 4's two constraints
// generalize verbatim with weighted terms.
Result<LicmBatch> SumPredicateBatch(const rel::QueryNode& node,
                                    LicmDatabase* db,
                                    ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(LicmBatch in, EvaluateLicmBatch(*node.left, db, ctx));
  LICM_ASSIGN_OR_RETURN(size_t gidx,
                        in.view.schema.IndexOf(node.group_column));
  LICM_ASSIGN_OR_RETURN(size_t vidx, in.view.schema.IndexOf(node.sum_column));
  if (in.view.schema.column(vidx).type != rel::ValueType::kInt) {
    return Status::InvalidArgument(
        "SUM predicate needs an int column, got " +
        std::string(rel::TypeName(in.view.schema.column(vidx).type)));
  }
  LICM_ASSIGN_OR_RETURN(LicmBatch merged, MergeDuplicatesBatch(in, ctx));
  return GroupPredicateBatch(merged, gidx, vidx, /*weighted=*/true,
                             node.count_op, node.count_d, ctx);
}

}  // namespace

Result<LicmBatch> MergeDuplicatesBatch(const LicmBatch& in,
                                       ColumnarLicmContext* ctx) {
  return OrMergeGroups(in, ctx);
}

Result<LicmBatch> EvaluateLicmBatch(const rel::QueryNode& node,
                                    LicmDatabase* db,
                                    ColumnarLicmContext* ctx) {
  switch (node.kind) {
    case rel::QueryKind::kScan: return ScanBatch(node, db, ctx);
    case rel::QueryKind::kSelect: return SelectBatch(node, db, ctx);
    case rel::QueryKind::kProject: return ProjectBatch(node, db, ctx);
    case rel::QueryKind::kIntersect: return IntersectBatch(node, db, ctx);
    case rel::QueryKind::kProduct: return ProductBatch(node, db, ctx);
    case rel::QueryKind::kJoin: return JoinBatch(node, db, ctx);
    case rel::QueryKind::kCountPredicate:
      return CountPredicateBatch(node, db, ctx);
    case rel::QueryKind::kSumPredicate:
      return SumPredicateBatch(node, db, ctx);
    case rel::QueryKind::kCountStar:
    case rel::QueryKind::kSum:
    case rel::QueryKind::kMin:
    case rel::QueryKind::kMax:
      return Status::InvalidArgument(
          "aggregate root: use AnswerAggregate()");
  }
  return Status::Internal("unknown query kind");
}

void NumericColumnBatch(const LicmBatch& in, size_t col,
                        ColumnarLicmContext* ctx, std::vector<double>* values,
                        std::vector<Ext>* exts) {
  const uint32_t* rows = ActiveRows(in.view, &ctx->arena);
  exts->reserve(in.view.active);
  for (size_t i = 0; i < in.view.active; ++i) {
    exts->push_back(in.exts[rows[i]]);
  }
  if (col == kCountColumn) {
    values->assign(exts->size(), 1.0);
    return;
  }
  const rel::ValueType t = in.view.schema.column(col).type;
  LICM_CHECK(t != rel::ValueType::kString);
  values->reserve(in.view.active);
  for (size_t i = 0; i < in.view.active; ++i) {
    const uint32_t row = rows[i];
    values->push_back(t == rel::ValueType::kInt
                          ? static_cast<double>(in.view.cols[col].i64[row])
                          : in.view.cols[col].f64[row]);
  }
}

LicmRelation BatchToLicmRelation(const LicmBatch& in,
                                 ColumnarLicmContext* ctx) {
  LicmRelation out(in.view.schema);
  const uint32_t* rows = ActiveRows(in.view, &ctx->arena);
  const size_t num_cols = in.view.schema.size();
  for (size_t i = 0; i < in.view.active; ++i) {
    const uint32_t row = rows[i];
    rel::Tuple t(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      switch (in.view.schema.column(c).type) {
        case rel::ValueType::kInt: t[c] = in.view.cols[c].i64[row]; break;
        case rel::ValueType::kDouble: t[c] = in.view.cols[c].f64[row]; break;
        case rel::ValueType::kString:
          t[c] = ctx->dict.str(in.view.cols[c].i64[row]);
          break;
      }
    }
    out.AppendUnchecked(std::move(t), in.exts[row]);
  }
  return out;
}

}  // namespace licm
