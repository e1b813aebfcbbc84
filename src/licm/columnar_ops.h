// LICM operators (Section IV, Algorithms 1-4) over batches: the one path
// by which a query tree becomes lineage.
//
// An LicmBatch is a relational BatchView plus an Ext array parallel to the
// physical rows; operators filter by selection bitmap and group by
// contiguous runs (batch.h) instead of per-tuple hash-map inserts, and
// bulk-emit Algorithm 4's cardinality rows per run. The lineage case
// analyses live in lineage.h. Every operator walks rows in first-seen
// order, so the variable ids and constraints it appends depend only on
// the logical input. The LICM layer's reference is possible-world
// enumeration through the deterministic engine (the `oracle` fuzz
// invariant and licm_oracle_test).
#ifndef LICM_LICM_COLUMNAR_OPS_H_
#define LICM_LICM_COLUMNAR_OPS_H_

#include <vector>

#include "licm/licm_relation.h"
#include "licm/lineage.h"
#include "relational/arena.h"
#include "relational/batch.h"
#include "relational/column.h"
#include "relational/query.h"

namespace licm {

/// A batch of LICM tuples: normal attributes as column spans + selection,
/// Ext attributes in an array parallel to the physical rows (only active
/// rows' entries are meaningful). `distinct` records that the active rows
/// are already a set, so merging duplicates would return the batch
/// unchanged and is skipped.
struct LicmBatch {
  rel::BatchView view;
  const Ext* exts = nullptr;
  bool distinct = false;
};

/// Per-evaluation columnar state: the arena owning all transient buffers
/// (columns, bitmaps, Ext arrays), the query's string dictionary, the
/// database's pool/constraint context, and the number of base rows the
/// scans borrowed. Scans read the base relations' own columns, so the
/// database must outlive every batch evaluated from it.
struct ColumnarLicmContext {
  explicit ColumnarLicmContext(OpContext ops) : ops(ops) {}

  OpContext ops;
  rel::Arena arena;
  rel::StringDictionary dict;
  size_t rows_scanned = 0;
};

/// Evaluates a non-aggregate query tree over `db` into a batch, appending
/// derived lineage variables and their constraints to `db`. The batch
/// instantiates, world by world, to the deterministic answer.
Result<LicmBatch> EvaluateLicmBatch(const rel::QueryNode& node,
                                    LicmDatabase* db,
                                    ColumnarLicmContext* ctx);

/// Merges duplicate tuples into one whose existence is the OR of the
/// duplicates' (needed before aggregates, so that each distinct tuple
/// counts once per world), returning the input unchanged when the active
/// rows are already a set.
Result<LicmBatch> MergeDuplicatesBatch(const LicmBatch& in,
                                       ColumnarLicmContext* ctx);

/// The `col` of NumericColumnBatch that stands for COUNT(*): every tuple
/// counts once.
inline constexpr size_t kCountColumn = static_cast<size_t>(-1);

/// Gathers column `col` of the active rows as doubles plus the parallel
/// Ext attributes (the aggregate objective and the MIN/MAX case analysis
/// input). The column must be numeric; kCountColumn gathers 1 per row.
void NumericColumnBatch(const LicmBatch& in, size_t col,
                        ColumnarLicmContext* ctx, std::vector<double>* values,
                        std::vector<Ext>* exts);

/// Materializes the batch as an LicmRelation, in row order (tests and
/// debugging; the hot path never converts).
LicmRelation BatchToLicmRelation(const LicmBatch& in,
                                 ColumnarLicmContext* ctx);

}  // namespace licm

#endif  // LICM_LICM_COLUMNAR_OPS_H_
