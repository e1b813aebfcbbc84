// Versioned, mutable LICM instances: the streaming layer over the static
// LicmDatabase of Definition 3.
//
// A MutableInstance holds an immutable Snapshot (version + database)
// behind a shared_ptr and serializes mutations — AppendTuples /
// RetractTuples / EditConstraint / AddConstraint / Replace — through a
// copy-on-write commit: writers copy the current database, apply the
// change, and atomically publish a new snapshot with version+1. Readers
// take a shared_ptr to whatever snapshot was current at admission and keep
// answering against it while later commits land (MVCC; DESIGN.md §13).
//
// Incremental re-solve falls out of content addressing rather than
// explicit invalidation: the instance owns a ComponentCache (of
// ComponentCache::kDefaultCapacity entries) keyed by canonical component
// fingerprints, so after a mutation the untouched components
// re-canonicalize to their old keys and are answered from cache (counted by
// ComponentCacheStats::cross_epoch_hits — commits bump the cache epoch),
// while the touched components' new fingerprints miss and are searched.
// Components above the cache's size cap are searched afresh every time;
// the cache is the only state one answer leaves for the next.
//
// Dirty-set tracking: constraints are hyperedges over BVars, and a
// solver::UnionFind (solver/components.h) over those hyperedges tells each
// mutation which connected components it perturbs. MutationResult reports
// the dirty set's size so callers (and telemetry) can verify that a local
// edit stays local. Tuple retraction never changes connectivity (edges
// come from constraints alone); constraint edits rebuild the index.
#ifndef LICM_LICM_MUTABLE_INSTANCE_H_
#define LICM_LICM_MUTABLE_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "licm/evaluator.h"
#include "licm/licm_relation.h"
#include "solver/components.h"
#include "solver/solve_cache.h"

namespace licm {

/// Outcome of one committed mutation.
struct MutationResult {
  /// Version of the snapshot the mutation produced (first snapshot is 1).
  uint64_t version = 0;
  /// Fresh maybe-variables allocated by an append, in row order (certain
  /// rows and reused-variable rows contribute none).
  std::vector<BVar> new_vars;
  size_t appended = 0;
  size_t retracted = 0;
  /// Dirty set over the pre-mutation connectivity: variables in touched
  /// components, touched component count, and the total component count of
  /// the pre-mutation variable pool. Appends of fresh variables touch only
  /// their own new singletons.
  size_t dirty_vars = 0;
  size_t dirty_components = 0;
  size_t total_components = 0;
  double dirty_ms = 0.0;
  double commit_ms = 0.0;
  /// For constraint mutations: the index the constraint landed at (edits
  /// report the edited slot, AddConstraint the appended one) — clients
  /// address later edits with it. kNoConstraint for tuple mutations.
  static constexpr size_t kNoConstraint = static_cast<size_t>(-1);
  size_t constraint_index = kNoConstraint;
};

/// One row of an append: the tuple plus its Ext disposition. `maybe`
/// allocates a fresh variable unless `reuse_var` names an existing one
/// (correlated maybe-tuples share a variable).
struct RowSpec {
  rel::Tuple tuple;
  bool maybe = false;
  std::optional<BVar> reuse_var;
};

class MutableInstance {
 public:
  /// An immutable published version. Queries hold the shared_ptr for as
  /// long as they need a consistent view.
  struct Snapshot {
    uint64_t version = 1;
    LicmDatabase db;
  };

  explicit MutableInstance(LicmDatabase db);

  MutableInstance(const MutableInstance&) = delete;
  MutableInstance& operator=(const MutableInstance&) = delete;

  /// The current snapshot; never null. O(1), safe against concurrent
  /// commits.
  std::shared_ptr<const Snapshot> snapshot() const;
  uint64_t version() const { return snapshot()->version; }

  /// Appends rows to `relation`. All rows are schema-checked before any
  /// state changes; on error nothing commits.
  Result<MutationResult> AppendTuples(const std::string& relation,
                                      const std::vector<RowSpec>& rows);

  /// Retracts the first tuple matching each of `rows` (by normal-attribute
  /// equality) from `relation`. Fails without committing if any row has no
  /// match. Retracted maybe-variables stay allocated: constraints may
  /// still mention them, and variable ids are never reused.
  Result<MutationResult> RetractTuples(const std::string& relation,
                                       const std::vector<rel::Tuple>& rows);

  /// Replaces constraint `index` with `replacement` (indices are stable
  /// across edits). Replacing with a vacuous constraint retires the slot.
  Result<MutationResult> EditConstraint(size_t index,
                                        LinearConstraint replacement);

  /// Edits only the comparison of constraint `index`, keeping its terms
  /// (the wire protocol's rhs-only edit).
  Result<MutationResult> EditConstraintRhs(size_t index, ConstraintOp op,
                                           int64_t rhs);

  /// Appends a new constraint.
  Result<MutationResult> AddConstraint(LinearConstraint c);

  /// Replaces the whole database (the service's `load replace=true` path).
  /// Bumps the version like any other commit.
  MutationResult Replace(LicmDatabase db);

  /// Answers `query` against the current snapshot, wiring this instance's
  /// component cache into the solve unless the caller already supplied
  /// their own. Callers may still set deadline, scheduler and thread count
  /// in `options`.
  Result<AggregateAnswer> Answer(const rel::QueryNode& query,
                                 AnswerOptions options = {}) const;

  solver::ComponentCache* cache() const { return &cache_; }

 private:
  // EditConstraint body; callers hold commit_mu_.
  Result<MutationResult> EditConstraintImpl(size_t index,
                                            LinearConstraint replacement);
  // Commits `db` as the next version; callers hold commit_mu_.
  MutationResult Publish(LicmDatabase db, MutationResult r, double dirty_ms,
                         const StopWatch& commit_clock);
  // Folds the components of `vars` (over the pre-mutation index) into `r`.
  void FillDirtySet(const std::vector<BVar>& vars, MutationResult* r);
  // Rebuilds connectivity_ from the constraint hyperedges of `db`.
  void RebuildConnectivity(const LicmDatabase& db);

  // commit_mu_ serializes writers end to end; state_mu_ only guards the
  // snapshot pointer swap (and connectivity_, which writers alone touch).
  mutable std::mutex state_mu_;
  std::mutex commit_mu_;
  std::shared_ptr<const Snapshot> snap_;
  solver::UnionFind connectivity_;

  mutable solver::ComponentCache cache_;
};

}  // namespace licm

#endif  // LICM_LICM_MUTABLE_INSTANCE_H_
