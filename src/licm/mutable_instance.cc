#include "licm/mutable_instance.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/telemetry.h"
#include "licm/prune.h"

namespace licm {

namespace {

std::vector<BVar> ConstraintVars(const LinearConstraint& c) {
  std::vector<BVar> vars;
  vars.reserve(c.terms.size());
  for (const auto& t : c.terms) vars.push_back(t.var);
  return vars;
}

}  // namespace

MutableInstance::MutableInstance(LicmDatabase db) {
  auto snap = std::make_shared<Snapshot>();
  snap->version = 1;
  snap->db = std::move(db);
  RebuildConnectivity(snap->db);
  snap_ = std::move(snap);
}

std::shared_ptr<const MutableInstance::Snapshot> MutableInstance::snapshot()
    const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return snap_;
}

void MutableInstance::RebuildConnectivity(const LicmDatabase& db) {
  connectivity_ = LabelComponents(db.constraints(), db.pool().size());
}

void MutableInstance::FillDirtySet(const std::vector<BVar>& vars,
                                   MutationResult* r) {
  r->total_components = connectivity_.NumComponents();
  std::unordered_set<uint32_t> roots;
  for (BVar v : vars) roots.insert(connectivity_.Find(v));
  r->dirty_components = roots.size();
  size_t dirty_vars = 0;
  for (size_t v = 0; v < connectivity_.num_nodes(); ++v) {
    if (roots.count(connectivity_.Find(static_cast<uint32_t>(v))))
      ++dirty_vars;
  }
  r->dirty_vars = dirty_vars;
}

MutationResult MutableInstance::Publish(LicmDatabase db, MutationResult r,
                                        double dirty_ms,
                                        const StopWatch& commit_clock) {
  // New fingerprints of touched components will simply miss; bumping the
  // epoch makes every later hit on a pre-commit entry count as a
  // cross-version hit — the proof that untouched components kept their
  // cached results.
  cache_.BumpEpoch();
  auto next = std::make_shared<Snapshot>();
  next->db = std::move(db);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    next->version = snap_->version + 1;
    snap_ = next;
  }
  r.version = next->version;
  r.dirty_ms = dirty_ms;
  r.commit_ms = commit_clock.ElapsedMs();
  return r;
}

Result<MutationResult> MutableInstance::AppendTuples(
    const std::string& relation, const std::vector<RowSpec>& rows) {
  std::lock_guard<std::mutex> commit(commit_mu_);
  StopWatch commit_clock;
  LicmDatabase db = snapshot()->db;
  LICM_ASSIGN_OR_RETURN(LicmRelation * rel, db.GetMutableRelation(relation));

  // Validate everything before mutating anything.
  for (const RowSpec& row : rows) {
    LICM_RETURN_NOT_OK(rel->schema().Check(row.tuple));
    if (row.reuse_var.has_value() && *row.reuse_var >= db.pool().size()) {
      return Status::InvalidArgument(
          "append reuses unknown variable b" + std::to_string(*row.reuse_var));
    }
  }

  MutationResult r;
  StopWatch dirty_clock;
  {
    LICM_TRACE_SPAN("incremental", "dirty_set");
    std::vector<BVar> reused;
    for (const RowSpec& row : rows) {
      if (row.reuse_var.has_value()) reused.push_back(*row.reuse_var);
    }
    FillDirtySet(reused, &r);
  }
  const double dirty_ms = dirty_clock.ElapsedMs();

  {
    LICM_TRACE_SPAN("incremental", "re_encode");
    for (const RowSpec& row : rows) {
      Ext ext = Ext::Certain();
      if (row.reuse_var.has_value()) {
        ext = Ext::Maybe(*row.reuse_var);
      } else if (row.maybe) {
        const BVar fresh = db.pool().New();
        r.new_vars.push_back(fresh);
        // A fresh maybe-variable is a brand-new singleton component: it is
        // part of the dirty set (it has never been solved) but was not a
        // component of the pre-mutation instance.
        ++r.dirty_components;
        ++r.dirty_vars;
        ext = Ext::Maybe(fresh);
      }
      rel->AppendUnchecked(row.tuple, ext);
    }
    connectivity_.EnsureNodes(db.pool().size());
  }
  r.appended = rows.size();
  return Publish(std::move(db), std::move(r), dirty_ms, commit_clock);
}

Result<MutationResult> MutableInstance::RetractTuples(
    const std::string& relation, const std::vector<rel::Tuple>& rows) {
  std::lock_guard<std::mutex> commit(commit_mu_);
  StopWatch commit_clock;
  LicmDatabase db = snapshot()->db;
  LICM_ASSIGN_OR_RETURN(LicmRelation * rel, db.GetMutableRelation(relation));

  // Resolve every requested row to a distinct position before touching the
  // relation, so a half-matching batch fails without committing.
  std::vector<size_t> victims;
  for (const rel::Tuple& row : rows) {
    bool found = false;
    for (size_t i = 0; i < rel->size(); ++i) {
      if (!rel->RowEquals(i, row)) continue;
      if (std::find(victims.begin(), victims.end(), i) != victims.end())
        continue;
      victims.push_back(i);
      found = true;
      break;
    }
    if (!found) {
      return Status::NotFound("retract: no matching tuple in '" + relation +
                              "'");
    }
  }

  MutationResult r;
  StopWatch dirty_clock;
  {
    LICM_TRACE_SPAN("incremental", "dirty_set");
    std::vector<BVar> touched;
    for (size_t i : victims) {
      if (!rel->ext(i).certain()) touched.push_back(rel->ext(i).var());
    }
    FillDirtySet(touched, &r);
  }
  const double dirty_ms = dirty_clock.ElapsedMs();

  {
    LICM_TRACE_SPAN("incremental", "re_encode");
    // Remove back to front so earlier positions stay valid. Connectivity
    // is untouched: hyperedges come from constraints, not tuples.
    std::sort(victims.begin(), victims.end());
    for (auto it = victims.rbegin(); it != victims.rend(); ++it) {
      rel->RemoveAt(*it);
    }
  }
  r.retracted = victims.size();
  return Publish(std::move(db), std::move(r), dirty_ms, commit_clock);
}

Result<MutationResult> MutableInstance::EditConstraint(
    size_t index, LinearConstraint replacement) {
  std::lock_guard<std::mutex> commit(commit_mu_);
  return EditConstraintImpl(index, std::move(replacement));
}

Result<MutationResult> MutableInstance::EditConstraintRhs(size_t index,
                                                          ConstraintOp op,
                                                          int64_t rhs) {
  std::lock_guard<std::mutex> commit(commit_mu_);
  const auto& constraints = snapshot()->db.constraints();
  if (index >= constraints.size()) {
    return Status::InvalidArgument("edit: constraint index " +
                                   std::to_string(index) + " out of range");
  }
  LinearConstraint replacement = constraints.constraints()[index];
  replacement.op = op;
  replacement.rhs = rhs;
  return EditConstraintImpl(index, std::move(replacement));
}

Result<MutationResult> MutableInstance::EditConstraintImpl(
    size_t index, LinearConstraint replacement) {
  StopWatch commit_clock;
  LicmDatabase db = snapshot()->db;
  if (index >= db.constraints().size()) {
    return Status::InvalidArgument("edit: constraint index " +
                                   std::to_string(index) + " out of range");
  }
  for (const auto& t : replacement.terms) {
    if (t.var >= db.pool().size()) {
      return Status::InvalidArgument("edit references unknown variable b" +
                                     std::to_string(t.var));
    }
  }

  MutationResult r;
  StopWatch dirty_clock;
  {
    LICM_TRACE_SPAN("incremental", "dirty_set");
    // Both the old and the new hyperedge are dirty: the old components
    // may split, the new ones merge.
    std::vector<BVar> touched =
        ConstraintVars(db.constraints().constraints()[index]);
    for (const auto& t : replacement.terms) touched.push_back(t.var);
    FillDirtySet(touched, &r);
  }
  const double dirty_ms = dirty_clock.ElapsedMs();

  {
    LICM_TRACE_SPAN("incremental", "re_encode");
    db.constraints().Replace(index, std::move(replacement));
    // Edits can split components; rebuild from the surviving hyperedges.
    RebuildConnectivity(db);
  }
  r.constraint_index = index;
  return Publish(std::move(db), std::move(r), dirty_ms, commit_clock);
}

Result<MutationResult> MutableInstance::AddConstraint(LinearConstraint c) {
  std::lock_guard<std::mutex> commit(commit_mu_);
  StopWatch commit_clock;
  LicmDatabase db = snapshot()->db;
  for (const auto& t : c.terms) {
    if (t.var >= db.pool().size()) {
      return Status::InvalidArgument(
          "constraint references unknown variable b" + std::to_string(t.var));
    }
  }

  MutationResult r;
  StopWatch dirty_clock;
  {
    LICM_TRACE_SPAN("incremental", "dirty_set");
    FillDirtySet(ConstraintVars(c), &r);
  }
  const double dirty_ms = dirty_clock.ElapsedMs();

  {
    LICM_TRACE_SPAN("incremental", "re_encode");
    connectivity_.UnionAll(ConstraintVars(c));
    db.constraints().Add(std::move(c));
  }
  r.constraint_index = db.constraints().size() - 1;
  return Publish(std::move(db), std::move(r), dirty_ms, commit_clock);
}

MutationResult MutableInstance::Replace(LicmDatabase db) {
  std::lock_guard<std::mutex> commit(commit_mu_);
  StopWatch commit_clock;
  MutationResult r;
  StopWatch dirty_clock;
  {
    LICM_TRACE_SPAN("incremental", "dirty_set");
    // A wholesale replace dirties everything the old version had.
    r.total_components = connectivity_.NumComponents();
    r.dirty_components = r.total_components;
    r.dirty_vars = connectivity_.num_nodes();
  }
  const double dirty_ms = dirty_clock.ElapsedMs();
  {
    LICM_TRACE_SPAN("incremental", "re_encode");
    RebuildConnectivity(db);
  }
  return Publish(std::move(db), std::move(r), dirty_ms, commit_clock);
}

Result<AggregateAnswer> MutableInstance::Answer(const rel::QueryNode& query,
                                                AnswerOptions options) const {
  auto snap = snapshot();
  if (options.bounds.mip.cache == nullptr) {
    options.bounds.mip.cache = &cache_;
  }
  LICM_TRACE_SPAN("incremental", "re_solve");
  return AnswerAggregate(query, snap->db, options);
}

}  // namespace licm
