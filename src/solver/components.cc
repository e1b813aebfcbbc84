#include "solver/components.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/telemetry.h"

namespace licm::solver {

namespace {
// Feasibility tolerance of an empty row `0 op rhs` (propagation's, which
// decides the same row when decomposition is off).
constexpr double kEmptyRowTol = 1e-7;
}  // namespace

void UnionFind::Reset(size_t num_nodes) {
  parent_.clear();
  size_.clear();
  EnsureNodes(num_nodes);
}

void UnionFind::EnsureNodes(size_t num_nodes) {
  const size_t old = parent_.size();
  if (num_nodes <= old) return;
  parent_.resize(num_nodes);
  size_.resize(num_nodes, 1);
  std::iota(parent_.begin() + static_cast<std::ptrdiff_t>(old), parent_.end(),
            static_cast<uint32_t>(old));
}

uint32_t UnionFind::Find(uint32_t node) {
  EnsureNodes(static_cast<size_t>(node) + 1);
  uint32_t root = node;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[node] != root) {
    const uint32_t next = parent_[node];
    parent_[node] = root;
    node = next;
  }
  return root;
}

void UnionFind::Union(uint32_t a, uint32_t b) {
  uint32_t ra = Find(a);
  uint32_t rb = Find(b);
  if (ra == rb) return;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
}

void UnionFind::UnionAll(const std::vector<uint32_t>& nodes) {
  for (size_t i = 1; i < nodes.size(); ++i) Union(nodes[0], nodes[i]);
}

size_t UnionFind::NumComponents() {
  size_t roots = 0;
  for (uint32_t v = 0; v < parent_.size(); ++v) roots += Find(v) == v;
  return roots;
}

std::vector<uint32_t> UnionFind::Component(uint32_t node) {
  const uint32_t root = Find(node);
  std::vector<uint32_t> out;
  for (uint32_t v = 0; v < parent_.size(); ++v) {
    if (Find(v) == root) out.push_back(v);
  }
  return out;
}

std::vector<Component> Decompose(const LinearProgram& lp, bool* infeasible) {
  LICM_TRACE_SPAN("solver", "decompose");
  *infeasible = false;
  const size_t n = lp.num_vars();
  UnionFind uf(n);
  for (const Row& r : lp.rows()) {
    for (size_t i = 1; i < r.terms.size(); ++i)
      uf.Union(r.terms[0].var, r.terms[i].var);
  }

  // Map each root to a component index; isolated variables (those in no
  // row) share one trailing component.
  std::vector<bool> in_row(n, false);
  for (const Row& r : lp.rows())
    for (const Term& t : r.terms) in_row[t.var] = true;

  std::vector<int32_t> root_to_comp(n, -1);
  std::vector<Component> comps;
  int32_t isolated_comp = -1;
  std::vector<int32_t> var_to_local(n, -1);

  for (size_t v = 0; v < n; ++v) {
    int32_t ci;
    if (!in_row[v]) {
      if (isolated_comp < 0) {
        isolated_comp = static_cast<int32_t>(comps.size());
        comps.emplace_back();
      }
      ci = isolated_comp;
    } else {
      const size_t root = uf.Find(static_cast<uint32_t>(v));
      if (root_to_comp[root] < 0) {
        root_to_comp[root] = static_cast<int32_t>(comps.size());
        comps.emplace_back();
      }
      ci = root_to_comp[root];
    }
    Component& c = comps[static_cast<size_t>(ci)];
    const auto& def = lp.vars()[v];
    var_to_local[v] = static_cast<int32_t>(
        c.program.AddVariable(def.lower, def.upper, def.is_integer, def.name));
    c.to_parent.push_back(static_cast<VarId>(v));
    c.program.SetObjectiveCoef(static_cast<VarId>(var_to_local[v]),
                               lp.objective_coef(static_cast<VarId>(v)));
  }

  for (const Row& r : lp.rows()) {
    if (r.terms.empty()) {
      *infeasible |= r.op == RowOp::kLe   ? 0.0 > r.rhs + kEmptyRowTol
                     : r.op == RowOp::kGe ? 0.0 < r.rhs - kEmptyRowTol
                                          : std::abs(r.rhs) > kEmptyRowTol;
      continue;
    }
    const VarId v0 = r.terms[0].var;
    const size_t ci = static_cast<size_t>(root_to_comp[uf.Find(v0)]);
    Row nr;
    nr.op = r.op;
    nr.rhs = r.rhs;
    nr.terms.reserve(r.terms.size());
    for (const Term& t : r.terms)
      nr.terms.push_back(
          Term{static_cast<VarId>(var_to_local[t.var]), t.coef});
    comps[ci].program.AddRow(std::move(nr));
  }
  return comps;
}

}  // namespace licm::solver
