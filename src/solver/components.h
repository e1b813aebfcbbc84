// Connected components: the one union-find of the code base, and the
// decomposition of a linear program into independent sub-programs.
//
// Two variables are connected when they share a row. Because the LICM
// objective is separable (a sum over existence variables), the program
// splits into independent sub-programs — typically one per transaction or
// anonymization group — each of which is tiny. This is the structural
// property the paper credits for CPLEX's efficiency; we exploit it
// explicitly. The same labeling drives lineage pruning (licm/prune.h),
// the MIN/MAX feasibility probes and the mutation layer's dirty sets.
#ifndef LICM_SOLVER_COMPONENTS_H_
#define LICM_SOLVER_COMPONENTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "solver/linear_program.h"

namespace licm::solver {

/// Disjoint-set union over dense node ids with union by size and path
/// compression: each Union/Find is O(alpha). Nodes are grown on demand,
/// so a caller that only ever appends nodes and hyperedges keeps one index
/// current without rebuilding it.
class UnionFind {
 public:
  explicit UnionFind(size_t num_nodes = 0) { Reset(num_nodes); }

  /// Drops all edges and resizes to `num_nodes` singletons.
  void Reset(size_t num_nodes = 0);

  /// Grows the node set to at least `num_nodes`; new nodes start as
  /// singleton components.
  void EnsureNodes(size_t num_nodes);

  size_t num_nodes() const { return parent_.size(); }

  /// Merges the components of `a` and `b` (both grown into range first).
  void Union(uint32_t a, uint32_t b);

  /// Merges every node in `nodes` into one component (a hyperedge).
  void UnionAll(const std::vector<uint32_t>& nodes);

  /// Component representative of `node`; nodes beyond num_nodes() are
  /// their own singleton (they are grown in first).
  uint32_t Find(uint32_t node);

  /// Number of distinct components over the current node set.
  size_t NumComponents();

  /// All nodes in the same component as `node` (including itself).
  std::vector<uint32_t> Component(uint32_t node);

 private:
  // parent_[v] == v for roots; size_ is only meaningful at roots.
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
};

struct Component {
  LinearProgram program;
  /// component var id -> variable id in the source program.
  std::vector<VarId> to_parent;
};

/// Splits `lp` into connected components. Every row of `lp` lands in
/// exactly one component; isolated variables (no rows) are gathered into a
/// single trailing component with an empty row set so the caller can solve
/// them by inspection of objective signs. A row with no terms constrains no
/// variable: it is dropped when 0 satisfies it, and otherwise (`0 >= 1`)
/// sets `*infeasible`, which is false on return when no such row exists.
std::vector<Component> Decompose(const LinearProgram& lp, bool* infeasible);

}  // namespace licm::solver

#endif  // LICM_SOLVER_COMPONENTS_H_
