// Seeded structured generator for differential fuzzing (DESIGN.md §9).
//
// Produces small random LICM instances: one TRANSITEM-style relation with
// certain and maybe tuples (maybe-variables sometimes shared between
// tuples), a constraint set drawn from the paper's correlation vocabulary
// (cardinality, mutual exclusion, co-existence, implication, and k x k
// permutation bijections), and a random conjunctive query tree with a
// COUNT or SUM head. The size knobs keep every instance inside the
// possible-world oracle's enumeration budget (<= ~20 binary variables), so
// brute-force enumeration stays the ground truth for every case.
#ifndef LICM_TESTING_GENERATOR_H_
#define LICM_TESTING_GENERATOR_H_

#include <cstdint>

#include "licm/licm_relation.h"
#include "relational/query.h"

namespace licm::testing {

/// Name of the single base relation every fuzz case queries.
inline constexpr const char* kFuzzRelation = "t";

struct GeneratorOptions {
  /// Hard cap on binary variables (enumeration is 2^vars; keep <= ~20).
  uint32_t max_vars = 12;
  /// Transactions and items-per-transaction of the base relation.
  uint32_t max_tids = 4;
  uint32_t max_items_per_tid = 4;
  /// Random constraints over the tuple variables (on top of any
  /// permutation block's structural constraints).
  uint32_t max_constraints = 3;
  /// Probability a tuple is certain (Ext = '1').
  double certain_prob = 0.2;
  /// Probability a maybe tuple reuses an existing variable (correlation).
  double shared_var_prob = 0.2;
  /// Probability of appending a 2x2 permutation bijection block when the
  /// variable budget allows (the bipartite-encoding shape that stresses
  /// the solver's permutation reasoning).
  double permutation_prob = 0.3;
};

/// One self-contained differential-testing instance.
struct FuzzCase {
  /// Seed it was generated from (0 for parsed repro files).
  uint64_t seed = 0;
  /// Database with the single relation kFuzzRelation over schema
  /// (tid:int, item:string, val:int); constraints range over the base
  /// variables only.
  LicmDatabase db;
  /// Pool size at generation time. Query evaluation appends derived
  /// variables past this; the oracle enumerates exactly these.
  uint32_t num_base_vars = 0;
  /// Aggregate query (kCountStar or kSum root) over kFuzzRelation.
  rel::QueryNodePtr query;
};

/// Deterministically generates the case for `seed`. Seeds divisible by 8
/// (when the relation has a maybe tuple) add one contradictory
/// cardinality row over the tuple variables, so a share of every seed
/// range is infeasible and exercises the feasibility checks.
FuzzCase GenerateCase(uint64_t seed, const GeneratorOptions& options = {});

}  // namespace licm::testing

#endif  // LICM_TESTING_GENERATOR_H_
