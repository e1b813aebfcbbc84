// Cover and clique cuts from cardinality / knapsack rows.
//
// LICM programs are dominated by COUNT-between constraints: cardinality
// rows over a tuple group, AND/OR link rows with mixed-sign coefficients.
// Complementing negative-coefficient binaries (x -> 1 - x) turns any such
// row into an all-positive knapsack sum(a_j * l_j) <= b over literals, from
// which two classic families of valid inequalities follow:
//
//  * Cover cuts: a minimal literal set C with sum(a_j) > b cannot be all
//    ones, so sum_{C} l_j <= |C| - 1.
//  * Clique cuts: literals with a_j > b/2 are pairwise conflicting, so at
//    most one of them can be one.
//
// Cuts are separated at a fractional LP point (only violated cuts are
// returned) and de-complemented back into input variable space, so they
// are valid for the original program regardless of the current search
// node — which is what lets every search strand of a component share
// them.
#ifndef LICM_SOLVER_CUTS_H_
#define LICM_SOLVER_CUTS_H_

#include <vector>

#include "solver/linear_program.h"

namespace licm::solver {

/// Separates violated cover and clique cuts for `lp` at the fractional
/// point `x` (indexed by VarId), at most 32 per call, most violated first.
/// Only rows of at most 128 terms whose variables are all binary in `lp`
/// participate. Returned rows are kLe over input variables and
/// globally valid for every integer-feasible point of `lp`.
std::vector<Row> GenerateCardinalityCuts(const LinearProgram& lp,
                                         const std::vector<double>& x);

}  // namespace licm::solver

#endif  // LICM_SOLVER_CUTS_H_
