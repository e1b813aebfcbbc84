// Canonical form of a linear program up to variable renaming.
//
// Two connected components that differ only by a permutation of variable
// ids (and by row / term order) are the *same* optimization problem; under
// k-anonymization the BIP splits into thousands of such isomorphic group
// components. Canonicalize() computes a normal form: a deterministic
// variable relabeling plus a byte serialization that is identical for
// isomorphic programs, so one proved solve can answer all of them (see
// solve_cache.h).
//
// The labeling uses color refinement (1-WL over the variable/row incidence
// structure, seeded with bounds, integrality, and objective coefficients)
// to a fixpoint; ties that survive are broken by input id. Surviving ties
// are automorphic on the row structures LICM emits (cardinality rows, SOS1
// rows, AND/OR links), and serialization is invariant under automorphic
// relabelings, so isomorphic inputs still land on the same bytes. On
// 1-WL-hard structure the tie-break can split an isomorphism class, but the
// only cost is a missed cache hit — equality of serialized forms always
// implies true isomorphism, so correctness never depends on the labeling.
//
// IsomorphismInvariant() is the cheap test in front of the labeling (the
// invariant-before-canonical-labelling idea of McKay & Piperno, "Practical
// graph isomorphism, II", 2014): a batch that can only hit within itself
// labels just the programs whose invariant it sees more than once.
#ifndef LICM_SOLVER_CANONICAL_H_
#define LICM_SOLVER_CANONICAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "solver/linear_program.h"

namespace licm::solver {

struct CanonicalForm {
  /// Full byte serialization of the relabeled program (bounds, integrality,
  /// objective, sorted rows; variable names excluded). Equal keys <=>
  /// isomorphic programs, with the relabelings below as witness.
  std::string key;
  /// 64-bit hash of `key`, precomputed for cheap map lookups.
  uint64_t hash = 0;
  /// canonical position -> variable id in the input program.
  std::vector<VarId> canon_to_input;
};

/// Computes the canonical form of `lp`. Deterministic; cost is a few
/// refinement sweeps over the rows, intended for the small per-group
/// components produced by Decompose().
CanonicalForm Canonicalize(const LinearProgram& lp);

/// Canonical form of `twin`, the negated-objective copy of the program
/// `form` was computed from (same variables, bounds and rows), without a
/// second refinement: `form`'s relabeling is reused and only the bytes are
/// re-serialized. The keys are canonical over the twins: the relabeling
/// is canonical for the original, and negating the objective commutes
/// with relabeling, so isomorphic originals give equal twin keys, and
/// equal keys still imply isomorphic twins. A zero-objective twin
/// serializes to `form.key` itself. A twin key need not equal
/// Canonicalize(twin).key: a program fingerprinted both ways can take two
/// cache entries (a missed hit, never a wrong one).
CanonicalForm CanonicalizeTwin(const LinearProgram& twin,
                               const CanonicalForm& form);

/// Isomorphism invariant of `lp`, in O(nnz log nnz): a hash of the
/// variable and row counts, the objective constant, the sorted multiset of
/// per-variable (lower, upper, integrality, objective coefficient, degree)
/// and the sorted multiset of per-row (op, rhs, sorted coefficients). It
/// is a cheap filter in front of Canonicalize: isomorphic programs share
/// it, and equal Canonicalize/CanonicalizeTwin keys imply equal invariants
/// (doubles hash through the same -0.0-normalized bits the keys use, so a
/// zero-objective twin keeps its original's invariant). A program whose
/// invariant no other program shares therefore shares no key either.
/// Unequal invariants never hide a hit; equal ones may still belong to
/// non-isomorphic programs.
uint64_t IsomorphismInvariant(const LinearProgram& lp);

/// Maps a solution vector in canonical variable order back to the input
/// program's variable order.
std::vector<double> CanonicalToInput(const CanonicalForm& form,
                                     const std::vector<double>& canonical_x);

/// Maps a solution vector in input variable order to canonical order.
std::vector<double> InputToCanonical(const CanonicalForm& form,
                                     const std::vector<double>& input_x);

}  // namespace licm::solver

#endif  // LICM_SOLVER_CANONICAL_H_
