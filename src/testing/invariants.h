// Metamorphic invariants for differential fuzzing (DESIGN.md §9).
//
// Every invariant is a property a correct pipeline must satisfy on *every*
// instance: agreement with the possible-world oracle, bit-identical bounds
// across feature toggles (pruning, cache, decomposition, thread count),
// SolveMinMax vs two single-sense solves, LP-format round-trips,
// Monte-Carlo containment, and valid timeout semantics under deadlines.
// Invariants report failures as data (not Status): a Status error from
// CheckCase means the case itself is structurally invalid (e.g. a reducer
// step produced a schema-incompatible query), which the reducer treats as
// "does not reproduce".
#ifndef LICM_TESTING_INVARIANTS_H_
#define LICM_TESTING_INVARIANTS_H_

#include <string>
#include <vector>

#include "solver/linear_program.h"
#include "testing/generator.h"
#include "testing/oracle.h"

namespace licm::testing {

enum class Verdict { kPass, kSkip, kFail };

const char* VerdictName(Verdict v);

struct InvariantReport {
  std::string name;
  Verdict verdict = Verdict::kPass;
  /// Failure explanation or skip reason; empty on pass. Failure details
  /// always include the numbers that disagreed.
  std::string detail;
};

/// Per-case state shared by all invariants: the enumerated ground truth
/// and the baseline LICM answer (default options, sequential).
struct CaseContext {
  /// Outcome of one AnswerAggregate run, flattened for comparison.
  /// `ok == false` carries the error code (kInfeasible for "no world").
  struct AnswerSummary {
    bool ok = false;
    StatusCode code = StatusCode::kOk;
    double min = 0.0, max = 0.0;
    bool min_exact = false, max_exact = false;
    double min_proved = 0.0, max_proved = 0.0;

    bool operator==(const AnswerSummary&) const = default;
    std::string ToString() const;
  };

  const FuzzCase* c = nullptr;
  OracleResult oracle;
  AnswerSummary baseline;
};

/// Enumerates the oracle and computes the baseline answer. Errors mean the
/// case is not checkable (oversized, or structurally invalid query).
Result<CaseContext> MakeContext(const FuzzCase& c);

struct Invariant {
  const char* name;
  const char* description;
  InvariantReport (*check)(const CaseContext&);
};

/// The registry, in execution order.
const std::vector<Invariant>& AllInvariants();

/// Runs every invariant whose name contains `filter` (all when empty) and
/// returns one report per invariant run.
Result<std::vector<InvariantReport>> CheckCase(const FuzzCase& c,
                                               const std::string& filter = "");

/// The BIP of a fuzz case with pruning disabled: evaluates the query
/// against a copy of the database and builds the program over the full
/// variable pool — the solver-level view shared by the minmax, LP
/// round-trip, and timeout invariants (and exported as the `.lp` half of a
/// repro).
Result<solver::LinearProgram> BuildCaseLp(const FuzzCase& c);

}  // namespace licm::testing

#endif  // LICM_TESTING_INVARIANTS_H_
