// In-memory representation of a (mixed-integer) linear program.
//
// This is the interchange format between the LICM query layer (which emits
// binary integer programs whose objective is a sum of existence variables)
// and the solver stack (decomposition -> simplex / branch & bound). Rows are stored sparsely; variables carry bounds and an
// integrality flag.
#ifndef LICM_SOLVER_LINEAR_PROGRAM_H_
#define LICM_SOLVER_LINEAR_PROGRAM_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"

namespace licm::solver {

using VarId = uint32_t;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// One `coef * var` term of a row or objective.
struct Term {
  VarId var;
  double coef;
  bool operator==(const Term&) const = default;
};

enum class RowOp { kLe, kGe, kEq };

/// A linear constraint: sum(terms) op rhs.
struct Row {
  std::vector<Term> terms;
  RowOp op = RowOp::kLe;
  double rhs = 0.0;
};

enum class Sense { kMaximize, kMinimize };

struct VariableDef {
  double lower = 0.0;
  double upper = kInfinity;
  bool is_integer = false;
  std::string name;  // optional; used by the LP-format writer
};

/// A linear program: variables with bounds, sparse rows, linear objective.
class LinearProgram {
 public:
  /// Adds a variable and returns its id. Binary variables use (0, 1, true).
  VarId AddVariable(double lower, double upper, bool is_integer,
                    std::string name = "");

  /// Convenience for binary {0,1} variables (the LICM case).
  VarId AddBinary(std::string name = "") {
    return AddVariable(0.0, 1.0, true, std::move(name));
  }

  /// Adds a constraint row. Terms with duplicate vars are merged.
  void AddRow(Row row);

  /// Sets the coefficient of `var` in the objective (replaces any previous).
  void SetObjectiveCoef(VarId var, double coef);

  /// Constant added to the objective value.
  void AddObjectiveConstant(double c) { objective_constant_ += c; }

  size_t num_vars() const { return vars_.size(); }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<VariableDef>& vars() const { return vars_; }
  std::vector<VariableDef>& mutable_vars() { return vars_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() { return rows_; }
  const std::vector<double>& objective() const { return objective_; }
  double objective_constant() const { return objective_constant_; }

  double objective_coef(VarId v) const {
    return v < objective_.size() ? objective_[v] : 0.0;
  }

  /// Objective value of a full assignment (including the constant).
  double EvalObjective(const std::vector<double>& x) const;

  /// True if `x` satisfies all rows and bounds within `tol`, and integer
  /// variables are integral within `tol`.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// Structural sanity checks (bounds ordered, var ids in range).
  Status Validate() const;

 private:
  std::vector<VariableDef> vars_;
  std::vector<Row> rows_;
  std::vector<double> objective_;  // dense, indexed by VarId
  double objective_constant_ = 0.0;
};

/// Result of an LP or MIP solve.
enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kTimeLimit };

struct LpSolution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // indexed by VarId; empty unless optimal
};

}  // namespace licm::solver

#endif  // LICM_SOLVER_LINEAR_PROGRAM_H_
