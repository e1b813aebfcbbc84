#include "testing/invariants.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <sstream>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "licm/aggregate.h"
#include "licm/columnar_ops.h"
#include "licm/evaluator.h"
#include "licm/mutable_instance.h"
#include "net/wire.h"
#include "sampler/monte_carlo.h"
#include "service/json.h"
#include "service/query_service.h"
#include "service/server.h"
#include "solver/lp_format.h"
#include "solver/mip_solver.h"

namespace licm::testing {
namespace {

using Summary = CaseContext::AnswerSummary;

// Default options for every fuzz solve: fully sequential so the baseline
// is deterministic; the threads invariant owns the parallel comparison.
AnswerOptions BaselineOptions() {
  AnswerOptions opt;
  opt.bounds.mip.num_threads = 1;
  return opt;
}

// Runs AnswerAggregate and flattens the outcome. Structural invalidity
// (InvalidArgument / NotFound, e.g. from a reducer-mangled query)
// propagates as a Status; solver-reported infeasibility and limits come
// back as data for the invariants to judge.
Result<Summary> Answer(const FuzzCase& c, const AnswerOptions& opt) {
  auto ans = AnswerAggregate(*c.query, c.db, opt);
  Summary s;
  if (!ans.ok()) {
    const StatusCode code = ans.status().code();
    if (code == StatusCode::kInvalidArgument || code == StatusCode::kNotFound) {
      return ans.status();
    }
    s.ok = false;
    s.code = code;
    return s;
  }
  s.ok = true;
  s.min = ans->bounds.min.value;
  s.max = ans->bounds.max.value;
  s.min_exact = ans->bounds.min.exact;
  s.max_exact = ans->bounds.max.exact;
  s.min_proved = ans->bounds.min.proved;
  s.max_proved = ans->bounds.max.proved;
  return s;
}

// Evaluates the body under the case's aggregate root through the batch
// operators and merges duplicates, as AnswerAggregate does, appending the
// query's lineage to `db`.
Result<LicmBatch> EvaluateMergedBody(const FuzzCase& c, LicmDatabase* db,
                                     ColumnarLicmContext* ctx) {
  LICM_ASSIGN_OR_RETURN(LicmBatch body,
                        EvaluateLicmBatch(*c.query->left, db, ctx));
  return MergeDuplicatesBatch(body, ctx);
}

InvariantReport Pass(const char* name) { return {name, Verdict::kPass, ""}; }
InvariantReport Skip(const char* name, std::string why) {
  return {name, Verdict::kSkip, std::move(why)};
}
InvariantReport Fail(const char* name, std::string detail) {
  return {name, Verdict::kFail, std::move(detail)};
}

std::string Num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// Compares a re-solve against the baseline; used by every feature-toggle
// invariant ("bounds are bit-identical across X on/off").
InvariantReport CompareWithBaseline(const char* name, const CaseContext& ctx,
                                    const AnswerOptions& opt,
                                    const char* what) {
  auto other = Answer(*ctx.c, opt);
  if (!other.ok()) {
    return Fail(name, std::string(what) + " run errored: " +
                          other.status().ToString());
  }
  if (!(*other == ctx.baseline)) {
    return Fail(name, std::string("bounds differ with ") + what +
                          ": baseline=" + ctx.baseline.ToString() +
                          " vs " + other->ToString());
  }
  return Pass(name);
}

InvariantReport CheckOracle(const CaseContext& ctx) {
  const char* name = "oracle";
  if (!ctx.oracle.feasible) {
    if (ctx.baseline.ok || ctx.baseline.code != StatusCode::kInfeasible) {
      return Fail(name,
                  "oracle found no valid world but the solver answered " +
                      ctx.baseline.ToString());
    }
    return Pass(name);
  }
  if (!ctx.baseline.ok) {
    return Fail(name, "oracle found " +
                          std::to_string(ctx.oracle.num_assignments) +
                          " valid assignments but the solver reported " +
                          std::string(Status::CodeName(ctx.baseline.code)));
  }
  if (!ctx.baseline.min_exact || !ctx.baseline.max_exact) {
    return Fail(name, "bounds inexact on an oracle-sized instance: " +
                          ctx.baseline.ToString());
  }
  if (ctx.baseline.min != ctx.oracle.min ||
      ctx.baseline.max != ctx.oracle.max) {
    return Fail(name, "bounds [" + Num(ctx.baseline.min) + ", " +
                          Num(ctx.baseline.max) + "] != enumerated [" +
                          Num(ctx.oracle.min) + ", " + Num(ctx.oracle.max) +
                          "]");
  }
  return Pass(name);
}

InvariantReport CheckOrder(const CaseContext& ctx) {
  const char* name = "order";
  if (!ctx.baseline.ok) return Skip(name, "no baseline bounds");
  const Summary& b = ctx.baseline;
  if (b.min > b.max) {
    return Fail(name, "MIN " + Num(b.min) + " > MAX " + Num(b.max));
  }
  if (b.min_proved > b.min || b.max_proved < b.max) {
    return Fail(name, "proved bounds do not envelope values: " + b.ToString());
  }
  if (ctx.oracle.feasible &&
      (b.min_proved > ctx.oracle.min || b.max_proved < ctx.oracle.max)) {
    return Fail(name, "proved [" + Num(b.min_proved) + ", " +
                          Num(b.max_proved) + "] excludes oracle range [" +
                          Num(ctx.oracle.min) + ", " + Num(ctx.oracle.max) +
                          "]");
  }
  return Pass(name);
}

InvariantReport CheckPrune(const CaseContext& ctx) {
  AnswerOptions opt = BaselineOptions();
  opt.bounds.prune = false;
  return CompareWithBaseline("prune", ctx, opt, "pruning off");
}

InvariantReport CheckCache(const CaseContext& ctx) {
  AnswerOptions opt = BaselineOptions();
  opt.bounds.mip.use_cache = false;
  return CompareWithBaseline("cache", ctx, opt, "solve cache off");
}

InvariantReport CheckDecompose(const CaseContext& ctx) {
  AnswerOptions opt = BaselineOptions();
  opt.bounds.mip.use_decomposition = false;
  return CompareWithBaseline("decompose", ctx, opt, "decomposition off");
}

InvariantReport CheckThreads(const CaseContext& ctx) {
  AnswerOptions opt = BaselineOptions();
  opt.bounds.mip.num_threads = 4;
  // Force the subtree-donation path even on tiny searches so the parallel
  // code actually runs (and TSan sees it).
  opt.bounds.mip.split_node_threshold = 1;
  return CompareWithBaseline("threads", ctx, opt, "4 threads");
}

InvariantReport CheckSolverFeatures(const CaseContext& ctx) {
  // The baseline runs with the node LP and everything that consumes it
  // (reduced-cost fixing, cardinality cuts, pseudo-cost branching); this
  // re-solve turns the node LP, and with it all of those, off.
  AnswerOptions opt = BaselineOptions();
  opt.bounds.mip.use_lp_bound = false;
  return CompareWithBaseline("solver_features", ctx, opt, "node LP off");
}

InvariantReport CheckMinMaxBatch(const CaseContext& ctx) {
  const char* name = "minmax";
  auto lp = BuildCaseLp(*ctx.c);
  if (!lp.ok()) return Fail(name, "BuildCaseLp: " + lp.status().ToString());
  solver::MipOptions mip;
  mip.num_threads = 1;
  const solver::MipSolver s({mip});
  const solver::MinMaxMipResult both = s.SolveMinMax(*lp);
  const solver::MipResult lo = s.Solve(*lp, solver::Sense::kMinimize);
  const solver::MipResult hi = s.Solve(*lp, solver::Sense::kMaximize);
  auto same = [&](const solver::MipResult& a, const solver::MipResult& b,
                  const char* side) -> std::string {
    if (a.status != b.status) {
      return std::string(side) + " status differs";
    }
    if (a.has_solution != b.has_solution) {
      return std::string(side) + " has_solution differs";
    }
    if (a.has_solution && a.objective != b.objective) {
      return std::string(side) + " objective " + Num(a.objective) +
             " != " + Num(b.objective);
    }
    if (a.status == solver::SolveStatus::kOptimal &&
        a.best_bound != b.best_bound) {
      return std::string(side) + " best_bound " + Num(a.best_bound) +
             " != " + Num(b.best_bound);
    }
    return "";
  };
  std::string d = same(both.min, lo, "min");
  if (d.empty()) d = same(both.max, hi, "max");
  if (!d.empty()) {
    return Fail(name, "SolveMinMax vs single-sense solves: " + d);
  }
  return Pass(name);
}

InvariantReport CheckSampler(const CaseContext& ctx) {
  const char* name = "sampler";
  if (!ctx.oracle.feasible) return Skip(name, "infeasible instance");
  if (!ctx.baseline.ok || !ctx.baseline.min_exact || !ctx.baseline.max_exact) {
    return Skip(name, "no exact LICM bounds to contain samples");
  }
  Rng rng(ctx.c->seed ^ 0x5a5a5a5a5a5a5a5aULL);
  rel::Database world;
  for (int k = 0; k < 8; ++k) {
    auto a = sampler::SampleValidAssignment(ctx.c->db.constraints(),
                                            ctx.c->num_base_vars, &rng);
    if (!a.ok()) {
      // Rejection sampling can starve on tightly constrained systems; the
      // oracle said feasible, so this is a budget issue, not a bug.
      return Skip(name, "rejection sampling found no world");
    }
    world = ctx.c->db.Instantiate(*a);
    auto v = rel::EvaluateAggregate(*ctx.c->query, world);
    if (!v.ok()) return Fail(name, "world evaluation: " + v.status().ToString());
    if (*v < ctx.baseline.min || *v > ctx.baseline.max) {
      return Fail(name, "sampled world answer " + Num(*v) +
                            " outside exact LICM bounds [" +
                            Num(ctx.baseline.min) + ", " +
                            Num(ctx.baseline.max) + "]");
    }
  }
  return Pass(name);
}

InvariantReport CheckLpRoundTrip(const CaseContext& ctx) {
  const char* name = "lp_roundtrip";
  auto lp = BuildCaseLp(*ctx.c);
  if (!lp.ok()) return Fail(name, "BuildCaseLp: " + lp.status().ToString());
  for (solver::Sense sense :
       {solver::Sense::kMinimize, solver::Sense::kMaximize}) {
    const char* sname = sense == solver::Sense::kMinimize ? "min" : "max";
    const std::string text1 = solver::ToLpFormat(*lp, sense);
    auto parsed = solver::ParseLpFormat(text1);
    if (!parsed.ok()) {
      return Fail(name, std::string(sname) + ": parse of own export failed: " +
                            parsed.status().ToString());
    }
    if (parsed->sense != sense) {
      return Fail(name, std::string(sname) + ": sense not preserved");
    }
    // Idempotence: one parse/export cycle is a fixpoint. (text1 itself may
    // differ from text2 only by the objective-constant comment, which the
    // format cannot represent as data.)
    const std::string text2 = solver::ToLpFormat(parsed->program, sense);
    auto parsed2 = solver::ParseLpFormat(text2);
    if (!parsed2.ok()) {
      return Fail(name, std::string(sname) + ": re-parse failed: " +
                            parsed2.status().ToString());
    }
    const std::string text3 = solver::ToLpFormat(parsed2->program, sense);
    if (text2 != text3) {
      return Fail(name, std::string(sname) +
                            ": export-parse-export not idempotent");
    }
    // The parser numbers variables by first appearance, so text1 and text2
    // may differ by a relabeling; the structure must survive unchanged.
    if (parsed->program.num_vars() != lp->num_vars() ||
        parsed->program.num_rows() != lp->num_rows()) {
      return Fail(name, std::string(sname) + ": round-trip changed " +
                            "variable or row count");
    }
    // Solving the re-parsed program gives identical bounds (modulo the
    // objective constant the format drops).
    solver::MipOptions mip;
    mip.num_threads = 1;
    const solver::MipSolver s({mip});
    const solver::MipResult orig = s.Solve(*lp, sense);
    const solver::MipResult rt = s.Solve(parsed->program, sense);
    if (orig.status != rt.status) {
      return Fail(name, std::string(sname) + ": status differs after "
                                             "round-trip");
    }
    if (orig.has_solution &&
        rt.objective + lp->objective_constant() != orig.objective) {
      return Fail(name, std::string(sname) + ": objective " +
                            Num(orig.objective) + " != round-tripped " +
                            Num(rt.objective + lp->objective_constant()));
    }
  }
  return Pass(name);
}

InvariantReport CheckWitness(const CaseContext& ctx) {
  const char* name = "witness";
  // CheckFeasible settles most row sets with a verified witness and solves
  // only the rest. Its verdict must equal a direct solve of the same rows,
  // on the evaluated instance (base rows plus the query's lineage rows):
  // once over every row, once over the remainder pruning drops.
  LicmDatabase db = ctx.c->db;
  ColumnarLicmContext eval(OpContext{&db.pool(), &db.constraints()});
  auto result = EvaluateMergedBody(*ctx.c, &db, &eval);
  if (!result.ok()) return Skip(name, "evaluate: " + result.status().ToString());
  std::vector<BVar> seeds;
  const uint32_t* active = rel::ActiveRows(result->view, &eval.arena);
  for (size_t i = 0; i < result->view.active; ++i) {
    const Ext e = result->exts[active[i]];
    if (!e.certain()) seeds.push_back(e.var());
  }

  const ConstraintSet& cs = db.constraints();
  const PruneResult all = KeepAll(cs, db.pool().size());
  const PruneResult kept = Prune(cs, seeds, db.pool().size());
  std::vector<uint32_t> dropped;
  std::set_difference(all.rows.begin(), all.rows.end(), kept.rows.begin(),
                      kept.rows.end(), std::back_inserter(dropped));

  solver::MipOptions mip;
  mip.num_threads = 1;
  const solver::MipSolver solver(mip);
  for (const auto& [label, rows] :
       {std::pair<const char*, const std::vector<uint32_t>&>{"all rows",
                                                             all.rows},
        {"pruned remainder", dropped}}) {
    const solver::MipResult direct = solver.Solve(
        BuildProgram(cs, rows, all.live), solver::Sense::kMaximize);
    if (direct.status == solver::SolveStatus::kTimeLimit) {
      return Skip(name, std::string(label) + ": direct solve hit a limit");
    }
    const Feasibility checked = CheckFeasible(cs, rows, {}, mip);
    if (checked == Feasibility::kUnknown) {
      return Skip(name, std::string(label) + ": check hit a limit");
    }
    const bool direct_feasible =
        direct.status == solver::SolveStatus::kOptimal;
    if ((checked == Feasibility::kFeasible) != direct_feasible) {
      return Fail(name, std::string(label) + ": CheckFeasible says " +
                            (checked == Feasibility::kFeasible
                                 ? "feasible"
                                 : "infeasible") +
                            ", a direct solve of " +
                            std::to_string(rows.size()) + " rows says " +
                            (direct_feasible ? "feasible" : "infeasible"));
    }
  }
  return Pass(name);
}

InvariantReport CheckTimeout(const CaseContext& ctx) {
  const char* name = "timeout";
  // An already-expired deadline: the solve must stop immediately, yet
  // still return a *valid* (possibly loose) answer — kTimeLimit or
  // kOptimal, never a wrong kInfeasible.
  const Deadline expired = Deadline::After(0.0);
  AnswerOptions opt = BaselineOptions();
  opt.bounds.mip.deadline = &expired;
  auto capped = Answer(*ctx.c, opt);
  if (!capped.ok()) {
    return Fail(name, "deadline-capped run errored: " +
                          capped.status().ToString());
  }
  if (ctx.oracle.feasible) {
    if (!capped->ok) {
      return Fail(name, "deadline-capped solve reported " +
                            std::string(Status::CodeName(capped->code)) +
                            " on a feasible instance");
    }
    if (capped->min_proved > ctx.oracle.min ||
        capped->max_proved < ctx.oracle.max) {
      return Fail(name, "capped proved bounds [" + Num(capped->min_proved) +
                            ", " + Num(capped->max_proved) +
                            "] exclude oracle range [" +
                            Num(ctx.oracle.min) + ", " +
                            Num(ctx.oracle.max) + "]");
    }
  } else if (capped->ok && (capped->min_exact || capped->max_exact)) {
    return Fail(name, "exact bounds claimed on an infeasible instance");
  }

  // Solver-level Gap consistency under the same deadline.
  auto lp = BuildCaseLp(*ctx.c);
  if (!lp.ok()) return Fail(name, "BuildCaseLp: " + lp.status().ToString());
  solver::MipOptions mip;
  mip.num_threads = 1;
  mip.deadline = &expired;
  for (solver::Sense sense :
       {solver::Sense::kMinimize, solver::Sense::kMaximize}) {
    const solver::MipResult r = solver::MipSolver(mip).Solve(*lp, sense);
    if (r.status == solver::SolveStatus::kUnbounded) {
      return Fail(name, "binary program reported unbounded");
    }
    if (ctx.oracle.feasible &&
        r.status == solver::SolveStatus::kInfeasible) {
      return Fail(name, "capped solver call reported kInfeasible on a "
                        "feasible instance");
    }
    if (r.has_solution) {
      if (!lp->IsFeasible(r.solution)) {
        return Fail(name, "capped incumbent is not feasible");
      }
      const double claimed = lp->EvalObjective(r.solution);
      if (std::abs(claimed - r.objective) > 1e-6) {
        return Fail(name, "objective " + Num(r.objective) +
                              " != incumbent's value " + Num(claimed));
      }
      const bool maximize = sense == solver::Sense::kMaximize;
      if (maximize ? r.best_bound < r.objective - 1e-9
                   : r.best_bound > r.objective + 1e-9) {
        return Fail(name, "best_bound on the wrong side of the incumbent");
      }
      if (r.status == solver::SolveStatus::kOptimal && r.Gap() > 1e-6) {
        return Fail(name, "kOptimal with gap " + Num(r.Gap()));
      }
    } else if (r.Gap() != solver::kInfinity) {
      return Fail(name, "no incumbent but finite gap " + Num(r.Gap()));
    }
  }
  return Pass(name);
}

InvariantReport CheckService(const CaseContext& ctx) {
  const char* name = "service";
  service::ServiceConfig cfg;
  cfg.num_workers = 1;
  cfg.solver_threads = 1;
  cfg.degraded_worlds = 8;
  service::QueryService svc(cfg);
  // No sampling structure: the degraded path exercises the generic
  // rejection sampler against the case's constraint set.
  Status added = svc.AddInstance("case", ctx.c->db);
  if (!added.ok()) {
    return Fail(name, "AddInstance: " + added.ToString());
  }

  // A generous deadline must reproduce the offline baseline exactly —
  // same bounds bit-for-bit, or the same error code.
  service::QueryRequest req;
  req.instance = "case";
  req.query = ctx.c->query;
  req.deadline_s = 1e9;  // effectively unlimited
  auto exact = svc.Execute(req);
  if (!ctx.baseline.ok) {
    if (exact.ok()) {
      return Fail(name, "service answered " + Num(exact->min) + ".." +
                            Num(exact->max) + " but offline reported " +
                            std::string(Status::CodeName(ctx.baseline.code)));
    }
    if (exact.status().code() != ctx.baseline.code) {
      return Fail(name, std::string("service error ") +
                            Status::CodeName(exact.status().code()) +
                            " != offline " +
                            Status::CodeName(ctx.baseline.code));
    }
  } else {
    if (!exact.ok()) {
      return Fail(name,
                  "service errored on a solvable case: " +
                      exact.status().ToString());
    }
    if (exact->degraded) {
      return Fail(name, "service degraded under an unlimited deadline");
    }
    Summary got;
    got.ok = true;
    got.min = exact->min;
    got.max = exact->max;
    got.min_exact = exact->min_exact;
    got.max_exact = exact->max_exact;
    got.min_proved = exact->proved_min;
    got.max_proved = exact->proved_max;
    if (!(got == ctx.baseline)) {
      return Fail(name, "service response " + got.ToString() +
                            " != offline baseline " +
                            ctx.baseline.ToString());
    }
  }

  // A zero deadline must either still be exact (trivial instances solve
  // without search) — then bit-identical again — or come back degraded
  // with an interval containing the exact bounds.
  req.deadline_s = 0.0;
  req.mc_worlds = 8;
  req.mc_seed = ctx.c->seed + 1;
  auto capped = svc.Execute(req);
  if (!ctx.baseline.ok) {
    // Infeasibility may or may not be proved in zero time; both an error
    // and a degraded interval are valid. Nothing further to contain.
    return Pass(name);
  }
  if (!capped.ok()) {
    return Fail(name, "zero-deadline request errored on a solvable case: " +
                          capped.status().ToString());
  }
  if (!capped->degraded) {
    if (capped->min != ctx.baseline.min || capped->max != ctx.baseline.max) {
      return Fail(name, "zero-deadline exact response [" +
                            Num(capped->min) + ", " + Num(capped->max) +
                            "] != baseline [" + Num(ctx.baseline.min) +
                            ", " + Num(ctx.baseline.max) + "]");
    }
    return Pass(name);
  }
  if (capped->min_exact && capped->max_exact) {
    return Fail(name, "degraded response claims both bounds exact");
  }
  if (capped->min > ctx.baseline.min || capped->max < ctx.baseline.max) {
    return Fail(name, "degraded interval [" + Num(capped->min) + ", " +
                          Num(capped->max) + "] does not contain exact [" +
                          Num(ctx.baseline.min) + ", " +
                          Num(ctx.baseline.max) + "]");
  }
  if (capped->has_samples &&
      (capped->sample_min < capped->min ||
       capped->sample_max > capped->max)) {
    return Fail(name, "sampled band [" + Num(capped->sample_min) + ", " +
                          Num(capped->sample_max) +
                          "] escapes the served interval");
  }
  return Pass(name);
}

// Flattens an Answer run against an arbitrary database (the incremental
// invariant compares a mutated instance to a from-scratch rebuild, so it
// cannot go through the FuzzCase-based Answer above).
Summary Summarize(const Result<AggregateAnswer>& ans) {
  Summary s;
  if (!ans.ok()) {
    s.ok = false;
    s.code = ans.status().code();
    return s;
  }
  s.ok = true;
  s.min = ans->bounds.min.value;
  s.max = ans->bounds.max.value;
  s.min_exact = ans->bounds.min.exact;
  s.max_exact = ans->bounds.max.exact;
  s.min_proved = ans->bounds.min.proved;
  s.max_proved = ans->bounds.max.proved;
  return s;
}

InvariantReport CheckIncremental(const CaseContext& ctx) {
  const char* name = "incremental";
  // A MutableInstance seeded from the case and an independently maintained
  // shadow database receive the same seeded mutation sequence; after every
  // step the instance's warm answer (per-instance component cache carried
  // across versions) must be bit-identical to a cold
  // AnswerAggregate on the shadow — including error codes, since random
  // constraint edits can make the instance infeasible.
  MutableInstance inst(ctx.c->db);
  LicmDatabase shadow = ctx.c->db;
  Rng rng(ctx.c->seed ^ 0xa11ce5eedULL);
  uint64_t expect_version = 1;

  constexpr int kSteps = 7;
  for (int step = 0; step < kSteps; ++step) {
    auto shadow_rel = shadow.GetMutableRelation(kFuzzRelation);
    if (!shadow_rel.ok()) {
      return Fail(name, "shadow relation: " + shadow_rel.status().ToString());
    }
    LicmRelation* srel = *shadow_rel;
    const uint32_t nvars = shadow.pool().size();
    const size_t ncons = shadow.constraints().size();

    int action = static_cast<int>(rng.Uniform(5));
    if (action == 2 && srel->size() == 0) action = 0;  // nothing to retract
    if (action == 3 && ncons == 0) action = 0;         // nothing to edit
    if (action == 4 && nvars == 0) action = 0;         // no vars to constrain

    Result<MutationResult> r = Status::Internal("no action ran");
    switch (action) {
      case 0: {  // append a certain row
        RowSpec row;
        row.tuple = {rng.UniformInt(0, 5),
                     std::string("x") + std::to_string(rng.Uniform(4)),
                     rng.UniformInt(-3, 3)};
        srel->AppendUnchecked(row.tuple, Ext::Certain());
        r = inst.AppendTuples(kFuzzRelation, {row});
        break;
      }
      case 1: {  // append a maybe row (fresh var, sometimes reused)
        RowSpec row;
        row.tuple = {rng.UniformInt(0, 5),
                     std::string("y") + std::to_string(rng.Uniform(4)),
                     rng.UniformInt(-3, 3)};
        row.maybe = true;
        const bool reuse = nvars > 0 && rng.Bernoulli(0.3);
        BVar expect_var;
        if (reuse) {
          row.reuse_var = static_cast<BVar>(rng.Uniform(nvars));
          expect_var = *row.reuse_var;
        } else {
          expect_var = shadow.pool().New();
        }
        srel->AppendUnchecked(row.tuple, Ext::Maybe(expect_var));
        r = inst.AppendTuples(kFuzzRelation, {row});
        if (r.ok() && !reuse) {
          if (r->new_vars.size() != 1 || r->new_vars[0] != expect_var) {
            return Fail(name,
                        "step " + std::to_string(step) +
                            ": fresh variable diverged from the shadow "
                            "pool (instance allocated " +
                            (r->new_vars.empty()
                                 ? std::string("none")
                                 : std::to_string(r->new_vars[0])) +
                            ", shadow b" + std::to_string(expect_var) + ")");
          }
        }
        break;
      }
      case 2: {  // retract a random existing row (first-match semantics)
        const size_t pick = rng.Uniform(srel->size());
        const rel::Tuple victim = srel->tuple(pick);
        size_t first = 0;
        while (!srel->RowEquals(first, victim)) ++first;
        srel->RemoveAt(first);
        r = inst.RetractTuples(kFuzzRelation, {victim});
        break;
      }
      case 3: {  // rewrite a random constraint's comparison
        const size_t index = rng.Uniform(ncons);
        const ConstraintOp op =
            static_cast<ConstraintOp>(rng.Uniform(3));
        const int64_t rhs = rng.UniformInt(0, nvars);
        LinearConstraint edited = shadow.constraints().constraints()[index];
        edited.op = op;
        edited.rhs = rhs;
        shadow.constraints().Replace(index, std::move(edited));
        r = inst.EditConstraintRhs(index, op, rhs);
        break;
      }
      default: {  // add a cardinality constraint over a random var subset
        LinearConstraint c;
        const uint32_t width =
            static_cast<uint32_t>(rng.UniformInt(1, std::min(nvars, 3u)));
        for (uint32_t j = 0; j < width; ++j) {
          c.terms.push_back({static_cast<BVar>(rng.Uniform(nvars)), 1});
        }
        c.op = ConstraintOp::kLe;
        c.rhs = rng.UniformInt(0, width);
        shadow.constraints().Add(c);
        r = inst.AddConstraint(c);
        break;
      }
    }

    if (!r.ok()) {
      return Fail(name, "step " + std::to_string(step) + " (action " +
                            std::to_string(action) +
                            ") failed: " + r.status().ToString());
    }
    ++expect_version;
    if (r->version != expect_version) {
      return Fail(name, "step " + std::to_string(step) + ": version " +
                            std::to_string(r->version) + " != expected " +
                            std::to_string(expect_version));
    }

    const Summary warm =
        Summarize(inst.Answer(*ctx.c->query, BaselineOptions()));
    const Summary cold =
        Summarize(AnswerAggregate(*ctx.c->query, shadow, BaselineOptions()));
    if (!(warm == cold)) {
      return Fail(name, "step " + std::to_string(step) + " (action " +
                            std::to_string(action) +
                            "): incremental answer " + warm.ToString() +
                            " != from-scratch " + cold.ToString());
    }
  }
  return Pass(name);
}

// Compares every WireRequest field, returning the first mismatch name.
std::string FirstRequestMismatch(const service::WireRequest& a,
                                 const service::WireRequest& b) {
  if (a.id != b.id) return "id";
  if (a.op != b.op) return "op";
  if (a.instance != b.instance) return "instance";
  if (a.qnum != b.qnum) return "qnum";
  if (a.deadline_ms != b.deadline_ms) return "deadline_ms";
  if (a.mc_worlds != b.mc_worlds) return "mc_worlds";
  if (a.seed != b.seed) return "seed";
  if (a.action != b.action) return "action";
  if (a.relation != b.relation) return "relation";
  if (a.row != b.row) return "row";
  if (a.maybe != b.maybe) return "maybe";
  if (a.cindex != b.cindex) return "cindex";
  if (a.cop != b.cop) return "cop";
  if (a.rhs != b.rhs) return "rhs";
  if (a.var != b.var) return "var";
  if (a.value != b.value) return "value";
  if (a.spec != b.spec) return "spec";
  if (a.replace != b.replace) return "replace";
  return "";
}

InvariantReport CheckWire(const CaseContext& ctx) {
  const char* name = "wire";

  // A query request with case-derived (thus varied) field values.
  service::WireRequest req;
  req.op = "query";
  req.id = static_cast<int64_t>(ctx.c->seed % 100000);
  req.instance = "case";
  req.qnum = 1 + static_cast<int>(ctx.c->seed % 3);
  req.deadline_ms = 1e12;
  req.mc_worlds = static_cast<int>(ctx.c->seed % 16);
  req.seed = ctx.c->seed;

  // Binary round trip: decode(encode(req)) == req, and re-encoding the
  // decoded request reproduces the exact bytes (canonical encoding).
  const std::string payload = net::EncodeRequestPayload(req);
  auto decoded = net::DecodeRequestPayload(payload);
  if (!decoded.ok()) {
    return Fail(name, "payload decode: " + decoded.status().ToString());
  }
  std::string mismatch = FirstRequestMismatch(req, *decoded);
  if (!mismatch.empty()) {
    return Fail(name, "binary round trip changed field " + mismatch);
  }
  if (net::EncodeRequestPayload(*decoded) != payload) {
    return Fail(name, "re-encoding the decoded request changed the bytes");
  }

  // Codec agreement: the JSON line expressing the same request parses to
  // the WireRequest the binary codec decoded.
  {
    std::ostringstream line;
    line << "{\"op\":\"query\",\"id\":" << req.id
         << ",\"instance\":\"case\",\"qnum\":" << req.qnum
         << ",\"deadline_ms\":1e12,\"mc_worlds\":" << req.mc_worlds
         << ",\"seed\":" << req.seed << "}";
    auto parsed = service::ParseRequestLine(line.str());
    if (!parsed.ok()) {
      return Fail(name, "JSON parse: " + parsed.status().ToString());
    }
    mismatch = FirstRequestMismatch(*parsed, *decoded);
    if (!mismatch.empty()) {
      return Fail(name,
                  "JSON and binary codecs disagree on field " + mismatch);
    }
  }

  // Framing: every strict prefix asks for more bytes; flipping any byte
  // under the checksum (everything but the magic and length prefix)
  // never yields a successful decode.
  const std::string frame_bytes = net::EncodeRequestFrame(req);
  for (size_t cut = 0; cut < frame_bytes.size(); ++cut) {
    size_t consumed = 0;
    net::Frame frame;
    auto got =
        net::TryDecodeFrame(frame_bytes.substr(0, cut), &consumed, &frame);
    if (!got.ok() || *got) {
      return Fail(name, "prefix of " + std::to_string(cut) +
                            " bytes did not ask for more input");
    }
  }
  const size_t header = 3;  // magic + version + type
  size_t len_bytes = 1;
  while ((static_cast<uint8_t>(frame_bytes[header + len_bytes - 1]) & 0x80) !=
         0) {
    ++len_bytes;
  }
  for (size_t i = 1; i < frame_bytes.size(); ++i) {
    if (i >= header && i < header + len_bytes) continue;
    std::string bad = frame_bytes;
    bad[i] = static_cast<char>(bad[i] ^ (1u << (i % 8)));
    size_t consumed = 0;
    net::Frame frame;
    auto got = net::TryDecodeFrame(bad, &consumed, &frame);
    if (got.ok() && *got) {
      return Fail(name, "corrupting byte " + std::to_string(i) +
                            " still decoded a frame");
    }
  }

  // Response parity through a live service. The sync line path and the
  // async binary path must agree on every answer field; the binary
  // response frame must carry the JSON text byte-for-byte.
  service::ServiceConfig cfg;
  cfg.num_workers = 1;
  cfg.solver_threads = 1;
  service::QueryService svc(cfg);
  Status added = svc.AddInstance("case", ctx.c->db);
  if (!added.ok()) {
    return Fail(name, "AddInstance: " + added.ToString());
  }
  service::RequestRouter router(
      &svc, [&ctx](const service::WireRequest&) -> Result<rel::QueryNodePtr> {
        return ctx.c->query;
      });

  std::ostringstream line;
  line << "{\"op\":\"query\",\"id\":" << req.id
       << ",\"instance\":\"case\",\"deadline_ms\":1e12}";
  bool shutdown = false;
  const std::string json_response = router.Handle(line.str(), &shutdown);

  std::string async_response;
  {
    std::mutex mu;
    std::condition_variable cv;
    bool delivered = false;
    service::WireRequest async_req = req;
    async_req.mc_worlds = 0;
    async_req.seed = 0;
    async_req.qnum = 1;
    router.HandleAsync(async_req, [&](std::string response, bool) {
      std::lock_guard<std::mutex> lock(mu);
      async_response = std::move(response);
      delivered = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return delivered; });
  }

  auto sync_parsed = service::ParseJson(json_response);
  auto async_parsed = service::ParseJson(async_response);
  if (!sync_parsed.ok() || !async_parsed.ok()) {
    return Fail(name, "a response failed to parse back");
  }
  auto sync_ok_field = sync_parsed->GetBool("ok", false);
  auto async_ok_field = async_parsed->GetBool("ok", false);
  const bool sync_ok = sync_ok_field.ok() && *sync_ok_field;
  const bool async_ok = async_ok_field.ok() && *async_ok_field;
  if (sync_ok != async_ok) {
    return Fail(name, "sync ok=" + std::to_string(sync_ok) +
                          " != async ok=" + std::to_string(async_ok));
  }
  if (sync_ok) {
    for (const char* field : {"min", "max", "proved_min", "proved_max"}) {
      auto s = sync_parsed->GetNumber(field, -1e300);
      auto a = async_parsed->GetNumber(field, -1e300);
      if (!s.ok() || !a.ok() || *s != *a) {
        return Fail(name, std::string("sync/async disagree on ") + field +
                              ": " + (s.ok() ? Num(*s) : "<missing>") +
                              " vs " + (a.ok() ? Num(*a) : "<missing>"));
      }
    }
  } else {
    auto s = sync_parsed->GetString("status", "");
    auto a = async_parsed->GetString("status", "");
    if (!s.ok() || !a.ok() || *s != *a) {
      return Fail(name, "sync/async disagree on the error status");
    }
  }

  // Frame the async response exactly as the binary front end would and
  // check the payload is the JSON text verbatim.
  size_t consumed = 0;
  net::Frame frame;
  auto got = net::TryDecodeFrame(net::EncodeResponseFrame(async_response),
                                 &consumed, &frame);
  if (!got.ok() || !*got) {
    return Fail(name, "response frame failed to decode");
  }
  if (frame.payload != async_response) {
    return Fail(name, "response framing altered the JSON text");
  }
  return Pass(name);
}

}  // namespace

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "pass";
    case Verdict::kSkip: return "skip";
    case Verdict::kFail: return "FAIL";
  }
  return "?";
}

std::string CaseContext::AnswerSummary::ToString() const {
  if (!ok) return std::string("<") + Status::CodeName(code) + ">";
  std::ostringstream os;
  os << "[" << min << (min_exact ? "" : "~") << ", " << max
     << (max_exact ? "" : "~") << "] proved [" << min_proved << ", "
     << max_proved << "]";
  return os.str();
}

Result<CaseContext> MakeContext(const FuzzCase& c) {
  CaseContext ctx;
  ctx.c = &c;
  LICM_ASSIGN_OR_RETURN(ctx.oracle, OracleAggregate(c));
  LICM_ASSIGN_OR_RETURN(ctx.baseline, Answer(c, BaselineOptions()));
  return ctx;
}

const std::vector<Invariant>& AllInvariants() {
  static const std::vector<Invariant> kAll = {
      {"oracle", "bounds equal exhaustive possible-world enumeration",
       CheckOracle},
      {"order", "MIN <= MAX and proved bounds envelope values and oracle",
       CheckOrder},
      {"prune", "bit-identical bounds with pruning off", CheckPrune},
      {"cache", "bit-identical bounds with the solve cache off", CheckCache},
      {"decompose", "bit-identical bounds with decomposition off",
       CheckDecompose},
      {"threads", "bit-identical bounds with 1 vs 4 worker threads",
       CheckThreads},
      {"solver_features", "bit-identical bounds with the node LP (and "
                          "RC fixing, cuts, pseudo-cost branching) off",
       CheckSolverFeatures},
      {"minmax", "SolveMinMax equals two single-sense solves",
       CheckMinMaxBatch},
      {"sampler", "Monte-Carlo world answers land inside exact bounds",
       CheckSampler},
      {"lp_roundtrip", "LP export/parse round-trip preserves the program",
       CheckLpRoundTrip},
      {"timeout", "deadline-capped solves stay valid and Gap-consistent",
       CheckTimeout},
      {"wire", "binary request codec round-trips and agrees with the "
               "JSON parser; frames reject truncation/corruption; sync and "
               "async router paths answer identically",
       CheckWire},
      {"service", "service responses match offline bounds; degraded "
                  "intervals contain them",
       CheckService},
      {"incremental", "after every random mutation step, the versioned "
                      "instance's warm answer is bit-identical to a "
                      "from-scratch rebuild",
       CheckIncremental},
      {"witness", "CheckFeasible's verdict on all rows and on the pruned "
                  "remainder equals a direct solve of the same rows",
       CheckWitness},
  };
  return kAll;
}

Result<std::vector<InvariantReport>> CheckCase(const FuzzCase& c,
                                               const std::string& filter) {
  LICM_ASSIGN_OR_RETURN(CaseContext ctx, MakeContext(c));
  std::vector<InvariantReport> out;
  for (const Invariant& inv : AllInvariants()) {
    if (!filter.empty() &&
        std::string(inv.name).find(filter) == std::string::npos) {
      continue;
    }
    out.push_back(inv.check(ctx));
  }
  return out;
}

Result<solver::LinearProgram> BuildCaseLp(const FuzzCase& c) {
  if (c.query == nullptr || !rel::IsAggregate(*c.query)) {
    return Status::InvalidArgument("fuzz case query is not an aggregate");
  }
  LicmDatabase db = c.db;
  ColumnarLicmContext ctx(OpContext{&db.pool(), &db.constraints()});
  LICM_ASSIGN_OR_RETURN(LicmBatch result, EvaluateMergedBody(c, &db, &ctx));
  if (c.query->kind != rel::QueryKind::kCountStar &&
      c.query->kind != rel::QueryKind::kSum) {
    return Status::InvalidArgument("BuildCaseLp: MIN/MAX roots have no "
                                   "single-program form");
  }
  // One (value, Ext) pair per tuple: 1 for COUNT(*), the SUM column's
  // value otherwise.
  size_t col = kCountColumn;
  if (c.query->kind == rel::QueryKind::kSum) {
    LICM_ASSIGN_OR_RETURN(col, result.view.schema.IndexOf(c.query->sum_column));
    if (result.view.schema.column(col).type == rel::ValueType::kString) {
      return Status::InvalidArgument("BuildCaseLp: SUM over a string");
    }
  }
  std::vector<double> values;
  std::vector<Ext> exts;
  NumericColumnBatch(result, col, &ctx, &values, &exts);
  const Objective obj = LinearObjective(values, exts);
  // Identity prune: every pool variable and every constraint stays, the
  // same program ComputeBounds builds with options.prune == false.
  const PruneResult all = KeepAll(db.constraints(), db.pool().size());
  return BuildProgram(db.constraints(), all.rows, all.live, {}, &obj);
}

}  // namespace licm::testing
