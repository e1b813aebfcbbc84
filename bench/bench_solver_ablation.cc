// Ablation bench for the solver design choices DESIGN.md calls out:
// presolve, decomposition, LP bounds, probing, pruning — plus the
// incremental-LP core features (warm dual simplex, reduced-cost fixing,
// cardinality cuts, pseudo-cost branching, adaptive prologue). Runs one
// paper query with each feature toggled off and reports solve time, node
// counts, and the LP-core counters. Every variant must reproduce the
// all-features bounds exactly; a mismatch fails the run.
//
// Usage: bench_solver_ablation [query] [num_transactions] [k] [fanout]
//                              [out.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace licm::bench;
  using licm::AnswerOptions;

  BenchTraceInit();
  int qnum = 3;
  uint32_t txns = 600, k = 25, fanout = 16;
  std::string out_path = "BENCH_solver_ablation.json";
  if (argc > 1) qnum = std::atoi(argv[1]);
  if (qnum < 1 || qnum > 3) {
    // The pre-rewrite CLI took txns first; fail loudly instead of letting
    // a stale invocation crash inside query construction.
    std::printf(
        "usage: bench_solver_ablation [query 1-3] [txns] [k] [fanout] "
        "[out.json]\n  got query=%d\n", qnum);
    return 2;
  }
  if (argc > 2) txns = std::atoi(argv[2]);
  if (argc > 3) k = std::atoi(argv[3]);
  if (argc > 4) fanout = std::atoi(argv[4]);
  if (argc > 5) out_path = argv[5];

  licm::data::GeneratorConfig gen;
  gen.num_transactions = txns;
  gen.num_items = 400;
  auto dataset = licm::data::GenerateTransactions(gen);
  auto hierarchy =
      licm::anonymize::Hierarchy::BuildUniform(dataset.num_items, fanout);
  auto anon = licm::anonymize::KAnonymize(dataset, hierarchy, {k});
  if (!anon.ok()) {
    std::printf("anonymize failed: %s\n", anon.status().ToString().c_str());
    return 1;
  }
  auto enc = licm::anonymize::EncodeGeneralized(*anon, hierarchy, dataset);
  if (!enc.ok()) {
    std::printf("encode failed: %s\n", enc.status().ToString().c_str());
    return 1;
  }
  QueryParams params;
  auto query = BuildFlatQuery(qnum, params);

  struct Variant {
    const char* name;
    // Pipeline features (pre-existing).
    bool prune, presolve, decompose, lp, probing, cache;
    // Incremental-LP core features (this PR's flags).
    bool warm, rc, cuts, pc, adaptive;
  };
  constexpr bool T = true, F = false;
  const Variant variants[] = {
      {"all-features", T, T, T, T, T, T, T, T, T, T, T},
      // One LP-core feature off at a time.
      {"no-warm-lp", T, T, T, T, T, T, F, T, T, T, T},
      {"no-rc-fixing", T, T, T, T, T, T, T, F, T, T, T},
      {"no-cuts", T, T, T, T, T, T, T, T, F, T, T},
      {"no-pseudo-cost", T, T, T, T, T, T, T, T, T, F, T},
      {"no-adaptive-prologue", T, T, T, T, T, T, T, T, T, T, F},
      // Whole LP core off: the CI gate compares this against
      // all-features (features-on must be at most half its solve_ms on
      // Query 3).
      {"core-off", T, T, T, T, T, T, F, F, F, F, F},
      // Pipeline ablations (pre-existing rows).
      {"no-prune", F, T, T, T, T, T, T, T, T, T, T},
      {"no-presolve", T, F, T, T, T, T, T, T, T, T, T},
      {"no-decompose", T, T, F, T, T, T, T, T, T, T, T},
      {"no-lp-bound", T, T, T, F, T, T, T, T, T, T, T},
      {"no-probing", T, T, T, T, F, T, T, T, T, T, T},
      {"no-cache", T, T, T, T, T, F, T, T, T, T, T},
  };

  std::printf("# Solver/pipeline ablation on Query %d, k-anonymity k=%u, "
              "%u txns\n",
              qnum, k, txns);
  // solve_ms is wall time of the outermost solve; cpu_ms sums the branch &
  // bound work across strands (equal when sequential). pivots / rc_fixed /
  // cuts count the incremental-LP core's work (zero when it is off or the
  // component exceeds its size gate).
  std::printf("%-21s %7s %7s %10s %10s %10s %8s %8s %8s %6s\n", "variant",
              "min", "max", "query_ms", "solve_ms", "cpu_ms", "nodes",
              "pivots", "rc_fixed", "cuts");
  std::vector<JsonRecord> records;
  double ref_min = 0.0, ref_max = 0.0, ref_solve_ms = 0.0;
  double core_off_solve_ms = 0.0;
  bool have_ref = false, parity_ok = true;
  for (const Variant& v : variants) {
    AnswerOptions opts;
    opts.bounds.prune = v.prune;
    opts.bounds.mip.use_presolve = v.presolve;
    opts.bounds.mip.use_decomposition = v.decompose;
    opts.bounds.mip.use_lp_bound = v.lp;
    opts.bounds.mip.use_probing = v.probing;
    opts.bounds.mip.use_objective_probing = v.probing;
    opts.bounds.mip.use_cache = v.cache;
    opts.bounds.mip.use_warm_lp = v.warm;
    opts.bounds.mip.use_rc_fixing = v.rc;
    opts.bounds.mip.use_cuts = v.cuts;
    opts.bounds.mip.use_pseudo_cost = v.pc;
    opts.bounds.mip.use_adaptive_prologue = v.adaptive;
    opts.bounds.mip.time_limit_seconds = 600.0;
    // Sequential search: keeps solve_ms comparable across variants (no
    // pool contention) and the node counts deterministic.
    opts.bounds.mip.num_threads = 1;
    auto ans = licm::AnswerAggregate(*query, enc->db, opts);
    if (!ans.ok()) {
      std::printf("%-21s ERROR: %s\n", v.name,
                  ans.status().ToString().c_str());
      return 1;
    }
    const licm::solver::MipStats& st = ans->bounds.stats;
    std::printf("%-21s %7.1f %7.1f %10.1f %10.1f %10.1f %8lld %8lld %8lld "
                "%6lld\n",
                v.name, ans->bounds.min.value, ans->bounds.max.value,
                ans->query_ms, ans->solve_ms, st.cpu_seconds * 1e3,
                static_cast<long long>(st.nodes),
                static_cast<long long>(st.lp_pivots),
                static_cast<long long>(st.rc_fixed_vars),
                static_cast<long long>(st.cuts_generated));
    std::fflush(stdout);
    if (!have_ref) {
      ref_min = ans->bounds.min.value;
      ref_max = ans->bounds.max.value;
      ref_solve_ms = ans->solve_ms;
      have_ref = true;
    } else if (ans->bounds.min.value != ref_min ||
               ans->bounds.max.value != ref_max) {
      std::printf("BOUNDS MISMATCH: %s produced [%g, %g], all-features "
                  "produced [%g, %g]\n",
                  v.name, ans->bounds.min.value, ans->bounds.max.value,
                  ref_min, ref_max);
      parity_ok = false;
    }
    if (std::strcmp(v.name, "core-off") == 0) {
      core_off_solve_ms = ans->solve_ms;
    }
    JsonRecord rec;
    rec.AddString("bench", "solver_ablation")
        .AddString("variant", v.name)
        .AddInt("query", qnum)
        .AddInt("txns", txns)
        .AddInt("k", k)
        .AddRunMetrics(ans->bounds.min.value, ans->bounds.max.value,
                       ans->bounds.min.exact, ans->bounds.max.exact,
                       ans->query_ms, ans->solve_ms, st)
        .AddInt("lp_pivots", st.lp_pivots)
        .AddInt("warm_lp_solves", st.warm_lp_solves)
        .AddInt("rc_fixed_vars", st.rc_fixed_vars)
        .AddInt("cuts_generated", st.cuts_generated)
        .AddInt("strong_branch_solves", st.strong_branch_solves);
    records.push_back(std::move(rec));
  }
  if (!parity_ok) return 1;
  if (core_off_solve_ms > 0.0) {
    std::printf("\nfeatures-on solve_ms %.1f vs core-off %.1f (%.2fx)\n",
                ref_solve_ms, core_off_solve_ms,
                core_off_solve_ms / std::max(ref_solve_ms, 1e-9));
  }
  auto write = WriteBenchJson(out_path, records);
  if (!write.ok()) {
    std::printf("json write failed: %s\n", write.ToString().c_str());
    return 1;
  }
  auto finish = BenchTraceFinish();
  if (!finish.ok()) {
    std::printf("trace export failed: %s\n", finish.ToString().c_str());
    return 1;
  }
  return 0;
}
