// Ablation bench for the solver design choices DESIGN.md calls out:
// presolve, decomposition, the node LP, probing, pruning, the solve cache
// — plus the features that consume the node LP (reduced-cost fixing,
// cardinality cuts, pseudo-cost branching). Runs one paper query with
// each feature toggled off and reports solve time, node counts, and the
// LP-core counters.
//
// Every solve is fixed work: one thread and a 2000-node budget per
// component, so node counts are deterministic and an unproved side is a
// budget stop, not a deadline. Variants must agree with the all-features
// bounds: sides both variants prove must be equal, and an unproved side's
// [found, proved] interval must contain the other's exact answer. Any
// disagreement fails the run.
//
// Usage: bench_solver_ablation [scheme] [query] [num_transactions] [k]
//                              [seed] [out.json]
//   scheme: kanon (k-anonymity, 400 items, fanout-16 hierarchy) or
//           bipartite (safe grouping, 120 items, Query-3 threshold scaled
//           to the transaction count).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "anonymize/grouping.h"
#include "harness.h"

namespace {

// Does the side's [found, proved] interval contain `x`?
bool Contains(const licm::BoundSide& s, double x, bool is_min) {
  return is_min ? s.proved <= x && x <= s.value
                : s.value <= x && x <= s.proved;
}

bool SidesAgree(const licm::BoundSide& a, const licm::BoundSide& b,
                bool is_min) {
  if (a.exact && b.exact) return a.value == b.value;
  if (a.exact) return Contains(b, a.value, is_min);
  if (b.exact) return Contains(a, b.value, is_min);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace licm::bench;
  using licm::AnswerOptions;

  BenchTraceInit();
  std::string scheme = argc > 1 ? argv[1] : "kanon";
  const bool bipartite = scheme == "bipartite";
  int qnum = argc > 2 ? std::atoi(argv[2]) : 3;
  if ((!bipartite && scheme != "kanon") || qnum < 1 || qnum > 3) {
    // Older CLIs took the query (or txns) first; fail loudly instead of
    // letting a stale invocation run a different cell.
    std::printf(
        "usage: bench_solver_ablation [kanon|bipartite] [query 1-3] [txns] "
        "[k] [seed] [out.json]\n  got scheme=%s query=%d\n",
        scheme.c_str(), qnum);
    return 2;
  }
  uint32_t txns = bipartite ? 90 : 600;
  uint32_t k = bipartite ? 4 : 25;
  uint64_t seed = 42;
  std::string out_path = "BENCH_solver_ablation.json";
  if (argc > 3) txns = std::atoi(argv[3]);
  if (argc > 4) k = std::atoi(argv[4]);
  if (argc > 5) seed = std::strtoull(argv[5], nullptr, 10);
  if (argc > 6) out_path = argv[6];

  licm::data::GeneratorConfig gen;
  gen.num_transactions = txns;
  gen.num_items = bipartite ? 120 : 400;
  gen.seed = seed;
  auto dataset = licm::data::GenerateTransactions(gen);
  licm::Result<licm::anonymize::EncodedDb> enc =
      licm::Status::Internal("unset");
  QueryParams params;
  if (bipartite) {
    auto groups = licm::anonymize::SafeGrouping(dataset, {k, 2, seed});
    if (!groups.ok()) {
      std::printf("grouping failed: %s\n",
                  groups.status().ToString().c_str());
      return 1;
    }
    enc = licm::anonymize::EncodeBipartite(*groups, dataset);
    // Popularity threshold scaled with the transaction count, as in
    // RunCell, so Query 3 stays non-trivial at bipartite scale.
    params.q3_x = std::max<int64_t>(2, params.q3_x * std::min(txns, 6000u) /
                                           6000);
  } else {
    auto hierarchy =
        licm::anonymize::Hierarchy::BuildUniform(dataset.num_items, 16);
    auto anon = licm::anonymize::KAnonymize(dataset, hierarchy, {k});
    if (!anon.ok()) {
      std::printf("anonymize failed: %s\n",
                  anon.status().ToString().c_str());
      return 1;
    }
    enc = licm::anonymize::EncodeGeneralized(*anon, hierarchy, dataset);
  }
  if (!enc.ok()) {
    std::printf("encode failed: %s\n", enc.status().ToString().c_str());
    return 1;
  }
  auto query = bipartite ? BuildBipartiteQuery(qnum, params)
                         : BuildFlatQuery(qnum, params);

  struct Variant {
    const char* name;
    // Pipeline features.
    bool prune, presolve, decompose, lp, probing, cache;
    // Consumers of the node LP.
    bool rc, cuts, pc;
  };
  constexpr bool T = true, F = false;
  const Variant variants[] = {
      {"all-features", T, T, T, T, T, T, T, T, T},
      // One node-LP consumer off at a time.
      {"no-rc-fixing", T, T, T, T, T, T, F, T, T},
      {"no-cuts", T, T, T, T, T, T, T, F, T},
      {"no-pseudo-cost", T, T, T, T, T, T, T, T, F},
      // Node LP off, and with it every feature that consumes it.
      {"core-off", T, T, T, F, T, T, F, F, F},
      // Pipeline ablations.
      {"no-prune", F, T, T, T, T, T, T, T, T},
      {"no-presolve", T, F, T, T, T, T, T, T, T},
      {"no-decompose", T, T, F, T, T, T, T, T, T},
      {"no-probing", T, T, T, T, F, T, T, T, T},
      {"no-cache", T, T, T, T, T, F, T, T, T},
  };

  std::printf("# Solver/pipeline ablation on Query %d, %s k=%u, %u txns, "
              "seed %llu\n",
              qnum, bipartite ? "bipartite" : "k-anonymity", k, txns,
              static_cast<unsigned long long>(seed));
  // solve_ms is wall time of the outermost solve; cpu_ms sums the branch &
  // bound work across strands (equal when sequential). exact marks the
  // sides proved within the node budget. pivots / rc_fixed / cuts count
  // the node LP's work (zero when it is off or every component exceeds
  // its size gate).
  std::printf("%-15s %7s %7s %5s %10s %10s %10s %8s %8s %8s %6s\n",
              "variant", "min", "max", "exact", "query_ms", "solve_ms",
              "cpu_ms", "nodes", "pivots", "rc_fixed", "cuts");
  std::vector<JsonRecord> records;
  licm::AggregateBounds ref;
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
    opts.bounds.mip.use_rc_fixing = v.rc;
    opts.bounds.mip.use_cuts = v.cuts;
    opts.bounds.mip.use_pseudo_cost = v.pc;
    // Fixed work: sequential search (deterministic node counts, no pool
    // contention in solve_ms) stopped by the node budget, never the clock.
    opts.bounds.mip.num_threads = 1;
    opts.bounds.mip.max_nodes_per_component = 2000;
    opts.bounds.mip.time_limit_seconds = 3600.0;
    auto ans = licm::AnswerAggregate(*query, enc->db, opts);
    if (!ans.ok()) {
      std::printf("%-15s ERROR: %s\n", v.name,
                  ans.status().ToString().c_str());
      return 1;
    }
    const licm::AggregateBounds& b = ans->bounds;
    const licm::solver::MipStats& st = b.stats;
    const char* exact = b.min.exact && b.max.exact ? "both"
                        : b.min.exact              ? "min"
                        : b.max.exact              ? "max"
                                                   : "none";
    std::printf("%-15s %7.1f %7.1f %5s %10.1f %10.1f %10.1f %8lld %8lld "
                "%8lld %6lld\n",
                v.name, b.min.value, b.max.value, exact, ans->query_ms,
                ans->solve_ms, st.cpu_seconds * 1e3,
                static_cast<long long>(st.nodes),
                static_cast<long long>(st.lp_pivots),
                static_cast<long long>(st.rc_fixed_vars),
                static_cast<long long>(st.cuts_generated));
    std::fflush(stdout);
    if (!have_ref) {
      ref = b;
      have_ref = true;
    } else if (!SidesAgree(ref.min, b.min, /*is_min=*/true) ||
               !SidesAgree(ref.max, b.max, /*is_min=*/false)) {
      std::printf("BOUNDS MISMATCH: %s produced [%g, %g] (proved [%g, %g]), "
                  "all-features produced [%g, %g] (proved [%g, %g])\n",
                  v.name, b.min.value, b.max.value, b.min.proved,
                  b.max.proved, ref.min.value, ref.max.value,
                  ref.min.proved, ref.max.proved);
      parity_ok = false;
    }
    JsonRecord rec;
    rec.AddString("bench", "solver_ablation")
        .AddString("scheme", bipartite ? "bipartite" : "kanon")
        .AddString("variant", v.name)
        .AddInt("query", qnum)
        .AddInt("txns", txns)
        .AddInt("k", k)
        .AddInt("seed", static_cast<int64_t>(seed))
        .AddRunMetrics(b.min.value, b.max.value, b.min.exact, b.max.exact,
                       ans->query_ms, ans->solve_ms, st)
        .AddInt("lp_pivots", st.lp_pivots)
        .AddInt("warm_lp_solves", st.warm_lp_solves)
        .AddInt("rc_fixed_vars", st.rc_fixed_vars)
        .AddInt("cuts_generated", st.cuts_generated)
        .AddInt("strong_branch_solves", st.strong_branch_solves);
    records.push_back(std::move(rec));
  }
  if (!parity_ok) return 1;
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
