// paper-offline: closed-loop, single-threaded answering of prebuilt Fig 5/6
// cells (one AnswerAggregate call per answer), round-robin over every cell
// in each pass. Traced runs add the 20-world Monte-Carlo baseline on a
// fixed odd-sized subset of cells every pass.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "licm/aggregate.h"
#include "common/telemetry.h"
#include "licm/columnar_ops.h"
#include "relational/batch.h"
#include "sampler/monte_carlo.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace anonymize = licm::anonymize;

struct CellSpec {
  size_t instance = 0;  // index into the workload's instances
  int qnum = 1;
};

struct WorkloadShape {
  std::vector<InstanceSpec> instances;
  std::vector<CellSpec> cells;
  /// Cells whose MC baseline runs once per pass (odd count, so the
  /// median is one cell's own median).
  std::vector<size_t> mc_cells;
  int64_t node_budget = 2000;
};

// The datasets are a fixed panel (generator seeds 42, 43, ..., 42 being
// the repository's default), so every run seed answers the same cells and
// run-to-run spread measures the host, not the instance mix. The run seed
// drives the order of work.
constexpr uint64_t kPanelSeed = 42;

// Fig 5/6 cell shapes at 2000 transactions: k^m- and k-anonymity x
// Q1-Q3 x k in {4, 8} x three datasets, without the k-anonymity Q3
// monolith (one component that runs into the node budget). MC on Q1 cells
// of three datasets.
WorkloadShape PaperOffline() {
  WorkloadShape w;
  for (uint64_t d = 0; d < 3; ++d) {
    for (Scheme scheme : {Scheme::kKm, Scheme::kKAnon}) {
      for (uint32_t k : {4u, 8u}) {
        InstanceSpec spec;
        spec.scheme = scheme;
        spec.k = k;
        spec.transactions = 2000;
        spec.seed = kPanelSeed + d;
        w.instances.push_back(spec);
        for (int q = 1; q <= 3; ++q) {
          if (scheme == Scheme::kKAnon && q == 3) continue;
          w.cells.push_back({w.instances.size() - 1, q});
        }
      }
    }
  }
  // One k^m Q1 cell (k = 4) of each dataset.
  for (size_t c = 0; c < w.cells.size(); ++c) {
    const InstanceSpec& s = w.instances[w.cells[c].instance];
    if (s.scheme == Scheme::kKm && s.k == 4 && w.cells[c].qnum == 1) {
      w.mc_cells.push_back(c);
    }
  }
  return w;
}

// One answer through the layers' public calls, each wrapped in a span:
// the traced twin of AnswerAggregate's columnar path. ComputeBounds prunes
// internally; the library's own telemetry span around that Prune call
// (recorded while a traced pass runs) gives the prune time, so the traced
// path does no work the untraced one skips.
Result<licm::AggregateAnswer> TracedAnswer(const licm::rel::QueryNode& query,
                                           const licm::LicmDatabase& base,
                                           const licm::AnswerOptions& opts,
                                           SpanLog* log) {
  ScopedSpan answer_span(log, "answer");
  licm::AggregateAnswer out;
  licm::LicmDatabase db = base;
  licm::Objective obj;
  {
    ScopedSpan span(log, "licm.eval");
    licm::ColumnarLicmContext ctx(
        licm::OpContext{&db.pool(), &db.constraints()});
    LICM_ASSIGN_OR_RETURN(licm::LicmBatch result,
                          licm::EvaluateLicmBatch(*query.left, &db, &ctx));
    LICM_ASSIGN_OR_RETURN(result, licm::MergeDuplicatesBatch(result, &ctx));
    const uint32_t* rows = licm::rel::ActiveRows(result.view, &ctx.arena);
    for (size_t i = 0; i < result.view.active; ++i) {
      const licm::Ext e = result.exts[rows[i]];
      if (e.certain()) {
        obj.constant += 1.0;
      } else {
        obj.coefs[e.var()] += 1.0;
      }
    }
  }
  out.vars_at_query = db.pool().size();
  out.constraints_at_query = db.constraints().size();
  {
    ScopedSpan span(log, "solver.bounds");
    LICM_ASSIGN_OR_RETURN(
        out.bounds,
        licm::ComputeBounds(obj, db.constraints(),
                            static_cast<uint32_t>(db.pool().size()),
                            opts.bounds));
  }
  return out;
}

// Total duration in ms of the library's telemetry spans with this name
// recorded in the current session.
double TelemetryMs(const char* name) {
  int64_t ns = 0;
  for (const licm::telemetry::Event& e : licm::telemetry::Snapshot()) {
    if (e.phase == 'X' && std::strcmp(e.name, name) == 0) ns += e.dur_ns;
  }
  return ns / 1e6;
}

struct Cell {
  CellSpec spec;
  std::string label;
  licm::rel::QueryNodePtr query;
  double truth = 0.0;  // answer in the original world
  bool have_reference = false;
  licm::AggregateBounds reference;
  AnswerCounters counters;
  bool have_mc_reference = false;
  std::vector<double> mc_samples;
  std::vector<double> ms;  // answer latencies
  std::vector<double> traced_ms, untraced_ms;  // traced runs only
};

}  // namespace

Result<RunReport> RunPaperOffline(const RunArgs& args) {
  const WorkloadShape shape = PaperOffline();
  RunReport report;

  // --- Set-up: the paper's L-model phase. One repetition builds the
  // instances that are answered; the others run between timed passes and
  // keep only their times.
  std::vector<double> setup_s;
  std::vector<BuildTimes> setup_times;
  auto set_up = [&](std::vector<anonymize::EncodedDb>* keep) -> Status {
    BuildTimes times;
    const int64_t t0 = NowNs();
    for (const InstanceSpec& spec : shape.instances) {
      LICM_ASSIGN_OR_RETURN(anonymize::EncodedDb enc,
                            BuildInstance(spec, &times));
      if (keep != nullptr) keep->push_back(std::move(enc));
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    setup_times.push_back(times);
    return Status::OK();
  };
  std::vector<anonymize::EncodedDb> encs;
  LICM_RETURN_NOT_OK(set_up(&encs));
  double model_vars = 0, model_constraints = 0;
  for (const auto& enc : encs) {
    model_vars += enc.db.pool().size();
    model_constraints += enc.db.constraints().size();
  }

  std::vector<Cell> cells;
  for (const CellSpec& cs : shape.cells) {
    Cell cell;
    cell.spec = cs;
    const InstanceSpec& is = shape.instances[cs.instance];
    char label[96];
    std::snprintf(label, sizeof label, "%s k=%u txns=%u seed=%llu Q%d",
                  SchemeName(is.scheme), is.k, is.transactions,
                  static_cast<unsigned long long>(is.seed), cs.qnum);
    cell.label = label;
    cell.query = PaperQuery(is, cs.qnum);
    LICM_ASSIGN_OR_RETURN(cell.truth,
                          OriginalWorldAnswer(encs[cs.instance], *cell.query));
    cells.push_back(std::move(cell));
  }

  // Round-robin order over the cells, drawn from the run seed.
  std::vector<size_t> order(cells.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 order_rng(args.seed);
  std::shuffle(order.begin(), order.end(), order_rng);

  const licm::AnswerOptions opts = FixedWorkOptions(shape.node_budget);
  licm::sampler::MonteCarloOptions mco;
  mco.num_worlds = 20;  // the paper's sample size; its sampling seed is
                        // fixed so that every run samples the same worlds

  // Per-answer observations.
  std::vector<double> pass_ms;  // answer latencies of the current pass
  double answers = 0, sides = 0, exact_sides = 0, open_gap = 0;
  double cache_hits = 0, cache_lookups = 0, node_cap_hits = 0;
  double sum_nodes = 0, sum_components = 0, sum_pivots = 0, sum_warm = 0;
  double sum_fixed = 0, sum_vars_q = 0, sum_cons_q = 0;
  double prune_before = 0, prune_after = 0;
  std::vector<double> solver_cpu_ms, solver_self_ms, prune_ms_log;
  SpanLog spans;

  // Checks one answer against its cell's reference (bit-identical
  // bounds, identical counters) and the original world.
  auto check = [&](Cell& cell, const licm::AggregateAnswer& ans) {
    const AnswerCounters c = CountersOf(ans);
    if (!cell.have_reference) {
      cell.reference = ans.bounds;
      cell.counters = c;
      cell.have_reference = true;
    } else {
      if (!SameBounds(ans.bounds, cell.reference)) {
        report.Fail(cell.label + ": bounds differ from the first pass");
      }
      if (!(c == cell.counters)) {
        report.Fail(cell.label + ": solver counters differ from the first pass");
      }
    }
    if (cell.truth < ans.bounds.min.proved ||
        cell.truth > ans.bounds.max.proved) {
      report.Fail(cell.label + ": original-world answer outside the proved "
                  "interval");
    }
  };

  // Answers one cell and checks it; only timed answers enter the metrics.
  auto answer_cell = [&](Cell& cell, bool traced, bool timed) {
    const licm::LicmDatabase& db = encs[cell.spec.instance].db;
    if (traced) licm::telemetry::StartTracing();
    const int64_t t0 = NowNs();
    Result<licm::AggregateAnswer> ans =
        traced ? TracedAnswer(*cell.query, db, opts, &spans)
               : licm::AnswerAggregate(*cell.query, db, opts);
    const double ms = (NowNs() - t0) / 1e6;
    if (traced) licm::telemetry::StopTracing();
    ++report.attempted;
    if (!ans.ok()) {
      report.Fail(cell.label + ": " + ans.status().ToString());
      return;
    }
    check(cell, *ans);
    if (!timed) return;
    cell.ms.push_back(ms);
    pass_ms.push_back(ms);
    (traced ? cell.traced_ms : cell.untraced_ms).push_back(ms);
    const auto& st = ans->bounds.stats;
    answers += 1;
    sides += 2;
    exact_sides += (ans->bounds.min.exact ? 1 : 0) +
                   (ans->bounds.max.exact ? 1 : 0);
    node_cap_hits += (ans->bounds.min.exact && ans->bounds.max.exact) ? 0 : 1;
    open_gap += OpenGap(ans->bounds);
    cache_hits += st.cache_hits;
    cache_lookups += st.cache_hits + st.cache_misses;
    sum_nodes += st.nodes;
    sum_components += st.components;
    sum_pivots += st.lp_pivots;
    sum_warm += st.warm_lp_solves;
    sum_fixed += st.presolve_fixed_vars;
    sum_vars_q += ans->vars_at_query;
    sum_cons_q += ans->constraints_at_query;
    solver_cpu_ms.push_back(st.cpu_seconds * 1e3);
    prune_before += ans->bounds.prune_stats.constraints_before;
    prune_after += ans->bounds.prune_stats.constraints_after;
    if (traced) {
      const double prune_ms = TelemetryMs("prune");
      prune_ms_log.push_back(prune_ms);
      solver_self_ms.push_back(spans.SelfMs("solver.bounds").back() - prune_ms);
    }
  };

  auto run_mc = [&](Cell& cell) {
    const anonymize::EncodedDb& enc = encs[cell.spec.instance];
    ++report.attempted;
    spans.Begin("sampler.mc");
    auto mc = licm::sampler::MonteCarloBounds(enc.db, enc.structure,
                                              *cell.query, mco);
    spans.End();
    if (!mc.ok()) {
      report.Fail(cell.label + " MC: " + mc.status().ToString());
      return;
    }
    for (double s : mc->samples) {
      if (s < cell.reference.min.proved || s > cell.reference.max.proved) {
        report.Fail(cell.label + ": MC sample outside the proved interval");
      }
    }
    if (!cell.have_mc_reference) {
      cell.mc_samples = mc->samples;
      cell.have_mc_reference = true;
    } else if (mc->samples != cell.mc_samples) {
      report.Fail(cell.label + ": MC samples differ between passes");
    }
  };

  // --- Warm-up pass (untimed): fills the allocator and the caches, and
  // records the references every later pass is checked against.
  for (size_t i : order) answer_cell(cells[i], false, false);

  // --- Timed loop: whole passes until the run length is reached and at
  // least 8 passes are in, so that the faster half holds >= 100 answers.
  // A set-up repetition follows each pass, untimed by the pass: spread
  // over the run, the repetitions see the host's slow and fast phases in
  // the same shares as the passes do, which a burst of them would not.
  struct Pass {
    double s = 0.0;
    double cpu_ms = 0.0;
    std::vector<double> answer_ms;
  };
  std::vector<Pass> timed;
  const int64_t loop0 = NowNs();
  while ((NowNs() - loop0) / 1e9 < args.seconds || timed.size() < 8) {
    // Traced runs alternate traced and untraced passes, which gives the
    // tracing overhead from one process.
    const bool traced = args.trace && timed.size() % 2 == 0;
    const double cpu0 = ProcessCpuMs();
    const int64_t t0 = NowNs();
    pass_ms.clear();
    for (size_t i : order) answer_cell(cells[i], traced, true);
    if (args.trace) {
      for (size_t c : shape.mc_cells) run_mc(cells[c]);
    }
    timed.push_back({(NowNs() - t0) / 1e9, ProcessCpuMs() - cpu0, pass_ms});
    LICM_RETURN_NOT_OK(set_up(nullptr));
  }
  const double loop_s = (NowNs() - loop0) / 1e9;

  // --- Determinism digest: references in cell order.
  Digest digest;
  for (const Cell& cell : cells) {
    digest.AddDouble(cell.reference.min.value);
    digest.AddDouble(cell.reference.min.proved);
    digest.AddDouble(cell.reference.max.value);
    digest.AddDouble(cell.reference.max.proved);
    digest.AddCounters(cell.counters);
  }
  report.digest = digest.Hex();
  for (const Cell& cell : cells) {
    std::fprintf(stderr,
                 "cell %-44s p50 %9.2f ms  min %g%s [%g]  max %g%s [%g]  "
                 "nodes %lld\n",
                 cell.label.c_str(), Median(cell.ms), cell.reference.min.value,
                 cell.reference.min.exact ? "" : "~", cell.reference.min.proved,
                 cell.reference.max.value, cell.reference.max.exact ? "" : "~",
                 cell.reference.max.proved,
                 static_cast<long long>(cell.counters.nodes));
  }
  std::fprintf(stderr, "passes=%zu answers=%.0f mc_runs=%zu loop_s=%.2f pass_s:",
               timed.size(), answers, spans.SelfMs("sampler.mc").size(),
               loop_s);
  for (const Pass& pass : timed) std::fprintf(stderr, " %.2f", pass.s);
  std::fprintf(stderr, "\n");

  if (!args.trace) {
    // Every pass does the same work (the checks hold each cell's bounds
    // and solver counters fixed), so what passes differ by is the host.
    // On a shared machine that comes in phases of tens of seconds in which
    // memory-bound code runs markedly slower. The metrics take the faster
    // half of the passes.
    std::sort(timed.begin(), timed.end(),
              [](const Pass& a, const Pass& b) { return a.s < b.s; });
    timed.resize((timed.size() + 1) / 2);
    std::vector<double> answer_ms;
    double fast_s = 0, fast_cpu_ms = 0;
    for (const Pass& pass : timed) {
      answer_ms.insert(answer_ms.end(), pass.answer_ms.begin(),
                       pass.answer_ms.end());
      fast_s += pass.s;
      fast_cpu_ms += pass.cpu_ms;
    }
    const double fast_answers = static_cast<double>(answer_ms.size());
    report.Add("setup_s", Median(setup_s));
    report.Add("answer_ms_p50", Median(answer_ms));
    report.Add("answer_ms_p90", Quantile(answer_ms, 0.9));
    report.Add("answers_per_s", fast_answers / fast_s);
    report.Add("cpu_ms_per_answer", fast_cpu_ms / fast_answers);
    report.Add("exact_side_frac", exact_sides / sides);
    report.Add("peak_rss_mb", licm::bench::PeakRssKb() / 1024.0);
    return report;
  }

  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const BuildTimes& t : setup_times) v.push_back(t.*field);
    return Median(v);
  };
  report.Add("data.generate_ms", median_of(&BuildTimes::generate_ms));
  report.Add("anonymize.anonymize_ms", median_of(&BuildTimes::anonymize_ms));
  report.Add("anonymize.encode_ms", median_of(&BuildTimes::encode_ms));
  report.Add("anonymize.vars", model_vars);
  report.Add("anonymize.constraints", model_constraints);
  report.Add("licm.eval_ms", Median(spans.SelfMs("licm.eval")));
  report.Add("licm.vars_at_query", sum_vars_q / answers);
  report.Add("licm.constraints_at_query", sum_cons_q / answers);
  report.Add("licm.prune_ms", Median(prune_ms_log));
  report.Add("licm.prune_kept_frac",
             prune_before > 0 ? prune_after / prune_before : 0.0);
  report.Add("solver.solve_ms", Median(solver_self_ms));
  report.Add("solver.cpu_ms", Median(solver_cpu_ms));
  report.Add("solver.components", sum_components / answers);
  report.Add("solver.cache_hit_frac",
             cache_lookups > 0 ? cache_hits / cache_lookups : 0.0);
  report.Add("solver.presolve_fixed_vars", sum_fixed / answers);
  report.Add("solver.nodes", sum_nodes / answers);
  report.Add("solver.node_cap_hits", node_cap_hits / timed.size());
  report.Add("solver.lp_pivots", sum_pivots / answers);
  report.Add("solver.warm_lp_solves", sum_warm / answers);
  report.Add("solver.open_gap_mean", open_gap / answers);
  report.Add("sampler.mc_ms_per_world",
             Median(spans.SelfMs("sampler.mc")) / mco.num_worlds);
  // Tracing overhead: per cell, traced over untraced median latency;
  // the median of those ratios keeps the cell mix out of the figure.
  std::vector<double> ratios;
  for (const Cell& cell : cells) {
    if (cell.traced_ms.empty() || cell.untraced_ms.empty()) continue;
    ratios.push_back(Median(cell.traced_ms) / Median(cell.untraced_ms));
  }
  report.Add("trace.overhead_frac", Median(ratios) - 1.0);
  return report;
}

}  // namespace perfbench
