// Query-path benchmark: the LICM operator pipeline on the paper's Query
// 1/2/3, at two workload scales. The report is the L-query wall time split
// from encode and solve, plus base-relation rows/s through the operator
// pipeline, with the bounds and solver counters bench_diff gates. Writes
// BENCH_query.json.
//
// Usage: bench_query_path [txns_small] [txns_large] [k] [items] [fanout]
//                         [queries] [repeats] [out.json]
// `queries` is a digit string, e.g. "13" runs Query 1 and Query 3.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "harness.h"

namespace {

struct RunOutcome {
  double min = 0, max = 0;
  bool min_exact = false, max_exact = false;
  double total_ms = 0;  // full AnswerAggregate wall time
  double query_ms = 0, solve_ms = 0;
  licm::solver::MipStats stats;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace licm::bench;
  using licm::AnswerOptions;

  BenchTraceInit();
  uint32_t txns_small = 400, txns_large = 2000;
  uint32_t k = 25, items = 400, fanout = 16;
  std::string queries = "123";
  int repeats = 3;
  std::string out_path = "BENCH_query.json";
  if (argc > 1) txns_small = std::atoi(argv[1]);
  if (argc > 2) txns_large = std::atoi(argv[2]);
  if (argc > 3) k = std::atoi(argv[3]);
  if (argc > 4) items = std::atoi(argv[4]);
  if (argc > 5) fanout = std::atoi(argv[5]);
  if (argc > 6) queries = argv[6];
  if (argc > 7) repeats = std::atoi(argv[7]);
  if (argc > 8) out_path = argv[8];
  if (repeats < 1) repeats = 1;

  std::printf("# Query-path benchmark, k=%u\n", k);
  std::printf("%-6s %-7s %9s %9s %10s %10s %12s\n", "txns", "query", "min",
              "max", "query_ms", "solve_ms", "rows/s");

  std::vector<JsonRecord> records;

  for (uint32_t txns : {txns_small, txns_large}) {
    if (txns == 0) continue;
    licm::data::GeneratorConfig gen;
    gen.num_transactions = txns;
    gen.num_items = items;
    licm::data::TransactionDataset dataset =
        licm::data::GenerateTransactions(gen);
    licm::StopWatch encode_watch;
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
    const double encode_ms = encode_watch.ElapsedMs();
    auto base = enc->db.GetRelation("trans_item");
    if (!base.ok()) {
      std::printf("no trans_item relation: %s\n",
                  base.status().ToString().c_str());
      return 1;
    }
    const size_t base_rows = (*base)->size();

    auto run = [&](int qnum) -> licm::Result<RunOutcome> {
      auto query = BuildFlatQuery(qnum, QueryParams{});
      AnswerOptions opts;
      // Deterministic solver configuration (as in bench_solve_cache): a
      // node cap instead of wall-clock limits, sequential search, so the
      // bounds, exactness flags and node counts repeat bit for bit.
      opts.bounds.mip.time_limit_seconds = 1e9;
      opts.bounds.mip.max_nodes_per_component = 200'000;
      opts.bounds.mip.num_threads = 1;
      licm::StopWatch watch;
      LICM_ASSIGN_OR_RETURN(auto ans,
                            licm::AnswerAggregate(*query, enc->db, opts));
      RunOutcome out;
      out.total_ms = watch.ElapsedMs();
      out.min = ans.bounds.min.value;
      out.max = ans.bounds.max.value;
      out.min_exact = ans.bounds.min.exact;
      out.max_exact = ans.bounds.max.exact;
      out.query_ms = ans.query_ms;
      out.solve_ms = ans.solve_ms;
      out.stats = ans.bounds.stats;
      return out;
    };

    // Best-of-N query times: the pipeline is deterministic and
    // allocation-heavy, so the minimum is the right point estimate.
    auto run_best = [&](int qnum) -> licm::Result<RunOutcome> {
      LICM_ASSIGN_OR_RETURN(RunOutcome best, run(qnum));
      for (int i = 1; i < repeats; ++i) {
        LICM_ASSIGN_OR_RETURN(RunOutcome r, run(qnum));
        if (r.query_ms < best.query_ms) best = r;
      }
      return best;
    };

    for (char qc : queries) {
      if (qc < '1' || qc > '3') continue;
      const int qnum = qc - '0';
      auto r = run_best(qnum);
      if (!r.ok()) {
        std::printf("query %d ERROR: %s\n", qnum,
                    r.status().ToString().c_str());
        return 1;
      }
      const double rows_per_s =
          r->query_ms > 0 ? base_rows / (r->query_ms / 1000.0) : 0.0;
      std::printf("%-6u %-7d %9.1f %9.1f %10.2f %10.2f %12.0f\n", txns, qnum,
                  r->min, r->max, r->query_ms, r->solve_ms, rows_per_s);
      JsonRecord rec;
      rec.AddString("bench", "query_path")
          .AddString("scheme", "kanon")
          .AddInt("query", qnum)
          .AddString("engine", "columnar")  // identity key of baseline rows
          .AddInt("num_transactions", txns)
          .AddInt("base_rows", static_cast<int64_t>(base_rows))
          .AddInt("k", k)
          .AddNumber("total_ms", r->total_ms)
          .AddNumber("encode_ms", encode_ms)
          .AddNumber("rows_per_s", rows_per_s)
          .AddRunMetrics(r->min, r->max, r->min_exact, r->max_exact,
                         r->query_ms, r->solve_ms, r->stats);
      records.push_back(std::move(rec));
      std::fflush(stdout);
    }
  }

  auto finish = BenchTraceFinish();
  if (!finish.ok()) {
    std::printf("trace export failed: %s\n", finish.ToString().c_str());
    return 1;
  }
  auto write = WriteBenchJson(out_path, records);
  if (!write.ok()) {
    std::printf("json write failed: %s\n", write.ToString().c_str());
    return 1;
  }
  std::printf("\nresults -> %s\n", out_path.c_str());
  return 0;
}
