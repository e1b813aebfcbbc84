// Shared benchmark harness: datasets, the paper's three evaluation queries
// (Section V-B), anonymization pipelines, and the LICM-vs-Monte-Carlo
// measurement loop used by the Figure 5/6/7 reproductions.
#ifndef LICM_BENCH_HARNESS_H_
#define LICM_BENCH_HARNESS_H_

#include <string>
#include <utility>
#include <vector>

#include "anonymize/licm_encode.h"
#include "licm/evaluator.h"
#include "sampler/monte_carlo.h"

namespace licm::bench {

/// Parameters of the three paper queries, pre-scaled to the synthetic
/// dataset (locations in [0,1000), prices in [0,40)).
struct QueryParams {
  // Query 1: count Pa-transactions containing >= 1 Pb-item. The paper
  // used Pa selectivity 0.5% on 515K transactions (~2.5K qualifying
  // transactions); at laptop scale we widen Pa to 10% so the answer
  // magnitude (hundreds) matches the paper's figures.
  int64_t q1_pa_max_loc = 100;   // loc < 100    (10% of locations)
  int64_t q1_pb_max_price = 10;  // price < 10   (25% of prices)
  // Query 2: count Pa-transactions with >= X Pb-items AND >= Y Pc-items.
  int64_t q2_pa_max_loc = 100;
  int64_t q2_pb_max_price = 10;  // Pb: price < 10  (25%)
  int64_t q2_pc_min_price = 30;  // Pc: price >= 30 (25%)
  int64_t q2_x = 4;
  int64_t q2_y = 2;
  // Query 3: count Pa-transactions containing >= 1 item that appears in
  // >= X Pb-transactions. The paper used selectivity 0.3% and X = 80 at
  // 515K transactions; at laptop scale that predicate is empty, so the
  // defaults widen Pa/Pb to 3% and scale X down, preserving the query
  // shape (mid-tree COUNT + join).
  int64_t q3_pa_max_loc = 50;  // 5%
  int64_t q3_pb_max_loc = 50;  // 5%
  /// Popularity threshold, sized so that item popularity is borderline
  /// (and therefore genuinely uncertain) for mid-tail items at the default
  /// scale — the regime the paper's Query 3 probes.
  int64_t q3_x = 8;
};

/// Builds paper query `qnum` (1..3) over the flattened trans_item view
/// (generalization / suppression encodings).
rel::QueryNodePtr BuildFlatQuery(int qnum, const QueryParams& p);

/// Same queries over the bipartite three-relation encoding, with the
/// transaction/item predicates pushed below the composition joins.
rel::QueryNodePtr BuildBipartiteQuery(int qnum, const QueryParams& p);

enum class Scheme { kKm, kKAnon, kBipartite, kSuppression };
const char* SchemeName(Scheme s);

/// Per-phase wall-time breakdown of one bench cell, derived from the
/// telemetry spans recorded while the cell ran (common/telemetry.h).
/// Parallel phases (search) sum over concurrent strands, so their total
/// can exceed the cell's wall time on multi-thread runs.
struct PhaseBreakdown {
  double encode_ms = 0;     // anonymized data -> LICM database
  double prune_ms = 0;      // constraint-graph pruning
  double decompose_ms = 0;  // connected-component decomposition
  double search_ms = 0;     // branch & bound component searches
  double cache_ms = 0;      // canonical-form fingerprinting for the cache
};

/// One measured cell of Figure 5/6: LICM bounds + MC bounds + timings.
struct CellResult {
  double l_min = 0, l_max = 0;
  bool l_min_exact = true, l_max_exact = true;
  /// Proved outer bounds (== l_min/l_max when exact; wider on time limit).
  double l_min_proved = 0, l_max_proved = 0;
  double m_min = 0, m_max = 0;
  double model_ms = 0;   // anonymized data -> LICM database (L-model)
  double query_ms = 0;   // LICM operator evaluation (L-query)
  double solve_ms = 0;   // both BIP solves (L-solve)
  double mc_ms = 0;      // 20-world Monte Carlo (MC)
  // Figure 7 instrumentation.
  size_t vars_model = 0, cons_model = 0;       // after modeling
  size_t vars_query = 0, cons_query = 0;       // after query processing
  size_t vars_pruned = 0, cons_pruned = 0;     // after pruning
  /// Solver statistics for the LICM solve (nodes, cache hits/misses, ...).
  solver::MipStats solve_stats;
  /// Span-derived wall-time breakdown of the cell (see PhaseBreakdown).
  PhaseBreakdown phases;
};

struct BenchConfig {
  uint32_t num_transactions = 6000;  // generalization-scheme scale
  uint32_t bipartite_transactions = 120;  // permutation instances are
                                          // solver-hard; keep them smaller
  /// Sized for a transactions/items ratio of ~50, comparable in density to
  /// BMS-POS (515K txns / 1657 items); k-anonymity degenerates on sparse
  /// domains.
  uint32_t num_items = 120;
  uint64_t seed = 42;
  int mc_worlds = 20;        // the paper's sample size
  double solver_time_limit = 60.0;
  /// Permutation instances are solver-hard (see DESIGN.md); cap their
  /// solves separately so full sweeps stay laptop-sized.
  double bipartite_time_limit = 15.0;
  uint32_t hierarchy_fanout = 2;
};

/// Solver thread count for bench runs: the LICM_THREADS environment
/// variable when set to a positive integer, else `fallback` (0 =
/// auto-detect, see MipOptions::num_threads). Lets one binary sweep
/// thread counts without rebuilds: `LICM_THREADS=1 ./bench_fig5 ...`.
int ThreadsFromEnv(int fallback = 0);

/// Aggregates the spans recorded since `since_ns` (a telemetry::NowNs()
/// mark) into a PhaseBreakdown.
PhaseBreakdown PhasesSince(int64_t since_ns);

/// Starts the process-wide trace session every bench binary records into.
/// Collection is always on (its cost is noise at bench event volumes);
/// the LICM_TRACE=<path> environment variable controls whether
/// BenchTraceFinish() exports the trace.
void BenchTraceInit();

/// Stops tracing and, when LICM_TRACE=<path> is set, writes the Chrome
/// trace-event JSON to <path> and a per-phase summary to <path>.phases.json.
Status BenchTraceFinish();

/// Runs one (scheme, query, k) cell end to end.
Result<CellResult> RunCell(Scheme scheme, int qnum, uint32_t k,
                           const BenchConfig& config,
                           const QueryParams& params);

/// One flat JSON object, keys in insertion order. Values are rendered at
/// Add time; no external JSON dependency. Used for the machine-readable
/// BENCH_*.json files every bench binary writes next to its stdout table.
class JsonRecord {
 public:
  JsonRecord& AddString(const std::string& key, const std::string& value);
  JsonRecord& AddNumber(const std::string& key, double value);
  JsonRecord& AddInt(const std::string& key, int64_t value);
  JsonRecord& AddBool(const std::string& key, bool value);

  /// The standard per-run measurement block: bound values, exactness,
  /// wall times (including the wall/CPU solve split), node count, and
  /// cache hit rate derived from `stats`.
  JsonRecord& AddRunMetrics(double min_value, double max_value,
                            bool min_exact, bool max_exact, double query_ms,
                            double solve_ms, const solver::MipStats& stats);

  /// The per-phase wall-time block: encode/prune/decompose/search/cache
  /// milliseconds from the telemetry spans.
  JsonRecord& AddPhaseBreakdown(const PhaseBreakdown& phases);

  /// Renders as {"key":value,...}.
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Peak resident set size of this process in kilobytes, via
/// getrusage(RUSAGE_SELF). Monotone over the process lifetime.
int64_t PeakRssKb();

/// Writes `records` to `path` as a JSON array (one object per line).
/// Every record is prefixed with provenance fields — git_sha, build_type,
/// hardware_concurrency, max_rss_kb, and the process metrics-registry
/// totals (solver nodes / rows scanned / constraints emitted / arena
/// bytes at write time) — so BENCH_*.json trajectories stay comparable
/// across commits and machines, and memory/work regressions are visible
/// alongside wall times.
Status WriteBenchJson(const std::string& path,
                      const std::vector<JsonRecord>& records);

/// Appends rows to an existing BENCH file (written by WriteBenchJson),
/// preserving its rows; starts a fresh file when `path` is missing or
/// not a bench array. Lets multi-phase drivers (e.g. licm_client runs
/// against several server topologies) accumulate one comparable file.
Status AppendBenchJson(const std::string& path,
                       const std::vector<JsonRecord>& records);

}  // namespace licm::bench

#endif  // LICM_BENCH_HARNESS_H_
