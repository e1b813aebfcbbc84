// Shared pieces of the repository benchmark: instance building (the
// paper's L-model phase, timed step by step), the paper's three queries
// from bench/harness.h, run bookkeeping, and the span log the traced runs
// record around each layer's calls.
#ifndef LICM_PERFBENCH_WORKLOAD_H_
#define LICM_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "anonymize/licm_encode.h"
#include "common/status.h"
#include "harness.h"
#include "licm/evaluator.h"
#include "relational/query.h"

namespace perfbench {

using licm::Result;
using licm::Status;

using licm::bench::Scheme;
using licm::bench::SchemeName;

/// One anonymized dataset: generator size and seed, scheme and k.
struct InstanceSpec {
  Scheme scheme = Scheme::kKAnon;
  uint32_t k = 4;
  uint32_t transactions = 2000;
  uint32_t items = 120;
  uint64_t seed = 1;
};

/// Wall time of each L-model step of one or more instance builds.
struct BuildTimes {
  double generate_ms = 0.0;
  double anonymize_ms = 0.0;
  double encode_ms = 0.0;
};

/// Generates, anonymizes and encodes one instance, adding each step's
/// wall time to *times.
Result<licm::anonymize::EncodedDb> BuildInstance(const InstanceSpec& spec,
                                                 BuildTimes* times);

/// Paper query `qnum` (1..3, Section V-B) over the instance's encoding,
/// with bench/harness.h's parameters. The Query-3 popularity threshold
/// scales with the transaction count.
licm::rel::QueryNodePtr PaperQuery(const InstanceSpec& spec, int qnum);

/// The query's answer in the encoding's original (pre-anonymization)
/// world, which every proved interval must contain.
Result<double> OriginalWorldAnswer(const licm::anonymize::EncodedDb& enc,
                                   const licm::rel::QueryNode& query);

/// Solver options of every offline answer: one thread, a per-component
/// node budget, and a wall-clock limit far above what the budget takes,
/// so no answer depends on timing.
licm::AnswerOptions FixedWorkOptions(int64_t node_budget);

/// Deterministic counters of one answer. Two answers to the same cell
/// must agree on every field; the determinism self-check compares them.
struct AnswerCounters {
  int64_t nodes = 0;
  int64_t components = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t lp_pivots = 0;
  int64_t warm_lp_solves = 0;
  int64_t presolve_fixed_vars = 0;
  int64_t vars_at_query = 0;
  int64_t constraints_at_query = 0;
  int64_t exact_sides = 0;
  double open_gap = 0.0;
  bool operator==(const AnswerCounters&) const = default;
};
AnswerCounters CountersOf(const licm::AggregateAnswer& answer);

/// (min.value - min.proved) + (max.proved - max.value): the part of the
/// served interval not yet proved tight. 0 when both sides are exact.
double OpenGap(const licm::AggregateBounds& bounds);

/// True when both sides carry bit-identical values and proved bounds.
bool SameBounds(const licm::AggregateBounds& a, const licm::AggregateBounds& b);

/// FNV-1a accumulator for the per-seed determinism digest.
class Digest {
 public:
  void Add(const void* data, size_t len);
  void AddDouble(double v) { Add(&v, sizeof(v)); }
  void AddInt(int64_t v) { Add(&v, sizeof(v)); }
  void AddCounters(const AnswerCounters& c);
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Spans recorded by the benchmark around the calls it makes into each
/// layer. Single-threaded: Begin/End nest like a stack. Self time of a
/// span is its duration minus the time its child spans cover.
class SpanLog {
 public:
  void Begin(const char* name);
  /// Closes the innermost open span.
  void End();
  /// Self times in ms of every closed span with this name.
  const std::vector<double>& SelfMs(const std::string& name) const;

 private:
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Open> stack_;
  std::map<std::string, std::vector<double>> self_ms_;
};

/// RAII helper around SpanLog::Begin/End; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) log_->Begin(name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

int64_t NowNs();
/// Process CPU time (user + system) in ms.
double ProcessCpuMs();
/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Result of one run: the end-to-end metrics (untraced runs) or the
/// per-layer metrics (traced runs), plus operation accounting.
struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Metric values by name; main.cc owns the names and units printed.
  std::map<std::string, double> metrics;
  /// Hex digest of the seed's deterministic outputs and counters.
  std::string digest;

  void Add(const std::string& name, double value) { metrics[name] = value; }
  /// Records one failed operation with a message on stderr.
  void Fail(const std::string& what);
};

/// paper-offline.
Result<RunReport> RunPaperOffline(const RunArgs& args);
/// service-mixed.
Result<RunReport> RunServiceMixed(const RunArgs& args);

}  // namespace perfbench

#endif  // LICM_PERFBENCH_WORKLOAD_H_
