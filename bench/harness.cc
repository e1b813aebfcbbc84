#include "harness.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace_export.h"
#include "common/version.h"
#include "relational/engine.h"

namespace licm::bench {

using rel::CmpOp;
using rel::QueryNodePtr;
using rel::Value;

int ThreadsFromEnv(int fallback) {
  const char* env = std::getenv("LICM_THREADS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return fallback;
  return static_cast<int>(v);
}

PhaseBreakdown PhasesSince(int64_t since_ns) {
  PhaseBreakdown out;
  for (const telemetry::PhaseSummary& p :
       telemetry::SummarizeSpans(since_ns)) {
    if (p.name == "encode") out.encode_ms += p.total_ms;
    else if (p.name == "prune") out.prune_ms += p.total_ms;
    else if (p.name == "decompose") out.decompose_ms += p.total_ms;
    else if (p.name == "search") out.search_ms += p.total_ms;
    else if (p.name == "canonicalize") out.cache_ms += p.total_ms;
  }
  return out;
}

void BenchTraceInit() { telemetry::StartTracing(); }

Status BenchTraceFinish() {
  telemetry::StopTracing();
  const char* path = std::getenv("LICM_TRACE");
  if (path == nullptr || *path == '\0') return Status::OK();
  LICM_RETURN_NOT_OK(telemetry::WriteChromeTrace(path));
  LICM_RETURN_NOT_OK(
      telemetry::WritePhaseSummary(std::string(path) + ".phases.json"));
  const int64_t dropped = telemetry::DroppedEvents();
  std::fprintf(stderr,
               "trace: wrote %s (+ .phases.json); %lld events dropped\n",
               path, static_cast<long long>(dropped));
  return Status::OK();
}

const char* SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kKm: return "km-anonymity";
    case Scheme::kKAnon: return "k-anonymity";
    case Scheme::kBipartite: return "bipartite";
    case Scheme::kSuppression: return "suppression";
  }
  return "?";
}

namespace {

// Query builders over an arbitrary trans_item-shaped subtree provider.
// `base(txn_preds, item_preds)` must return the (tid, loc, item, price)
// view with the given predicates applied.
using BaseFn = std::function<QueryNodePtr(std::vector<rel::Predicate>,
                                          std::vector<rel::Predicate>)>;

QueryNodePtr BuildQuery(int qnum, const QueryParams& p, const BaseFn& base) {
  switch (qnum) {
    case 1: {
      // COUNT of Pa-transactions containing >= 1 Pb-item.
      auto src = base({{"loc", CmpOp::kLt, Value(p.q1_pa_max_loc)}},
                      {{"price", CmpOp::kLt, Value(p.q1_pb_max_price)}});
      return rel::CountStar(
          rel::CountPredicate(src, "tid", CmpOp::kGe, 1));
    }
    case 2: {
      // COUNT of Pa-transactions with >= X Pb-items AND >= Y Pc-items.
      auto pb = base({{"loc", CmpOp::kLt, Value(p.q2_pa_max_loc)}},
                     {{"price", CmpOp::kLt, Value(p.q2_pb_max_price)}});
      auto pc = base({{"loc", CmpOp::kLt, Value(p.q2_pa_max_loc)}},
                     {{"price", CmpOp::kGe, Value(p.q2_pc_min_price)}});
      return rel::CountStar(rel::Intersect(
          rel::CountPredicate(pb, "tid", CmpOp::kGe, p.q2_x),
          rel::CountPredicate(pc, "tid", CmpOp::kGe, p.q2_y)));
    }
    case 3: {
      // COUNT of Pa-transactions containing >= 1 item that appears in
      // >= X Pb-transactions.
      auto pb_side = base({{"loc", CmpOp::kLt, Value(p.q3_pb_max_loc)}}, {});
      auto popular = rel::CountPredicate(
          rel::Project(pb_side, {"item", "tid"}), "item", CmpOp::kGe,
          p.q3_x);
      auto pa_side = base({{"loc", CmpOp::kLt, Value(p.q3_pa_max_loc)}}, {});
      auto joined = rel::Join(pa_side, popular, {{"item", "item"}});
      return rel::CountStar(rel::Project(joined, {"tid"}));
    }
    default:
      LICM_CHECK(false);
      return nullptr;
  }
}

}  // namespace

QueryNodePtr BuildFlatQuery(int qnum, const QueryParams& p) {
  BaseFn base = [](std::vector<rel::Predicate> txn_preds,
                   std::vector<rel::Predicate> item_preds) -> QueryNodePtr {
    QueryNodePtr node = rel::Scan("trans_item");
    std::vector<rel::Predicate> all = std::move(txn_preds);
    for (auto& pr : item_preds) all.push_back(std::move(pr));
    if (!all.empty()) node = rel::Select(node, std::move(all));
    return node;
  };
  return BuildQuery(qnum, p, base);
}

QueryNodePtr BuildBipartiteQuery(int qnum, const QueryParams& p) {
  BaseFn base = [](std::vector<rel::Predicate> txn_preds,
                   std::vector<rel::Predicate> item_preds) -> QueryNodePtr {
    return anonymize::BipartiteTransItemView(std::move(txn_preds),
                                             std::move(item_preds));
  };
  return BuildQuery(qnum, p, base);
}

Result<CellResult> RunCell(Scheme scheme, int qnum, uint32_t k,
                           const BenchConfig& config,
                           const QueryParams& params) {
  const int64_t trace_mark = telemetry::NowNs();
  data::GeneratorConfig gen;
  gen.num_transactions = scheme == Scheme::kBipartite
                             ? config.bipartite_transactions
                             : config.num_transactions;
  gen.num_items = config.num_items;
  gen.seed = config.seed;
  data::TransactionDataset dataset = data::GenerateTransactions(gen);

  CellResult cell;
  StopWatch model_watch;
  anonymize::EncodedDb enc;
  if (scheme == Scheme::kBipartite) {
    LICM_ASSIGN_OR_RETURN(
        auto groups, anonymize::SafeGrouping(dataset, {k, 2, config.seed}));
    LICM_ASSIGN_OR_RETURN(enc, anonymize::EncodeBipartite(groups, dataset));
  } else if (scheme == Scheme::kSuppression) {
    LICM_ASSIGN_OR_RETURN(auto anon,
                          anonymize::SuppressRareItems(dataset, {k}));
    LICM_ASSIGN_OR_RETURN(enc, anonymize::EncodeSuppressed(anon, dataset));
  } else {
    anonymize::Hierarchy h = anonymize::Hierarchy::BuildUniform(
        dataset.num_items, config.hierarchy_fanout);
    anonymize::GeneralizedDataset anon;
    if (scheme == Scheme::kKm) {
      LICM_ASSIGN_OR_RETURN(anon,
                            anonymize::KmAnonymize(dataset, h, {k, 2}));
    } else {
      LICM_ASSIGN_OR_RETURN(anon, anonymize::KAnonymize(dataset, h, {k}));
    }
    LICM_ASSIGN_OR_RETURN(enc, anonymize::EncodeGeneralized(anon, h, dataset));
  }
  cell.model_ms = model_watch.ElapsedMs();
  cell.vars_model = enc.db.pool().size();
  cell.cons_model = enc.db.constraints().size();

  // Bipartite sweeps run at a smaller transaction count; scale the
  // Query 3 popularity threshold with it so the query stays non-trivial.
  QueryParams scaled = params;
  if (scheme == Scheme::kBipartite &&
      config.bipartite_transactions < config.num_transactions) {
    scaled.q3_x = std::max<int64_t>(
        2, params.q3_x * config.bipartite_transactions /
               config.num_transactions);
  }
  rel::QueryNodePtr query = scheme == Scheme::kBipartite
                                ? BuildBipartiteQuery(qnum, scaled)
                                : BuildFlatQuery(qnum, scaled);

  AnswerOptions opts;
  opts.bounds.mip.time_limit_seconds = scheme == Scheme::kBipartite
                                           ? config.bipartite_time_limit
                                           : config.solver_time_limit;
  opts.bounds.mip.num_threads = ThreadsFromEnv();
  LICM_ASSIGN_OR_RETURN(AggregateAnswer ans,
                        AnswerAggregate(*query, enc.db, opts));
  cell.l_min = ans.bounds.min.value;
  cell.l_max = ans.bounds.max.value;
  cell.l_min_exact = ans.bounds.min.exact;
  cell.l_max_exact = ans.bounds.max.exact;
  cell.l_min_proved = ans.bounds.min.proved;
  cell.l_max_proved = ans.bounds.max.proved;
  cell.query_ms = ans.query_ms;
  cell.solve_ms = ans.solve_ms;
  cell.vars_query = ans.vars_at_query;
  cell.cons_query = ans.constraints_at_query;
  cell.vars_pruned = ans.bounds.prune_stats.vars_after;
  cell.cons_pruned = ans.bounds.prune_stats.constraints_after;

  cell.solve_stats = ans.bounds.stats;

  sampler::MonteCarloOptions mco;
  mco.num_worlds = config.mc_worlds;
  mco.seed = config.seed + 1;
  LICM_ASSIGN_OR_RETURN(
      auto mc, sampler::MonteCarloBounds(enc.db, enc.structure, *query, mco));
  cell.m_min = mc.min;
  cell.m_max = mc.max;
  cell.mc_ms = mc.total_ms;
  cell.phases = PhasesSince(trace_mark);
  return cell;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RenderNumber(double v) {
  // JSON has no inf/nan; fall back to null so files stay parseable.
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

JsonRecord& JsonRecord::AddString(const std::string& key,
                                  const std::string& value) {
  fields_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
  return *this;
}

JsonRecord& JsonRecord::AddNumber(const std::string& key, double value) {
  fields_.emplace_back(key, RenderNumber(value));
  return *this;
}

JsonRecord& JsonRecord::AddInt(const std::string& key, int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonRecord& JsonRecord::AddBool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonRecord& JsonRecord::AddRunMetrics(double min_value, double max_value,
                                      bool min_exact, bool max_exact,
                                      double query_ms, double solve_ms,
                                      const solver::MipStats& stats) {
  int64_t lookups = stats.cache_hits + stats.cache_misses;
  AddNumber("min", min_value);
  AddNumber("max", max_value);
  AddBool("min_exact", min_exact);
  AddBool("max_exact", max_exact);
  AddNumber("query_ms", query_ms);
  AddNumber("solve_ms", solve_ms);
  AddInt("nodes", stats.nodes);
  AddInt("components", static_cast<int64_t>(stats.components));
  AddInt("cache_hits", stats.cache_hits);
  AddInt("cache_misses", stats.cache_misses);
  AddNumber("cache_hit_rate",
            lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups
                        : 0.0);
  AddInt("canonical_forms", stats.canonical_forms);
  AddInt("root_completion_failures", stats.root_completion_failures);
  AddInt("decompose_calls", stats.decompose_calls);
  AddInt("threads", stats.num_threads);
  AddInt("subtree_splits", stats.subtree_splits);
  AddNumber("solve_wall_s", stats.solve_seconds);
  AddNumber("cpu_s", stats.cpu_seconds);
  return *this;
}

JsonRecord& JsonRecord::AddPhaseBreakdown(const PhaseBreakdown& phases) {
  AddNumber("encode_ms", phases.encode_ms);
  AddNumber("prune_ms", phases.prune_ms);
  AddNumber("decompose_ms", phases.decompose_ms);
  AddNumber("search_ms", phases.search_ms);
  AddNumber("cache_ms", phases.cache_ms);
  return *this;
}

std::string JsonRecord::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(fields_[i].first) + "\":" + fields_[i].second;
  }
  out += "}";
  return out;
}

int64_t PeakRssKb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux (kernel >= 2.6.32; this repo's
  // platforms).
  return static_cast<int64_t>(usage.ru_maxrss);
}

namespace {

void WriteProvenancedRows(std::FILE* f,
                          const std::vector<JsonRecord>& records) {
  // Provenance prefix spliced into every row: one touch point covers all
  // bench binaries, and per-row stamping keeps rows self-describing when
  // files are concatenated across runs. Peak RSS and the registry totals
  // are process-lifetime values at write time — identical across the rows
  // of one file, comparable across files of one trajectory.
  auto& reg = metrics::MetricsRegistry::Default();
  char provenance[512];
  std::snprintf(provenance, sizeof(provenance),
                "{\"git_sha\":\"%s\",\"build_type\":\"%s\","
                "\"hardware_concurrency\":%u,\"max_rss_kb\":%lld,"
                "\"m_solver_nodes\":%lld,\"m_rows_scanned\":%lld,"
                "\"m_constraints_emitted\":%lld,\"m_arena_bytes\":%lld,",
                BuildGitSha(), BuildTypeName(),
                std::thread::hardware_concurrency(),
                static_cast<long long>(PeakRssKb()),
                static_cast<long long>(
                    reg.CounterTotal("licm_solver_nodes_total")),
                static_cast<long long>(
                    reg.CounterTotal("licm_query_rows_scanned_total")),
                static_cast<long long>(
                    reg.CounterTotal("licm_query_constraints_emitted_total")),
                static_cast<long long>(
                    reg.CounterTotal("licm_query_arena_bytes_total")));
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string row = records[i].ToJson();
    if (row.size() > 2) {  // non-empty record: replace its leading '{'
      std::fputs(provenance, f);
      std::fputs(row.c_str() + 1, f);
    } else {
      std::fputs(row.c_str(), f);
    }
    std::fputs(i + 1 < records.size() ? ",\n" : "\n", f);
  }
}

}  // namespace

Status WriteBenchJson(const std::string& path,
                      const std::vector<JsonRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  std::fputs("[\n", f);
  WriteProvenancedRows(f, records);
  std::fputs("]\n", f);
  if (std::fclose(f) != 0) {
    return Status::Internal("error writing " + path);
  }
  return Status::OK();
}

Status AppendBenchJson(const std::string& path,
                       const std::vector<JsonRecord>& records) {
  std::string existing;
  {
    std::FILE* in = std::fopen(path.c_str(), "r");
    if (in == nullptr) return WriteBenchJson(path, records);
    char chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
      existing.append(chunk, n);
    }
    std::fclose(in);
  }
  const size_t close_bracket = existing.find_last_of(']');
  if (close_bracket == std::string::npos) {
    // Not a bench array (empty/corrupt file): start fresh.
    return WriteBenchJson(path, records);
  }
  std::string head = existing.substr(0, close_bracket);
  while (!head.empty() &&
         (head.back() == '\n' || head.back() == '\r' || head.back() == ' ' ||
          head.back() == '\t')) {
    head.pop_back();
  }
  const bool has_rows = !head.empty() && head.back() != '[';

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  std::fputs(head.c_str(), f);
  std::fputs(has_rows ? ",\n" : "\n", f);
  WriteProvenancedRows(f, records);
  std::fputs("]\n", f);
  if (std::fclose(f) != 0) {
    return Status::Internal("error writing " + path);
  }
  return Status::OK();
}

}  // namespace licm::bench
