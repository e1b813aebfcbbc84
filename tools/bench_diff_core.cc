#include "tools/bench_diff_core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_set>

#include "service/json.h"

namespace licm::tools {
namespace {

using service::JsonValue;

// A bench row flattened to name -> number. Booleans map to 0/1; strings
// join the identity key when their field is identity-class and are
// otherwise ignored.
struct Row {
  std::string key;
  std::map<std::string, double> numbers;
};

const std::unordered_set<std::string>& IdentitySet() {
  static const std::unordered_set<std::string> kSet = {
      "bench", "scheme", "engine", "variant", "query", "qnum", "qnums",
      "cache", "k", "num_transactions", "txns", "items", "fanout",
      "requested_threads", "connections", "requests",
      "requests_per_connection", "burst", "mode", "codec",
      "max_outstanding", "offered_rps", "duration_s",
  };
  return kSet;
}

const std::unordered_set<std::string>& BoundSet() {
  static const std::unordered_set<std::string> kSet = {
      "min", "max", "min_exact", "max_exact", "proved_min", "proved_max",
      "base_rows", "verify_failures", "protocol_errors",
  };
  return kSet;
}

const std::unordered_set<std::string>& CounterSet() {
  static const std::unordered_set<std::string> kSet = {
      "nodes", "lp_solves", "lp_pivots", "cache_misses", "canonical_forms",
      "presolve_calls", "decompose_calls", "components", "warm_lp_solves",
      "strong_branch_solves", "cuts_generated", "rc_fixed_vars",
  };
  return kSet;
}

const std::unordered_set<std::string>& RateSet() {
  static const std::unordered_set<std::string> kSet = {
      "rows_per_s", "throughput_rps", "achieved_rps", "speedup",
      "query_speedup", "cache_hit_rate", "cache_hits",
  };
  return kSet;
}

bool HasSuffix(const std::string& s, const char* suffix) {
  const size_t n = std::string(suffix).size();
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string FormatNum(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

Row FlattenRow(const JsonValue& obj) {
  Row row;
  // Identity fields in a fixed order so keys compare across files even
  // if writers reorder columns.
  std::map<std::string, std::string> identity;
  for (const auto& [name, value] : obj.object) {
    const MetricClass cls = ClassifyMetric(name);
    switch (value.kind) {
      case JsonValue::Kind::kNumber:
        if (cls == MetricClass::kIdentity) {
          identity[name] = FormatNum(value.number);
        } else {
          row.numbers[name] = value.number;
        }
        break;
      case JsonValue::Kind::kBool:
        if (cls == MetricClass::kIdentity) {
          identity[name] = value.boolean ? "true" : "false";
        } else {
          row.numbers[name] = value.boolean ? 1.0 : 0.0;
        }
        break;
      case JsonValue::Kind::kString:
        if (cls == MetricClass::kIdentity) identity[name] = value.string;
        break;
      default:
        break;  // null / nested values carry no comparable measurement
    }
  }
  for (const auto& [name, value] : identity) {
    if (!row.key.empty()) row.key += " ";
    row.key += name + "=" + value;
  }
  return row;
}

Result<std::vector<Row>> LoadBenchRows(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  LICM_ASSIGN_OR_RETURN(JsonValue root, service::ParseJson(buf.str()));
  if (root.kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("'" + path + "' is not a JSON array");
  }
  std::vector<Row> rows;
  rows.reserve(root.array.size());
  for (const JsonValue& entry : root.array) {
    if (!entry.IsObject()) {
      return Status::InvalidArgument("'" + path +
                                     "' has a non-object array entry");
    }
    rows.push_back(FlattenRow(entry));
  }
  return rows;
}

// Compares one (baseline, current) value pair under its class rules.
// Returns a pass diff when there is nothing to report.
MetricDiff CompareMetric(const std::string& name, MetricClass cls,
                         double base, double cur, const DiffOptions& opts) {
  MetricDiff d;
  d.name = name;
  d.cls = cls;
  d.baseline = base;
  d.current = cur;
  switch (cls) {
    case MetricClass::kBound:
      if (base != cur) {
        d.verdict = Verdict::kFail;
        d.note = "bound changed (exact match required)";
      }
      break;
    case MetricClass::kCounter: {
      const double delta = cur - base;
      if (delta <= opts.counter_floor) break;  // small or improved: pass
      d.ratio = cur / std::max(base, 1.0);
      const double warn_at = 1.0 + (opts.counter_fail_ratio - 1.0) / 2.0;
      if (d.ratio > opts.counter_fail_ratio) {
        d.verdict = opts.counters_warn_only ? Verdict::kWarn : Verdict::kFail;
        d.note = opts.counters_warn_only
                     ? "cost counter regressed (downgraded to warn)"
                     : "cost counter regressed past the fail ratio";
      } else if (d.ratio > warn_at) {
        d.verdict = Verdict::kWarn;
        d.note = "cost counter crept up";
      }
      break;
    }
    case MetricClass::kTime: {
      const double floor =
          HasSuffix(name, "_ms") ? opts.time_floor_ms
          : name == "max_rss_kb" ? opts.rss_floor_kb
                                 : opts.time_floor_ms / 1e3;
      if (base <= floor && cur <= floor) break;  // below the noise floor
      if (base <= 0.0) break;
      d.ratio = cur / base;
      if (d.ratio > opts.time_warn_ratio) {
        d.verdict = Verdict::kWarn;
        d.note = "slower than baseline (times are warn-only)";
      }
      break;
    }
    case MetricClass::kRate: {
      if (cur <= 0.0 || base <= 0.0) break;
      d.ratio = base / cur;  // inverted: higher current is better
      if (d.ratio > opts.time_warn_ratio) {
        d.verdict = Verdict::kWarn;
        d.note = "rate dropped below baseline";
      }
      break;
    }
    case MetricClass::kIdentity:
    case MetricClass::kInfo:
      break;
  }
  return d;
}

RowDiff DiffRow(const std::string& key, const Row& base, const Row& cur,
                const DiffOptions& opts) {
  RowDiff rd;
  rd.key = key;
  for (const auto& [name, cur_value] : cur.numbers) {
    const auto it = base.numbers.find(name);
    if (it == base.numbers.end()) continue;  // one-sided: new column
    const MetricClass cls = ClassifyMetric(name);
    if (cls == MetricClass::kInfo || cls == MetricClass::kIdentity) continue;
    MetricDiff d = CompareMetric(name, cls, it->second, cur_value, opts);
    if (d.verdict != Verdict::kPass) {
      rd.verdict = Combine(rd.verdict, d.verdict);
      rd.metrics.push_back(std::move(d));
    }
  }
  // Severity first, then name, so reports lead with the failures.
  std::stable_sort(rd.metrics.begin(), rd.metrics.end(),
                   [](const MetricDiff& a, const MetricDiff& b) {
                     return static_cast<int>(a.verdict) >
                            static_cast<int>(b.verdict);
                   });
  return rd;
}

}  // namespace

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kPass:
      return "pass";
    case Verdict::kWarn:
      return "warn";
    case Verdict::kFail:
      return "fail";
  }
  return "unknown";
}

Verdict Combine(Verdict a, Verdict b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

MetricClass ClassifyMetric(const std::string& name) {
  if (IdentitySet().count(name) > 0) return MetricClass::kIdentity;
  if (BoundSet().count(name) > 0) return MetricClass::kBound;
  if (CounterSet().count(name) > 0) return MetricClass::kCounter;
  if (RateSet().count(name) > 0) return MetricClass::kRate;
  // Registry totals stamped into the provenance block (m_solver_nodes,
  // m_rows_scanned, ...) are process-wide work measures.
  if (name.rfind("m_", 0) == 0) return MetricClass::kCounter;
  if (name == "max_rss_kb") return MetricClass::kTime;
  if (HasSuffix(name, "_ms") || HasSuffix(name, "_s") ||
      HasSuffix(name, "_seconds")) {
    return MetricClass::kTime;
  }
  return MetricClass::kInfo;
}

Result<FileDiff> DiffBenchFiles(const std::string& current_path,
                                const std::string& baseline_path,
                                const DiffOptions& opts) {
  LICM_ASSIGN_OR_RETURN(std::vector<Row> current,
                        LoadBenchRows(current_path));
  LICM_ASSIGN_OR_RETURN(std::vector<Row> baseline,
                        LoadBenchRows(baseline_path));

  FileDiff diff;
  diff.current_path = current_path;
  diff.baseline_path = baseline_path;

  // Duplicate keys (repeated cells) match in file order.
  std::map<std::string, std::vector<const Row*>> base_by_key;
  for (const Row& r : baseline) base_by_key[r.key].push_back(&r);

  for (const Row& cur : current) {
    auto it = base_by_key.find(cur.key);
    if (it == base_by_key.end() || it->second.empty()) {
      ++diff.rows_only_in_current;
      RowDiff rd;
      rd.key = cur.key;
      rd.note = "no baseline row (new cell; not gated)";
      diff.rows.push_back(std::move(rd));
      continue;
    }
    const Row* base = it->second.front();
    it->second.erase(it->second.begin());
    ++diff.rows_compared;
    RowDiff rd = DiffRow(cur.key, *base, cur, opts);
    diff.verdict = Combine(diff.verdict, rd.verdict);
    if (rd.verdict != Verdict::kPass) diff.rows.push_back(std::move(rd));
  }
  for (const auto& [key, leftovers] : base_by_key) {
    for (const Row* base : leftovers) {
      (void)base;
      ++diff.rows_only_in_baseline;
      RowDiff rd;
      rd.key = key;
      rd.verdict = Verdict::kWarn;
      rd.note = "baseline row missing from current output";
      diff.verdict = Combine(diff.verdict, rd.verdict);
      diff.rows.push_back(std::move(rd));
    }
  }
  return diff;
}

std::string RenderDiffText(const FileDiff& diff) {
  std::ostringstream out;
  out << "[" << VerdictName(diff.verdict) << "] " << diff.current_path
      << " vs " << diff.baseline_path << " (" << diff.rows_compared
      << " rows compared";
  if (diff.rows_only_in_current > 0) {
    out << ", " << diff.rows_only_in_current << " new";
  }
  if (diff.rows_only_in_baseline > 0) {
    out << ", " << diff.rows_only_in_baseline << " missing";
  }
  out << ")\n";
  for (const RowDiff& rd : diff.rows) {
    if (rd.verdict == Verdict::kPass && rd.note.empty()) continue;
    out << "  " << VerdictName(rd.verdict) << "  " << rd.key << "\n";
    if (!rd.note.empty()) out << "        " << rd.note << "\n";
    for (const MetricDiff& m : rd.metrics) {
      out << "        " << VerdictName(m.verdict) << " " << m.name << ": "
          << FormatNum(m.baseline) << " -> " << FormatNum(m.current);
      if (m.ratio != 1.0) out << " (" << FormatNum(m.ratio) << "x)";
      if (!m.note.empty()) out << " — " << m.note;
      out << "\n";
    }
  }
  return out.str();
}

std::string RenderDiffJson(const std::vector<FileDiff>& files) {
  Verdict overall = Verdict::kPass;
  for (const FileDiff& f : files) overall = Combine(overall, f.verdict);
  std::ostringstream out;
  out << "{\"verdict\":\"" << VerdictName(overall) << "\",\"files\":[";
  for (size_t i = 0; i < files.size(); ++i) {
    const FileDiff& f = files[i];
    if (i > 0) out << ",";
    out << "{\"file\":\"" << service::JsonEscape(f.current_path)
        << "\",\"baseline\":\"" << service::JsonEscape(f.baseline_path)
        << "\",\"verdict\":\"" << VerdictName(f.verdict)
        << "\",\"rows_compared\":" << f.rows_compared
        << ",\"rows_only_in_current\":" << f.rows_only_in_current
        << ",\"rows_only_in_baseline\":" << f.rows_only_in_baseline
        << ",\"rows\":[";
    for (size_t j = 0; j < f.rows.size(); ++j) {
      const RowDiff& rd = f.rows[j];
      if (j > 0) out << ",";
      out << "{\"key\":\"" << service::JsonEscape(rd.key)
          << "\",\"verdict\":\"" << VerdictName(rd.verdict) << "\"";
      if (!rd.note.empty()) {
        out << ",\"note\":\"" << service::JsonEscape(rd.note) << "\"";
      }
      out << ",\"metrics\":[";
      for (size_t k = 0; k < rd.metrics.size(); ++k) {
        const MetricDiff& m = rd.metrics[k];
        if (k > 0) out << ",";
        char nums[160];
        std::snprintf(nums, sizeof(nums),
                      "\"baseline\":%.17g,\"current\":%.17g,\"ratio\":%.17g",
                      m.baseline, m.current, m.ratio);
        out << "{\"name\":\"" << service::JsonEscape(m.name) << "\"," << nums
            << ",\"verdict\":\"" << VerdictName(m.verdict) << "\",\"note\":\""
            << service::JsonEscape(m.note) << "\"}";
      }
      out << "]}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

}  // namespace licm::tools
