#include "service/protocol.h"

#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>

#include "common/metrics.h"
#include "common/version.h"
#include "service/json.h"

namespace licm::service {
namespace {

// Field-by-field builder for the one-line response objects. Same
// rendering rules as the bench harness's JsonRecord (17 significant
// digits, inf/nan -> null) so BENCH_service.json post-processors can
// parse service responses too.
class LineWriter {
 public:
  LineWriter& Int(const char* key, int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    return Raw(key, buf);
  }
  LineWriter& Num(const char* key, double v) {
    if (!std::isfinite(v)) return Raw(key, "null");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  LineWriter& Bool(const char* key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  LineWriter& Str(const char* key, const std::string& v) {
    return Raw(key, "\"" + JsonEscape(v) + "\"");
  }

  std::string Done() { return out_ + "}"; }

 private:
  LineWriter& Raw(const char* key, const std::string& rendered) {
    out_ += first_ ? "{\"" : ",\"";
    first_ = false;
    out_ += key;
    out_ += "\":";
    out_ += rendered;
    return *this;
  }
  std::string out_;
  bool first_ = true;
};

LineWriter Begin(int64_t id, bool ok) {
  LineWriter w;
  w.Int("id", id).Bool("ok", ok);
  return w;
}

}  // namespace

Result<WireRequest> ParseRequestLine(const std::string& line) {
  LICM_ASSIGN_OR_RETURN(JsonValue root, ParseJson(line));
  if (!root.IsObject()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  WireRequest req;
  LICM_ASSIGN_OR_RETURN(req.id, root.GetInt("id", -1));
  LICM_ASSIGN_OR_RETURN(req.op, root.GetString("op", ""));
  if (req.op.empty()) {
    return Status::InvalidArgument("request is missing the 'op' field");
  }
  LICM_ASSIGN_OR_RETURN(req.instance, root.GetString("instance", ""));
  LICM_ASSIGN_OR_RETURN(int64_t qnum, root.GetInt("qnum", 1));
  LICM_ASSIGN_OR_RETURN(req.qnum, NarrowIntField("qnum", qnum, INT_MIN));
  LICM_ASSIGN_OR_RETURN(req.deadline_ms, root.GetNumber("deadline_ms", -1.0));
  LICM_ASSIGN_OR_RETURN(int64_t worlds, root.GetInt("mc_worlds", 0));
  LICM_ASSIGN_OR_RETURN(req.mc_worlds, NarrowIntField("mc_worlds", worlds, 0));
  LICM_ASSIGN_OR_RETURN(int64_t seed, root.GetInt("seed", 0));
  LICM_ASSIGN_OR_RETURN(req.seed, NarrowSeedField(seed));
  LICM_ASSIGN_OR_RETURN(req.action, root.GetString("action", ""));
  LICM_ASSIGN_OR_RETURN(req.relation, root.GetString("relation", ""));
  LICM_ASSIGN_OR_RETURN(req.row, root.GetString("row", ""));
  LICM_ASSIGN_OR_RETURN(req.maybe, root.GetBool("maybe", false));
  LICM_ASSIGN_OR_RETURN(req.cindex, root.GetInt("cindex", -1));
  LICM_ASSIGN_OR_RETURN(req.cop, root.GetString("cop", ""));
  LICM_ASSIGN_OR_RETURN(req.rhs, root.GetInt("rhs", 0));
  LICM_ASSIGN_OR_RETURN(req.var, root.GetInt("var", -1));
  LICM_ASSIGN_OR_RETURN(req.value, root.GetInt("value", 0));
  LICM_ASSIGN_OR_RETURN(req.spec, root.GetString("spec", ""));
  LICM_ASSIGN_OR_RETURN(req.replace, root.GetBool("replace", false));
  return req;
}

Result<int> NarrowIntField(const char* name, int64_t value, int64_t min) {
  if (value < min || value > INT_MAX) {
    return Status::InvalidArgument(
        std::string("field '") + name + "' must be in [" +
        std::to_string(min) + ", " + std::to_string(INT_MAX) + "]");
  }
  return static_cast<int>(value);
}

static Status SeedOutOfRange() {
  return Status::InvalidArgument("field 'seed' must be in [0, 2^53]");
}

Result<uint64_t> NarrowSeedField(uint64_t value) {
  if (value > kMaxWireSeed) return SeedOutOfRange();
  return value;
}

Result<uint64_t> NarrowSeedField(int64_t value) {
  if (value < 0) return SeedOutOfRange();
  return NarrowSeedField(static_cast<uint64_t>(value));
}

std::string RenderError(int64_t id, const Status& status) {
  return Begin(id, false)
      .Str("status", Status::CodeName(status.code()))
      .Str("error", status.message())
      .Done();
}

std::string RenderQueryResponse(int64_t id, const QueryResponse& r) {
  LineWriter w = Begin(id, true);
  w.Bool("degraded", r.degraded)
      .Num("min", r.min)
      .Num("max", r.max)
      .Bool("min_exact", r.min_exact)
      .Bool("max_exact", r.max_exact)
      .Num("proved_min", r.proved_min)
      .Num("proved_max", r.proved_max);
  if (r.has_samples) {
    w.Num("sample_min", r.sample_min)
        .Num("sample_max", r.sample_max)
        .Int("sample_worlds", r.sample_worlds);
  }
  w.Num("queue_ms", r.queue_ms)
      .Num("solve_ms", r.solve_ms)
      .Num("sample_ms", r.sample_ms)
      .Num("total_ms", r.total_ms)
      .Int("version", static_cast<int64_t>(r.version))
      .Int("nodes", r.stats.nodes)
      .Int("cache_hits", r.stats.cache_hits)
      .Int("cache_misses", r.stats.cache_misses);
  return w.Done();
}

std::string RenderStats(int64_t id, const ServiceStats& s) {
  const int64_t lookups = s.cache.hits + s.cache.misses;
  LineWriter w = Begin(id, true);
  w
      .Int("admitted", s.admitted)
      .Int("rejected_overload", s.rejected_overload)
      .Int("failed", s.failed)
      .Int("completed", s.completed)
      .Int("degraded", s.degraded)
      .Int("queue_depth", static_cast<int64_t>(s.queue_depth))
      .Int("inflight", s.inflight)
      .Int("instances", static_cast<int64_t>(s.instances))
      .Int("nodes", s.solve.nodes)
      .Int("lp_solves", s.solve.lp_solves)
      .Int("components", static_cast<int64_t>(s.solve.components))
      .Int("subtree_splits", s.solve.subtree_splits)
      .Int("cache_hits", s.cache.hits)
      .Int("cache_misses", s.cache.misses)
      .Int("cache_evictions", s.cache.evictions)
      .Int("cache_cross_version_hits", s.cache.cross_epoch_hits)
      .Num("cache_hit_rate",
           lookups > 0 ? static_cast<double>(s.cache.hits) /
                             static_cast<double>(lookups)
                       : 0.0)
      .Num("cpu_s", s.solve.cpu_seconds)
      .Int("mutations", s.mutations)
      .Int("slow_queries", s.slow_queries)
      .Num("uptime_s", s.uptime_s)
      .Int("snapshot_seq", s.snapshot_seq);
  // Per-instance versions, as a nested object spliced the RenderInstances
  // way (LineWriter has no object type).
  std::string obj = "{";
  for (size_t i = 0; i < s.versions.size(); ++i) {
    if (i > 0) obj += ",";
    obj += "\"" + JsonEscape(s.versions[i].first) +
           "\":" + std::to_string(s.versions[i].second);
  }
  obj += "}";
  std::string line = w.Done();
  line.pop_back();  // drop '}'
  line += ",\"versions\":" + obj + "}";
  return line;
}

std::string RenderMetrics(int64_t id) {
  // The registry renders a self-contained JSON object; splice it in like
  // RenderInstances splices its array.
  std::string line = Begin(id, true).Done();
  line.pop_back();  // drop '}'
  line += ",\"metrics\":" +
          metrics::MetricsRegistry::Default().RenderJson() + "}";
  return line;
}

std::string RenderSlowLog(int64_t id,
                          const std::vector<SlowQueryRecord>& records) {
  std::string arr = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const SlowQueryRecord& r = records[i];
    if (i > 0) arr += ",";
    LineWriter w;
    w.Int("seq", r.seq)
        .Num("ts_s", r.ts_s)
        .Str("instance", r.instance)
        .Str("query", r.query)
        .Bool("degraded", r.degraded)
        .Num("slo_ms", r.slo_ms)
        .Num("queue_ms", r.queue_ms)
        .Num("solve_ms", r.solve_ms)
        .Num("sample_ms", r.sample_ms)
        .Num("total_ms", r.total_ms)
        .Num("min", r.min)
        .Num("max", r.max)
        .Int("nodes", r.stats.nodes)
        .Int("lp_solves", r.stats.lp_solves)
        .Int("lp_pivots", r.stats.lp_pivots)
        .Int("cache_hits", r.stats.cache_hits)
        .Int("cache_misses", r.stats.cache_misses);
    arr += w.Done();
  }
  arr += "]";
  std::string line = Begin(id, true).Done();
  line.pop_back();  // drop '}'
  line += ",\"slowlog\":" + arr + "}";
  return line;
}

std::string RenderPong(int64_t id) {
  return Begin(id, true)
      .Str("pong", "licm")
      .Str("git_sha", BuildGitSha())
      .Str("build_type", BuildTypeName())
      .Done();
}

std::string RenderInstances(int64_t id,
                            const std::vector<std::string>& names) {
  std::string arr = "[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) arr += ",";
    arr += "\"" + JsonEscape(names[i]) + "\"";
  }
  arr += "]";
  LineWriter w = Begin(id, true);
  // LineWriter has no array type; splice the rendered array through the
  // raw string path of Str-like formatting.
  std::string line = w.Done();
  line.pop_back();  // drop '}'
  line += ",\"instances\":" + arr + "}";
  return line;
}

std::string RenderMutateResponse(int64_t id, const MutationResult& r) {
  LineWriter w = Begin(id, true);
  w.Int("version", static_cast<int64_t>(r.version))
      .Int("appended", static_cast<int64_t>(r.appended))
      .Int("retracted", static_cast<int64_t>(r.retracted))
      .Int("dirty_vars", static_cast<int64_t>(r.dirty_vars))
      .Int("dirty_components", static_cast<int64_t>(r.dirty_components))
      .Int("total_components", static_cast<int64_t>(r.total_components))
      .Num("dirty_ms", r.dirty_ms)
      .Num("commit_ms", r.commit_ms);
  if (r.constraint_index != MutationResult::kNoConstraint) {
    w.Int("cindex", static_cast<int64_t>(r.constraint_index));
  }
  std::string arr = "[";
  for (size_t i = 0; i < r.new_vars.size(); ++i) {
    if (i > 0) arr += ",";
    arr += std::to_string(r.new_vars[i]);
  }
  arr += "]";
  std::string line = w.Done();
  line.pop_back();  // drop '}'
  line += ",\"new_vars\":" + arr + "}";
  return line;
}

std::string RenderVersion(int64_t id, const std::string& instance,
                          uint64_t version) {
  return Begin(id, true)
      .Str("instance", instance)
      .Int("version", static_cast<int64_t>(version))
      .Done();
}

std::string RenderLoadAck(int64_t id, const std::string& instance,
                          uint64_t version, bool replaced) {
  return Begin(id, true)
      .Str("instance", instance)
      .Int("version", static_cast<int64_t>(version))
      .Bool("replaced", replaced)
      .Done();
}

std::string RenderShutdownAck(int64_t id) {
  return Begin(id, true).Bool("shutting_down", true).Done();
}

}  // namespace licm::service
