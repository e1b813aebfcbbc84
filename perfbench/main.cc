// Repository benchmark binary. Runs one workload for a given seed
// and run length and prints, as its last stdout line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"digest":"..","metrics":{..}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (a layer a workload bypasses reports 0).
//
// Usage: licm_perfbench --workload <paper-offline|service-mixed>
//                       --seed <n> --seconds <s> --trace <0|1>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "workload.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"answer_ms_p50", "ms"},
    {"answer_ms_p90", "ms"},    {"answers_per_s", "1/s"},
    {"cpu_ms_per_answer", "ms"}, {"exact_side_frac", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.generate_ms", "ms"},
    {"anonymize.anonymize_ms", "ms"},
    {"anonymize.encode_ms", "ms"},
    {"anonymize.vars", "count"},
    {"anonymize.constraints", "count"},
    {"licm.eval_ms", "ms"},
    {"licm.vars_at_query", "count"},
    {"licm.constraints_at_query", "count"},
    {"licm.prune_ms", "ms"},
    {"licm.prune_kept_frac", "ratio"},
    {"solver.solve_ms", "ms"},
    {"solver.cpu_ms", "ms"},
    {"solver.components", "count"},
    {"solver.cache_hit_frac", "ratio"},
    {"solver.presolve_fixed_vars", "count"},
    {"solver.nodes", "count"},
    {"solver.node_cap_hits", "count"},
    {"solver.lp_pivots", "count"},
    {"solver.warm_lp_solves", "count"},
    {"solver.open_gap_mean", "count"},
    {"sampler.mc_ms_per_world", "ms"},
    {"service.exec_ms", "ms"},
    {"service.cache_hit_frac", "ratio"},
    {"service.cross_version_hits", "1/query"},
    {"service.rejected_frac", "ratio"},
    {"service.degraded_frac", "ratio"},
    {"mutate.round_trip_ms_p50", "ms"},
    {"mutate.commit_ms", "ms"},
    {"mutate.dirty_component_frac", "ratio"},
    {"net.overhead_ms", "ms"},
    {"net.bytes_per_request", "bytes"},
    {"trace.overhead_frac", "ratio"},
    {"check.failed_frac", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: licm_perfbench --workload "
               "<paper-offline|service-mixed> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  perfbench::Result<perfbench::RunReport> run =
      perfbench::Status::InvalidArgument("unknown workload");
  if (args.workload == "paper-offline") {
    run = perfbench::RunPaperOffline(args);
  } else if (args.workload == "service-mixed") {
    run = perfbench::RunServiceMixed(args);
  } else {
    return Usage();
  }
  if (!run.ok()) {
    std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  perfbench::RunReport& report = *run;
  if (args.trace) {
    report.Add("check.failed_frac",
               static_cast<double>(report.failed) / report.attempted);
  }

  const std::map<std::string, double>& values = report.metrics;
  std::string metrics;
  bool complete = true;
  auto emit = [&](const MetricDef& def, bool required) {
    auto it = values.find(def.name);
    double v = 0.0;
    if (it != values.end()) {
      v = it->second;
    } else if (required) {
      std::fprintf(stderr, "metric %s not produced\n", def.name);
      complete = false;
    }
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "metric %s is not finite\n", def.name);
      complete = false;
      v = 0.0;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", def.name, v, def.unit);
    metrics += buf;
  };
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) emit(def, false);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, true);
  }

  const bool correct = report.failed == 0 && complete;
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"digest\":\"%s\",\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), report.digest.c_str(),
              metrics.c_str());
  return correct ? 0 : 1;
}
