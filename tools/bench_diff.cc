// bench_diff: the CI regression sentinel over BENCH_*.json files.
//
//   bench_diff [options] FILE...
//     --baselines DIR       baseline directory (default bench/baselines);
//                           each FILE compares against DIR/<basename>
//     --baseline PATH       explicit baseline for a single FILE
//     --json OUT            write the machine-readable verdict JSON
//     --time-warn R         time/rate warn ratio (default 1.5)
//     --counter-fail R      cost-counter fail ratio (default 1.5)
//     --counters-warn-only  downgrade counter fails to warns (for benches
//                           with nondeterministic multi-threaded node counts)
//     --fail-on-warn        exit nonzero on warnings too
//
// Exit status: 0 pass/warn, 1 fail (or warn with --fail-on-warn),
// 2 usage or IO error. A FILE without a baseline file fails the verdict:
// a gate that compared nothing must not pass (a wrong working directory
// or --baselines path would otherwise turn every check off). A new bench
// lands together with its committed baseline.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "tools/bench_diff_core.h"

namespace {

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_diff [--baselines DIR] [--baseline PATH] "
               "[--json OUT]\n"
               "                  [--time-warn R] [--counter-fail R] "
               "[--counters-warn-only]\n"
               "                  [--fail-on-warn] FILE...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using licm::tools::DiffBenchFiles;
  using licm::tools::DiffOptions;
  using licm::tools::FileDiff;
  using licm::tools::Verdict;

  std::string baselines_dir = "bench/baselines";
  std::string explicit_baseline;
  std::string json_out;
  DiffOptions opts;
  bool fail_on_warn = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--baselines") {
      const char* v = next();
      if (v == nullptr) return Usage();
      baselines_dir = v;
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return Usage();
      explicit_baseline = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return Usage();
      json_out = v;
    } else if (arg == "--time-warn") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.time_warn_ratio = std::atof(v);
    } else if (arg == "--counter-fail") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.counter_fail_ratio = std::atof(v);
    } else if (arg == "--counters-warn-only") {
      opts.counters_warn_only = true;
    } else if (arg == "--fail-on-warn") {
      fail_on_warn = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();
  if (!explicit_baseline.empty() && files.size() != 1) {
    std::fprintf(stderr, "--baseline requires exactly one FILE\n");
    return Usage();
  }

  std::vector<FileDiff> diffs;
  Verdict overall = Verdict::kPass;
  for (const std::string& file : files) {
    const std::string baseline = !explicit_baseline.empty()
                                     ? explicit_baseline
                                     : baselines_dir + "/" + Basename(file);
    if (!FileExists(baseline)) {
      std::printf("[fail] %s: no baseline at %s\n", file.c_str(),
                  baseline.c_str());
      overall = Verdict::kFail;
      continue;
    }
    auto diff = DiffBenchFiles(file, baseline, opts);
    if (!diff.ok()) {
      std::fprintf(stderr, "bench_diff: %s\n",
                   diff.status().ToString().c_str());
      return 2;
    }
    std::printf("%s", RenderDiffText(*diff).c_str());
    overall = Combine(overall, diff->verdict);
    diffs.push_back(std::move(*diff));
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "bench_diff: cannot write '%s'\n",
                   json_out.c_str());
      return 2;
    }
    out << licm::tools::RenderDiffJson(diffs) << "\n";
  }

  std::printf("bench_diff verdict: %s\n", VerdictName(overall));
  if (overall == Verdict::kFail) return 1;
  if (overall == Verdict::kWarn && fail_on_warn) return 1;
  return 0;
}
