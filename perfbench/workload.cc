#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "anonymize/generalize.h"
#include "anonymize/grouping.h"
#include "anonymize/hierarchy.h"
#include "anonymize/suppress.h"
#include "data/transactions.h"
#include "relational/engine.h"

namespace perfbench {

using licm::rel::QueryNodePtr;
namespace anonymize = licm::anonymize;
namespace rel = licm::rel;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

}  // namespace

Result<anonymize::EncodedDb> BuildInstance(const InstanceSpec& spec,
                                           BuildTimes* times) {
  int64_t t = NowNs();
  licm::data::GeneratorConfig gen;
  gen.num_transactions = spec.transactions;
  gen.num_items = spec.items;
  gen.seed = spec.seed;
  const licm::data::TransactionDataset dataset =
      licm::data::GenerateTransactions(gen);
  times->generate_ms += MsSince(t);

  t = NowNs();
  switch (spec.scheme) {
    case Scheme::kBipartite: {
      LICM_ASSIGN_OR_RETURN(
          auto groups, anonymize::SafeGrouping(dataset, {spec.k, 2, spec.seed}));
      times->anonymize_ms += MsSince(t);
      t = NowNs();
      auto enc = anonymize::EncodeBipartite(groups, dataset);
      times->encode_ms += MsSince(t);
      return enc;
    }
    case Scheme::kSuppression: {
      LICM_ASSIGN_OR_RETURN(auto anon,
                            anonymize::SuppressRareItems(dataset, {spec.k}));
      times->anonymize_ms += MsSince(t);
      t = NowNs();
      auto enc = anonymize::EncodeSuppressed(anon, dataset);
      times->encode_ms += MsSince(t);
      return enc;
    }
    case Scheme::kKm:
    case Scheme::kKAnon: {
      const anonymize::Hierarchy h =
          anonymize::Hierarchy::BuildUniform(dataset.num_items, 2);
      anonymize::GeneralizedDataset anon;
      if (spec.scheme == Scheme::kKm) {
        LICM_ASSIGN_OR_RETURN(anon,
                              anonymize::KmAnonymize(dataset, h, {spec.k, 2}));
      } else {
        LICM_ASSIGN_OR_RETURN(anon,
                              anonymize::KAnonymize(dataset, h, {spec.k}));
      }
      times->anonymize_ms += MsSince(t);
      t = NowNs();
      auto enc = anonymize::EncodeGeneralized(anon, h, dataset);
      times->encode_ms += MsSince(t);
      return enc;
    }
  }
  return Status::Internal("unknown scheme");
}

QueryNodePtr PaperQuery(const InstanceSpec& spec, int qnum) {
  // bench/harness.h sizes the Query-3 threshold for its default 6000
  // transactions; smaller instances scale it down, as its bipartite
  // sweeps do.
  licm::bench::QueryParams params;
  constexpr int64_t kParamsTransactions = 6000;
  params.q3_x = std::max<int64_t>(
      2, params.q3_x *
             std::min<int64_t>(spec.transactions, kParamsTransactions) /
             kParamsTransactions);
  return spec.scheme == Scheme::kBipartite
             ? licm::bench::BuildBipartiteQuery(qnum, params)
             : licm::bench::BuildFlatQuery(qnum, params);
}

Result<double> OriginalWorldAnswer(const anonymize::EncodedDb& enc,
                                   const rel::QueryNode& query) {
  const rel::Database world = enc.db.Instantiate(enc.original_world);
  return rel::EvaluateAggregate(query, world);
}

licm::AnswerOptions FixedWorkOptions(int64_t node_budget) {
  licm::AnswerOptions opts;
  opts.bounds.mip.num_threads = 1;
  opts.bounds.mip.max_nodes_per_component = node_budget;
  opts.bounds.mip.time_limit_seconds = 3600.0;
  return opts;
}

AnswerCounters CountersOf(const licm::AggregateAnswer& answer) {
  const licm::solver::MipStats& s = answer.bounds.stats;
  AnswerCounters c;
  c.nodes = s.nodes;
  c.components = static_cast<int64_t>(s.components);
  c.cache_hits = s.cache_hits;
  c.cache_misses = s.cache_misses;
  c.lp_pivots = s.lp_pivots;
  c.warm_lp_solves = s.warm_lp_solves;
  c.presolve_fixed_vars = static_cast<int64_t>(s.presolve_fixed_vars);
  c.vars_at_query = static_cast<int64_t>(answer.vars_at_query);
  c.constraints_at_query = static_cast<int64_t>(answer.constraints_at_query);
  c.exact_sides = (answer.bounds.min.exact ? 1 : 0) +
                  (answer.bounds.max.exact ? 1 : 0);
  c.open_gap = OpenGap(answer.bounds);
  return c;
}

double OpenGap(const licm::AggregateBounds& b) {
  return (b.min.value - b.min.proved) + (b.max.proved - b.max.value);
}

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

bool SameBounds(const licm::AggregateBounds& a,
                const licm::AggregateBounds& b) {
  return SameBits(a.min.value, b.min.value) &&
         SameBits(a.min.proved, b.min.proved) &&
         SameBits(a.max.value, b.max.value) &&
         SameBits(a.max.proved, b.max.proved) &&
         a.min.exact == b.min.exact && a.max.exact == b.max.exact;
}

void Digest::Add(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::AddCounters(const AnswerCounters& c) {
  for (int64_t v : {c.nodes, c.components, c.cache_hits, c.cache_misses,
                    c.lp_pivots, c.warm_lp_solves, c.presolve_fixed_vars,
                    c.vars_at_query, c.constraints_at_query, c.exact_sides}) {
    AddInt(v);
  }
  AddDouble(c.open_gap);
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void SpanLog::Begin(const char* name) { stack_.push_back({name, NowNs(), 0}); }

void SpanLog::End() {
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t dur = NowNs() - open.start_ns;
  self_ms_[open.name].push_back((dur - open.child_ns) / 1e6);
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

const std::vector<double>& SpanLog::SelfMs(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = self_ms_.find(name);
  return it == self_ms_.end() ? kEmpty : it->second;
}

double ProcessCpuMs() {
  struct rusage u;
  getrusage(RUSAGE_SELF, &u);
  return (u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e3 +
         (u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e3;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

void RunReport::Fail(const std::string& what) {
  ++failed;
  if (failed <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

}  // namespace perfbench
