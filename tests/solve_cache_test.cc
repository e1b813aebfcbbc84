// Tests for the canonical component fingerprint (canonical.h), the LRU
// solve cache (solve_cache.h), and the batched min/max bounds engine:
// isomorphic programs fingerprint identically, mutants don't, and cached
// solves are bit-identical to uncached ones.
#include "solver/solve_cache.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "licm/aggregate.h"
#include "solver/canonical.h"
#include "solver/mip_solver.h"

namespace licm {
namespace {

using solver::CanonicalForm;
using solver::Canonicalize;
using solver::CanonicalizeTwin;
using solver::ComponentCache;
using solver::LinearProgram;
using solver::MipOptions;
using solver::MipResult;
using solver::MipSolver;
using solver::MipStats;
using solver::Row;
using solver::RowOp;
using solver::Sense;
using solver::SolveStatus;
using solver::Term;
using solver::VarId;

// A random small binary program: cardinality-style rows over random
// subsets, occasional non-unit coefficients, random 0/1 objective.
LinearProgram RandomProgram(Rng* rng, int max_vars = 8) {
  LinearProgram lp;
  const int n = 2 + static_cast<int>(rng->Uniform(max_vars - 1));
  for (int v = 0; v < n; ++v) lp.AddBinary();
  for (int v = 0; v < n; ++v) {
    if (rng->Bernoulli(0.7)) {
      lp.SetObjectiveCoef(v, rng->Bernoulli(0.3) ? 2.0 : 1.0);
    }
  }
  const int rows = 1 + static_cast<int>(rng->Uniform(4));
  for (int r = 0; r < rows; ++r) {
    Row row;
    for (int v = 0; v < n; ++v) {
      if (rng->Bernoulli(0.5)) {
        row.terms.push_back(
            {static_cast<VarId>(v), rng->Bernoulli(0.2) ? 2.0 : 1.0});
      }
    }
    if (row.terms.empty()) continue;
    const RowOp ops[] = {RowOp::kLe, RowOp::kGe, RowOp::kEq};
    row.op = ops[rng->Uniform(3)];
    row.rhs = static_cast<double>(rng->Uniform(row.terms.size() + 1));
    lp.AddRow(std::move(row));
  }
  return lp;
}

// Applies a variable permutation (old id -> new id) and shuffles row and
// term order: an isomorphic copy that shares no incidental ordering.
LinearProgram PermuteProgram(const LinearProgram& lp,
                             const std::vector<VarId>& perm, Rng* rng) {
  LinearProgram out;
  std::vector<VarId> inverse(perm.size());
  for (VarId v = 0; v < perm.size(); ++v) inverse[perm[v]] = v;
  for (VarId pos = 0; pos < perm.size(); ++pos) {
    const auto& def = lp.vars()[inverse[pos]];
    out.AddVariable(def.lower, def.upper, def.is_integer);
    out.SetObjectiveCoef(pos, lp.objective_coef(inverse[pos]));
  }
  out.AddObjectiveConstant(lp.objective_constant());
  std::vector<size_t> row_order(lp.num_rows());
  for (size_t r = 0; r < row_order.size(); ++r) row_order[r] = r;
  for (size_t r = row_order.size(); r > 1; --r) {
    std::swap(row_order[r - 1], row_order[rng->Uniform(r)]);
  }
  for (size_t r : row_order) {
    Row row = lp.rows()[r];
    for (Term& t : row.terms) t.var = perm[t.var];
    for (size_t i = row.terms.size(); i > 1; --i) {
      std::swap(row.terms[i - 1], row.terms[rng->Uniform(i)]);
    }
    out.AddRow(std::move(row));
  }
  return out;
}

// The min side's twin: same feasible set, objective negated.
LinearProgram Negated(const LinearProgram& lp) {
  LinearProgram neg = lp;
  for (VarId v = 0; v < neg.num_vars(); ++v) {
    neg.SetObjectiveCoef(v, -neg.objective_coef(v));
  }
  neg.AddObjectiveConstant(-2.0 * neg.objective_constant());
  return neg;
}

// A random program for the key digest: up to 60 variables (binary,
// general integer or continuous), up to 1.5 rows per variable, signed
// coefficients and objective. Every fifth program is three disjoint
// copies of one block, so refinement ends with tied classes.
LinearProgram DigestProgram(Rng* rng, int index) {
  LinearProgram lp;
  const int n = 2 + static_cast<int>(rng->Uniform(59));
  for (int v = 0; v < n; ++v) {
    const uint64_t kind = rng->Uniform(6);
    if (kind == 0) {
      lp.AddVariable(0, 3, true);
    } else if (kind == 1) {
      lp.AddVariable(0, 2.5, false);
    } else {
      lp.AddBinary();
    }
    const double coefs[] = {0.0, 0.0, 1.0, 2.0, -1.0, 0.5};
    lp.SetObjectiveCoef(static_cast<VarId>(v), coefs[rng->Uniform(6)]);
  }
  const int rows = 1 + static_cast<int>(rng->Uniform(3 * n / 2));
  for (int r = 0; r < rows; ++r) {
    Row row;
    const int len = 1 + static_cast<int>(rng->Uniform(std::min(n, 8)));
    for (int t = 0; t < len; ++t) {
      const double coefs[] = {1.0, 1.0, 2.0, -1.0};
      row.terms.push_back({static_cast<VarId>(rng->Uniform(n)),
                           coefs[rng->Uniform(4)]});
    }
    const RowOp ops[] = {RowOp::kLe, RowOp::kGe, RowOp::kEq};
    row.op = ops[rng->Uniform(3)];
    row.rhs = static_cast<double>(rng->Uniform(len + 1));
    lp.AddRow(std::move(row));
  }
  if (index % 5 != 0) return lp;
  LinearProgram copies;
  for (int c = 0; c < 3; ++c) {
    const VarId base = static_cast<VarId>(c * n);
    for (VarId v = 0; v < lp.num_vars(); ++v) {
      const auto& def = lp.vars()[v];
      copies.AddVariable(def.lower, def.upper, def.is_integer);
      copies.SetObjectiveCoef(base + v, lp.objective_coef(v));
    }
    for (Row row : lp.rows()) {
      for (Term& t : row.terms) t.var += base;
      copies.AddRow(std::move(row));
    }
  }
  return copies;
}

std::vector<VarId> RandomPermutation(size_t n, Rng* rng) {
  std::vector<VarId> perm(n);
  for (VarId v = 0; v < n; ++v) perm[v] = v;
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->Uniform(i)]);
  }
  return perm;
}

// ---- Canonical form ----

TEST(Canonical, PermutedProgramsShareAKey) {
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    LinearProgram lp = RandomProgram(&rng);
    LinearProgram iso =
        PermuteProgram(lp, RandomPermutation(lp.num_vars(), &rng), &rng);
    CanonicalForm a = Canonicalize(lp);
    CanonicalForm b = Canonicalize(iso);
    ASSERT_EQ(a.key, b.key) << "iter " << iter;
    ASSERT_EQ(a.hash, b.hash);
  }
}

TEST(Canonical, RelabelingIsAValidWitness) {
  // Push the identity assignment of one program through canonical space
  // into the other: feasibility and objective must be preserved.
  Rng rng(11);
  for (int iter = 0; iter < 100; ++iter) {
    LinearProgram lp = RandomProgram(&rng);
    LinearProgram iso =
        PermuteProgram(lp, RandomPermutation(lp.num_vars(), &rng), &rng);
    CanonicalForm a = Canonicalize(lp);
    CanonicalForm b = Canonicalize(iso);
    ASSERT_EQ(a.key, b.key);
    std::vector<double> x(lp.num_vars());
    for (double& xi : x) xi = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    std::vector<double> mapped =
        CanonicalToInput(b, InputToCanonical(a, x));
    EXPECT_EQ(lp.IsFeasible(x), iso.IsFeasible(mapped)) << "iter " << iter;
    EXPECT_DOUBLE_EQ(lp.EvalObjective(x), iso.EvalObjective(mapped));

    // The twins reuse these relabelings, and they witness the twins'
    // isomorphism the same way.
    const LinearProgram lp_twin = Negated(lp), iso_twin = Negated(iso);
    CanonicalForm ta = CanonicalizeTwin(lp_twin, a);
    CanonicalForm tb = CanonicalizeTwin(iso_twin, b);
    ASSERT_EQ(ta.key, tb.key);
    mapped = CanonicalToInput(tb, InputToCanonical(ta, x));
    EXPECT_EQ(lp_twin.IsFeasible(x), iso_twin.IsFeasible(mapped));
    EXPECT_DOUBLE_EQ(lp_twin.EvalObjective(x), iso_twin.EvalObjective(mapped));
  }
}

constexpr uint64_t kRecordedDigest = 0xcd18a0262aac29e2ULL;

TEST(Canonical, KeysMatchTheRecordedDigest) {
  // FNV-1a over the keys and relabelings of 400 seeded programs, recorded
  // when the refinement kernel was rewritten: any change to the bytes or
  // the labeling shows here. A deliberate format change re-records it.
  Rng rng(2012);
  uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (int i = 0; i < 400; ++i) {
    const CanonicalForm f = Canonicalize(DigestProgram(&rng, i));
    fold(f.key.data(), f.key.size());
    fold(f.canon_to_input.data(), f.canon_to_input.size() * sizeof(VarId));
    fold(&f.hash, sizeof(f.hash));
  }
  EXPECT_EQ(h, kRecordedDigest);
}

TEST(Canonical, PermutedProgramsShareTheirTwinKey) {
  Rng rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    LinearProgram lp = RandomProgram(&rng);
    LinearProgram iso =
        PermuteProgram(lp, RandomPermutation(lp.num_vars(), &rng), &rng);
    CanonicalForm a = CanonicalizeTwin(Negated(lp), Canonicalize(lp));
    CanonicalForm b = CanonicalizeTwin(Negated(iso), Canonicalize(iso));
    ASSERT_EQ(a.key, b.key) << "iter " << iter;
    ASSERT_EQ(a.hash, b.hash);
  }
}

TEST(Canonical, ZeroObjectiveTwinKeepsTheKey) {
  Rng rng(17);
  for (int iter = 0; iter < 50; ++iter) {
    LinearProgram lp = RandomProgram(&rng);
    for (VarId v = 0; v < lp.num_vars(); ++v) lp.SetObjectiveCoef(v, 0.0);
    const CanonicalForm form = Canonicalize(lp);
    const CanonicalForm twin = CanonicalizeTwin(Negated(lp), form);
    EXPECT_EQ(twin.key, form.key) << "iter " << iter;
    EXPECT_EQ(twin.hash, form.hash);
    EXPECT_EQ(twin.canon_to_input, form.canon_to_input);
  }
  // A nonzero objective separates the senses.
  LinearProgram lp;
  lp.AddBinary();
  lp.SetObjectiveCoef(0, 1.0);
  lp.AddRow(Row{{{0, 1}}, RowOp::kLe, 1});
  const CanonicalForm form = Canonicalize(lp);
  EXPECT_NE(CanonicalizeTwin(Negated(lp), form).key, form.key);
}

TEST(Canonical, MutantsGetDistinctKeys) {
  LinearProgram base;
  for (int v = 0; v < 4; ++v) base.AddBinary();
  base.SetObjectiveCoef(0, 1.0);
  base.SetObjectiveCoef(1, 1.0);
  base.AddRow(Row{{{0, 1}, {1, 1}, {2, 1}}, RowOp::kLe, 2});
  base.AddRow(Row{{{2, 1}, {3, 1}}, RowOp::kGe, 1});
  const std::string key = Canonicalize(base).key;

  {
    LinearProgram m = base;
    m.mutable_rows()[0].rhs = 1;  // tighter cardinality
    EXPECT_NE(Canonicalize(m).key, key);
  }
  {
    LinearProgram m = base;
    m.mutable_rows()[1].op = RowOp::kEq;
    EXPECT_NE(Canonicalize(m).key, key);
  }
  {
    LinearProgram m = base;
    m.mutable_rows()[0].terms[1].coef = 2.0;
    EXPECT_NE(Canonicalize(m).key, key);
  }
  {
    LinearProgram m = base;
    m.mutable_vars()[3].upper = 2.0;  // no longer binary
    EXPECT_NE(Canonicalize(m).key, key);
  }
  {
    LinearProgram m = base;
    m.SetObjectiveCoef(2, 1.0);  // objective sees one more variable
    EXPECT_NE(Canonicalize(m).key, key);
  }
  {
    LinearProgram m = base;
    m.AddObjectiveConstant(1.0);
    EXPECT_NE(Canonicalize(m).key, key);
  }
}

// ---- ComponentCache ----

CanonicalForm FormWithRhs(double rhs) {
  LinearProgram lp;
  lp.AddBinary();
  lp.AddRow(Row{{{0, 1}}, RowOp::kLe, rhs});
  return Canonicalize(lp);
}

TEST(ComponentCacheTest, LruEvictionAndCounters) {
  ComponentCache cache(2);
  CanonicalForm a = FormWithRhs(1), b = FormWithRhs(2), c = FormWithRhs(3);
  ComponentCache::Entry e;
  e.status = SolveStatus::kOptimal;
  e.objective = 1.0;

  EXPECT_FALSE(cache.Lookup(a, &e));
  EXPECT_TRUE(cache.Insert(a, e));
  EXPECT_TRUE(cache.Insert(b, e));
  EXPECT_FALSE(cache.Insert(b, e));  // already present
  EXPECT_TRUE(cache.Lookup(a, &e));  // a becomes most-recently-used
  EXPECT_TRUE(cache.Insert(c, e));   // evicts b, the LRU entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup(b, &e));
  EXPECT_TRUE(cache.Lookup(a, &e));
  EXPECT_TRUE(cache.Lookup(c, &e));

  solver::ComponentCacheStats s = cache.Snapshot();
  EXPECT_EQ(s.hits, 3);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.inserts, 3);
  EXPECT_EQ(s.evictions, 1);
}

TEST(ComponentCacheTest, EntriesRoundTrip) {
  ComponentCache cache;
  CanonicalForm f = FormWithRhs(1);
  ComponentCache::Entry in;
  in.status = SolveStatus::kOptimal;
  in.objective = 2.5;
  in.has_solution = true;
  in.solution = {1.0, 0.0, 1.0};
  ASSERT_TRUE(cache.Insert(f, in));
  ComponentCache::Entry out;
  ASSERT_TRUE(cache.Lookup(f, &out));
  EXPECT_EQ(out.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(out.objective, 2.5);
  EXPECT_EQ(out.solution, in.solution);
}

TEST(ComponentCacheTest, ConcurrentInsertLookupSmoke) {
  ComponentCache cache(64);
  std::vector<CanonicalForm> forms;
  for (int i = 0; i < 100; ++i) forms.push_back(FormWithRhs(i));
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&cache, &forms, t] {
      ComponentCache::Entry e;
      e.status = SolveStatus::kOptimal;
      for (int round = 0; round < 50; ++round) {
        for (size_t i = t; i < forms.size(); i += 2) {
          if (!cache.Lookup(forms[i], &e)) {
            e.objective = static_cast<double>(i);
            cache.Insert(forms[i], e);
          } else {
            EXPECT_DOUBLE_EQ(e.objective, static_cast<double>(i));
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_LE(cache.size(), 64u);
}

TEST(ComponentCacheTest, EpochCountsCrossVersionHits) {
  ComponentCache cache;
  CanonicalForm a = FormWithRhs(1), b = FormWithRhs(2);
  ComponentCache::Entry e;
  e.status = SolveStatus::kOptimal;
  ASSERT_TRUE(cache.Insert(a, e));

  // Same-epoch hits are ordinary hits.
  EXPECT_TRUE(cache.Lookup(a, &e));
  EXPECT_EQ(cache.Snapshot().cross_epoch_hits, 0);

  // After a version bump (mutation commit), a hit on the pre-bump entry is
  // the proof that the fingerprint-keyed result survived the mutation.
  cache.BumpEpoch();
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_TRUE(cache.Lookup(a, &e));
  EXPECT_EQ(cache.Snapshot().cross_epoch_hits, 1);

  // Entries inserted in the current epoch do not count.
  ASSERT_TRUE(cache.Insert(b, e));
  EXPECT_TRUE(cache.Lookup(b, &e));
  EXPECT_EQ(cache.Snapshot().cross_epoch_hits, 1);

  // Two bumps later, both entries predate the epoch.
  cache.BumpEpoch();
  EXPECT_TRUE(cache.Lookup(a, &e));
  EXPECT_TRUE(cache.Lookup(b, &e));
  EXPECT_EQ(cache.Snapshot().cross_epoch_hits, 3);
}

// ---- MipStats ----

TEST(MipStatsTest, MergeFromSumsCountersAndSplitsWallFromCpu) {
  MipStats a, b;
  a.nodes = 1; a.lp_solves = 2; a.components = 3;
  a.presolve_fixed_vars = 4; a.root_completion_failures = 5;
  a.decompose_calls = 7;
  a.cache_hits = 8; a.cache_misses = 9; a.canonical_forms = 10;
  a.num_threads = 2;
  a.solve_seconds = 0.5;
  a.cpu_seconds = 0.25;
  b.nodes = 10; b.lp_solves = 20; b.components = 30;
  b.presolve_fixed_vars = 40; b.root_completion_failures = 50;
  b.decompose_calls = 70;
  b.cache_hits = 80; b.cache_misses = 90; b.canonical_forms = 100;
  b.num_threads = 4;
  b.solve_seconds = 1.5;
  b.cpu_seconds = 1.25;
  a.MergeFrom(b);
  EXPECT_EQ(a.nodes, 11);
  EXPECT_EQ(a.lp_solves, 22);
  EXPECT_EQ(a.components, 33u);
  EXPECT_EQ(a.presolve_fixed_vars, 44u);
  EXPECT_EQ(a.root_completion_failures, 55);
  EXPECT_EQ(a.decompose_calls, 77);
  EXPECT_EQ(a.cache_hits, 88);
  EXPECT_EQ(a.cache_misses, 99);
  EXPECT_EQ(a.canonical_forms, 110);
  // Concurrent strands overlap in time: the wall clock keeps the
  // outermost (max) value while CPU time adds across strands.
  EXPECT_EQ(a.num_threads, 4);
  EXPECT_DOUBLE_EQ(a.solve_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.cpu_seconds, 1.5);
}

TEST(MipStatsTest, MergeFromIsOrderIndependent) {
  MipStats parts[3];
  parts[0].nodes = 5; parts[0].solve_seconds = 0.75;
  parts[0].cpu_seconds = 0.7; parts[0].num_threads = 1;
  parts[1].nodes = 7; parts[1].solve_seconds = 2.0;
  parts[1].cpu_seconds = 1.9; parts[1].num_threads = 8;
  parts[2].nodes = 11; parts[2].solve_seconds = 1.25;
  parts[2].cpu_seconds = 1.2; parts[2].num_threads = 4;
  MipStats forward, backward;
  for (int i = 0; i < 3; ++i) forward.MergeFrom(parts[i]);
  for (int i = 2; i >= 0; --i) backward.MergeFrom(parts[i]);
  EXPECT_EQ(forward.nodes, backward.nodes);
  EXPECT_EQ(forward.num_threads, backward.num_threads);
  EXPECT_DOUBLE_EQ(forward.solve_seconds, backward.solve_seconds);
  EXPECT_DOUBLE_EQ(forward.cpu_seconds, backward.cpu_seconds);
  EXPECT_EQ(forward.nodes, 23);
  EXPECT_EQ(forward.num_threads, 8);
  EXPECT_DOUBLE_EQ(forward.solve_seconds, 2.0);
  EXPECT_DOUBLE_EQ(forward.cpu_seconds, 3.8);
}

// ---- Batched SolveMinMax ----

void ExpectSameResult(const MipResult& got, const MipResult& want) {
  ASSERT_EQ(got.status, want.status);
  EXPECT_EQ(got.has_solution, want.has_solution);
  if (want.has_solution) {
    EXPECT_DOUBLE_EQ(got.objective, want.objective);
    EXPECT_DOUBLE_EQ(got.best_bound, want.best_bound);
  }
}

TEST(SolveMinMax, MatchesSeparateSolves) {
  Rng rng(23);
  for (int iter = 0; iter < 150; ++iter) {
    LinearProgram lp = RandomProgram(&rng, 10);
    for (bool use_cache : {false, true}) {
      MipOptions opt;
      opt.use_cache = use_cache;
      MipSolver solver(opt);
      solver::MinMaxMipResult both = solver.SolveMinMax(lp);
      MipResult max = solver.Solve(lp, Sense::kMaximize);
      MipResult min = solver.Solve(lp, Sense::kMinimize);
      ExpectSameResult(both.max, max);
      ExpectSameResult(both.min, min);
      if (both.max.has_solution) {
        EXPECT_TRUE(lp.IsFeasible(both.max.solution));
        EXPECT_DOUBLE_EQ(lp.EvalObjective(both.max.solution),
                         both.max.objective);
      }
      if (both.min.has_solution) {
        EXPECT_TRUE(lp.IsFeasible(both.min.solution));
        EXPECT_DOUBLE_EQ(lp.EvalObjective(both.min.solution),
                         both.min.objective);
      }
      EXPECT_EQ(both.stats.decompose_calls, 1);
    }
  }
}

// ---- Fingerprinting only what can hit ----

// Appends a copy of `block` over fresh variables of `lp`.
void AppendBlock(const LinearProgram& block, LinearProgram* lp) {
  const VarId base = static_cast<VarId>(lp->num_vars());
  for (VarId v = 0; v < block.num_vars(); ++v) {
    const auto& def = block.vars()[v];
    lp->AddVariable(def.lower, def.upper, def.is_integer);
    lp->SetObjectiveCoef(base + v, block.objective_coef(v));
  }
  for (Row row : block.rows()) {
    for (Term& t : row.terms) t.var += base;
    lp->AddRow(std::move(row));
  }
}

// A group-shaped block: `width` binaries, at least one present, the first
// two exclusive, objective weights 1, 2, 1, 2, ... scaled by `weight`.
LinearProgram GroupBlock(int width, double weight) {
  LinearProgram lp;
  Row cover{{}, RowOp::kGe, 1};
  for (int v = 0; v < width; ++v) {
    lp.AddBinary();
    lp.SetObjectiveCoef(static_cast<VarId>(v), weight * (1 + v % 2));
    cover.terms.push_back({static_cast<VarId>(v), 1});
  }
  lp.AddRow(std::move(cover));
  lp.AddRow(Row{{{0, 1}, {1, 1}}, RowOp::kLe, 1});
  return lp;
}

// The batch options these tests solve under: one thread (deterministic
// worlds).
MipOptions BatchOptions() {
  MipOptions opt;
  opt.num_threads = 1;
  return opt;
}

void ExpectSameCounts(const MipStats& got, const MipStats& want) {
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.cache_misses, want.cache_misses);
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.components, want.components);
}

void ExpectSameWorld(const MipResult& got, const MipResult& want) {
  ExpectSameResult(got, want);
  EXPECT_EQ(got.solution, want.solution);
}

TEST(FingerprintRule, UniqueComponentsAreNeverFingerprinted) {
  // Pairwise non-isomorphic components (distinct widths): a call-local
  // cache cannot hit, so nothing is fingerprinted, while a caller's cache
  // fingerprints everything. Everything else is identical.
  LinearProgram lp;
  for (int width = 3; width < 9; ++width) {
    AppendBlock(GroupBlock(width, 1.0), &lp);
  }
  const MipSolver local(BatchOptions());
  ComponentCache cache;
  MipOptions shared_opt = BatchOptions();
  shared_opt.cache = &cache;
  const MipSolver shared(shared_opt);

  for (Sense sense : {Sense::kMaximize, Sense::kMinimize}) {
    const MipResult a = local.Solve(lp, sense);
    const MipResult b = shared.Solve(lp, sense);
    EXPECT_EQ(a.stats.canonical_forms, 0);
    EXPECT_EQ(b.stats.canonical_forms, 6);
    ExpectSameCounts(a.stats, b.stats);
    EXPECT_EQ(a.stats.cache_misses, 6);
    ExpectSameWorld(a, b);
  }
  ComponentCache fresh;
  shared_opt.cache = &fresh;
  const solver::MinMaxMipResult a = local.SolveMinMax(lp);
  const solver::MinMaxMipResult b = MipSolver(shared_opt).SolveMinMax(lp);
  EXPECT_EQ(a.stats.canonical_forms, 0);
  EXPECT_EQ(b.stats.canonical_forms, 12);
  ExpectSameCounts(a.stats, b.stats);
  EXPECT_EQ(a.stats.cache_hits, 0);
  EXPECT_EQ(a.stats.cache_misses, 12);
  ExpectSameWorld(a.max, b.max);
  ExpectSameWorld(a.min, b.min);
}

TEST(FingerprintRule, IsomorphicCopiesShareOneSearch) {
  // Two renamed copies of one block plus one unique block: only the
  // copies are fingerprinted, and each class is searched once.
  Rng rng(3);
  LinearProgram lp;
  AppendBlock(GroupBlock(5, 1.0), &lp);
  AppendBlock(
      PermuteProgram(GroupBlock(5, 1.0), RandomPermutation(5, &rng), &rng),
      &lp);
  AppendBlock(GroupBlock(4, 3.0), &lp);
  const MipSolver solver(BatchOptions());

  const MipResult max = solver.Solve(lp, Sense::kMaximize);
  ASSERT_EQ(max.status, SolveStatus::kOptimal);
  EXPECT_EQ(max.objective, 2 * 6.0 + 15.0);
  EXPECT_EQ(max.stats.canonical_forms, 2);
  EXPECT_EQ(max.stats.cache_hits, 1);
  EXPECT_EQ(max.stats.cache_misses, 2);
  EXPECT_TRUE(lp.IsFeasible(max.solution));

  // Both senses: the copies and their twins are fingerprinted (two
  // classes), the unique block and its twin are not.
  const solver::MinMaxMipResult both = solver.SolveMinMax(lp);
  EXPECT_EQ(both.max.objective, max.objective);
  EXPECT_EQ(both.min.objective, 2 * 1.0 + 3.0);
  EXPECT_EQ(both.stats.canonical_forms, 4);
  EXPECT_EQ(both.stats.cache_hits, 2);
  EXPECT_EQ(both.stats.cache_misses, 4);
}

// Three fillers y1 + y2 >= 1, y1 + y3 >= 1, y2 + y3 <= 1 and no objective:
// nothing propagates, and the root completion (y1 = 0, which forces y2 =
// y3 = 1) breaks the <= row, so the root step leaves it open.
LinearProgram CompletionTrap() {
  LinearProgram lp;
  for (int v = 0; v < 3; ++v) lp.AddBinary();
  lp.AddRow(Row{{{0, 1}, {1, 1}}, RowOp::kGe, 1});
  lp.AddRow(Row{{{0, 1}, {2, 1}}, RowOp::kGe, 1});
  lp.AddRow(Row{{{1, 1}, {2, 1}}, RowOp::kLe, 1});
  return lp;
}

TEST(FingerprintRule, ZeroObjectiveTwinStillDedupesAcrossSenses) {
  // A feasibility-only component's min-side twin carries -0.0
  // coefficients; its invariant must still equal its original's, or the
  // pair would skip fingerprinting and be searched twice.
  LinearProgram lp;
  AppendBlock(CompletionTrap(), &lp);
  AppendBlock(GroupBlock(3, 1.0), &lp);
  const solver::MinMaxMipResult both =
      MipSolver(BatchOptions()).SolveMinMax(lp);
  ASSERT_EQ(both.max.status, SolveStatus::kOptimal);
  EXPECT_EQ(both.max.objective, 3.0);
  EXPECT_EQ(both.min.objective, 1.0);
  EXPECT_EQ(both.stats.root_completion_failures, 4);
  EXPECT_EQ(both.stats.canonical_forms, 2);
  EXPECT_EQ(both.stats.cache_hits, 1);
  EXPECT_EQ(both.stats.cache_misses, 3);
}

// max y s.t. 2y <= x1 + x2 + x3: the root completion closes both senses.
LinearProgram ThresholdBlock() {
  LinearProgram lp;
  for (int v = 0; v < 4; ++v) lp.AddBinary();
  lp.SetObjectiveCoef(3, 1.0);
  lp.AddRow(Row{{{0, -1}, {1, -1}, {2, -1}, {3, 2}}, RowOp::kLe, 0});
  return lp;
}

TEST(FingerprintRule, RootClosedCopiesAreNeverFingerprinted) {
  // Renamed copies of a block the root step closes: a call-local batch
  // settles each at its root, so it fingerprints nothing and counts no
  // hit, miss or node. A caller's cache still looks every copy up first.
  Rng rng(5);
  LinearProgram lp;
  for (int copy = 0; copy < 6; ++copy) {
    AppendBlock(
        PermuteProgram(ThresholdBlock(), RandomPermutation(4, &rng), &rng),
        &lp);
  }
  const solver::MinMaxMipResult local =
      MipSolver(BatchOptions()).SolveMinMax(lp);
  ASSERT_EQ(local.max.status, SolveStatus::kOptimal);
  EXPECT_EQ(local.max.objective, 6.0);
  EXPECT_EQ(local.min.objective, 0.0);
  EXPECT_EQ(local.stats.canonical_forms, 0);
  EXPECT_EQ(local.stats.cache_hits, 0);
  EXPECT_EQ(local.stats.cache_misses, 0);
  EXPECT_EQ(local.stats.nodes, 0);
  EXPECT_EQ(local.stats.root_completion_failures, 0);
  EXPECT_TRUE(lp.IsFeasible(local.max.solution));

  MipOptions off = BatchOptions();
  off.use_cache = false;
  const solver::MinMaxMipResult uncached = MipSolver(off).SolveMinMax(lp);
  EXPECT_EQ(uncached.stats.nodes, 0);
  ExpectSameWorld(uncached.max, local.max);
  ExpectSameWorld(uncached.min, local.min);

  ComponentCache cache;
  MipOptions shared = BatchOptions();
  shared.cache = &cache;
  const solver::MinMaxMipResult first = MipSolver(shared).SolveMinMax(lp);
  EXPECT_EQ(first.stats.canonical_forms, 12);
  EXPECT_EQ(first.stats.cache_hits + first.stats.cache_misses, 12);
  EXPECT_EQ(first.max.objective, local.max.objective);
  EXPECT_EQ(first.min.objective, local.min.objective);
}

TEST(Canonical, EqualKeysImplyEqualInvariants) {
  // Over the digest's seeded programs, their renamed copies, their
  // min-side twins and their zero-objective variants: every key maps to
  // one invariant, and renamed copies share it.
  Rng rng(2012);
  std::unordered_map<std::string, uint64_t> invariant_of;
  int repeated_keys = 0;
  auto record = [&](const std::string& key, const LinearProgram& lp) {
    const uint64_t inv = solver::IsomorphismInvariant(lp);
    auto [it, fresh] = invariant_of.emplace(key, inv);
    EXPECT_EQ(it->second, inv);
    repeated_keys += fresh ? 0 : 1;
  };
  for (int i = 0; i < 400; ++i) {
    LinearProgram lp = DigestProgram(&rng, i);
    LinearProgram iso =
        PermuteProgram(lp, RandomPermutation(lp.num_vars(), &rng), &rng);
    ASSERT_EQ(solver::IsomorphismInvariant(lp),
              solver::IsomorphismInvariant(iso))
        << "program " << i;
    for (int pass = 0; pass < 2; ++pass) {
      for (LinearProgram* p : {&lp, &iso}) {
        const CanonicalForm form = Canonicalize(*p);
        record(form.key, *p);
        const LinearProgram twin = Negated(*p);
        record(CanonicalizeTwin(twin, form).key, twin);
        // Second pass: the same program as a feasibility-only component.
        for (VarId v = 0; v < p->num_vars(); ++v) p->SetObjectiveCoef(v, 0.0);
      }
    }
  }
  // The implication was exercised: renamed copies and zero-objective
  // twins land on keys already seen.
  EXPECT_GT(repeated_keys, 800);
}

// ---- Aggregate layer ----

// A constraint set of `groups` structurally identical blocks over disjoint
// variables: the shape the cache exists for.
ConstraintSet IsomorphicGroups(int groups, int group_size, int64_t z1,
                               int64_t z2) {
  ConstraintSet cs;
  for (int g = 0; g < groups; ++g) {
    std::vector<BVar> vars(group_size);
    for (int i = 0; i < group_size; ++i) {
      vars[i] = static_cast<BVar>(g * group_size + i);
    }
    cs.AddCardinality(vars, z1, z2);
  }
  return cs;
}

TEST(AggregateCache, IsomorphicGroupsHitTheCache) {
  const int kGroups = 40, kSize = 5;
  ConstraintSet cs = IsomorphicGroups(kGroups, kSize, 1, 3);
  Objective obj;
  for (BVar v = 0; v < kGroups * kSize; ++v) obj.coefs[v] = 1.0;

  BoundsOptions options;
  auto bounds = ComputeBounds(obj, cs, kGroups * kSize, options);
  ASSERT_TRUE(bounds.ok()) << bounds.status().ToString();
  EXPECT_DOUBLE_EQ(bounds->min.value, 1.0 * kGroups);
  EXPECT_DOUBLE_EQ(bounds->max.value, 3.0 * kGroups);
  // One decomposition for BOTH senses, and all but one component per
  // sense answered by the cache.
  EXPECT_EQ(bounds->stats.decompose_calls, 1);
  EXPECT_GE(bounds->stats.cache_hits, 2 * (kGroups - 1));
  EXPECT_LE(bounds->stats.cache_misses, 2);
}

TEST(AggregateCache, SharedCacheCarriesAcrossCalls) {
  ConstraintSet cs = IsomorphicGroups(10, 4, 1, 2);
  Objective obj;
  for (BVar v = 0; v < 40; ++v) obj.coefs[v] = 1.0;

  ComponentCache shared;
  BoundsOptions options;
  options.mip.cache = &shared;
  auto first = ComputeBounds(obj, cs, 40, options);
  ASSERT_TRUE(first.ok());
  auto second = ComputeBounds(obj, cs, 40, options);
  ASSERT_TRUE(second.ok());
  // The second call finds every component already memoized.
  EXPECT_EQ(second->stats.cache_misses, 0);
  EXPECT_DOUBLE_EQ(second->min.value, first->min.value);
  EXPECT_DOUBLE_EQ(second->max.value, first->max.value);
}

TEST(AggregateCache, MutationKeepsUntouchedComponentsCached) {
  // The streaming commit protocol at the cache level: solve K pairwise
  // non-isomorphic groups (distinct sizes, so every group has its own
  // fingerprint), bump the epoch (one mutation commit), perturb exactly
  // one group, and re-solve. The K-1 untouched groups must be answered by
  // cross-epoch hits, the touched group's new fingerprint must miss and
  // insert, and nothing may be evicted.
  const int kGroups = 10;
  auto group_vars = [](int g) {
    // Group g owns 2+g consecutive variables; distinct widths keep the
    // canonical forms distinct.
    std::vector<BVar> vars;
    BVar base = 0;
    for (int h = 0; h < g; ++h) base += static_cast<BVar>(2 + h);
    for (int i = 0; i < 2 + g; ++i) vars.push_back(base + i);
    return vars;
  };
  uint32_t num_vars = 0;
  for (int g = 0; g < kGroups; ++g) num_vars += 2 + g;

  auto build = [&](int64_t group0_z1, int64_t group0_z2) {
    ConstraintSet cs;
    for (int g = 0; g < kGroups; ++g) {
      std::vector<BVar> vars = group_vars(g);
      const int64_t z1 = g == 0 ? group0_z1 : 1;
      const int64_t z2 =
          g == 0 ? group0_z2 : static_cast<int64_t>(vars.size()) - 1;
      cs.AddCardinality(vars, z1, z2);
    }
    return cs;
  };
  Objective obj;
  for (BVar v = 0; v < num_vars; ++v) obj.coefs[v] = 1.0;

  ComponentCache shared;
  BoundsOptions options;
  options.mip.cache = &shared;
  auto before = ComputeBounds(obj, build(1, 1), num_vars, options);
  ASSERT_TRUE(before.ok());
  const solver::ComponentCacheStats cold = shared.Snapshot();

  shared.BumpEpoch();
  // "Mutate" group 0: shift its cardinality band from [1,1] to [0,1].
  // All other groups keep their constraints — and their fingerprints.
  auto after = ComputeBounds(obj, build(0, 1), num_vars, options);
  ASSERT_TRUE(after.ok());
  const solver::ComponentCacheStats warm = shared.Snapshot();

  // Untouched components were served across the version bump.
  EXPECT_GE(warm.cross_epoch_hits, 2 * (kGroups - 1));
  // Only the touched component's new fingerprint missed (once per sense).
  EXPECT_LE(warm.misses - cold.misses, 2);
  EXPECT_GE(warm.inserts - cold.inserts, 1);
  // Mutation never evicts: stale fingerprints just stop being looked up.
  EXPECT_EQ(warm.evictions, 0);
  // And the bounds reflect the edit: group 0's band shifted from [1,1] to
  // [0,1], so the floor drops by one and the ceiling is unchanged.
  EXPECT_DOUBLE_EQ(after->min.value, before->min.value - 1.0);
  EXPECT_DOUBLE_EQ(after->max.value, before->max.value);
}

// Random oracle-sized instances: the cache must be answer-invisible.
ConstraintSet RandomConstraints(Rng* rng, uint32_t num_vars) {
  ConstraintSet cs;
  const int n = static_cast<int>(rng->Uniform(5));
  for (int c = 0; c < n; ++c) {
    std::vector<BVar> subset;
    for (BVar v = 0; v < num_vars; ++v) {
      if (rng->Bernoulli(0.4)) subset.push_back(v);
    }
    if (subset.size() < 2) continue;
    switch (rng->Uniform(4)) {
      case 0: {
        int64_t z1 = rng->UniformInt(0, 1);
        cs.AddCardinality(subset, z1,
                          rng->UniformInt(z1, subset.size()));
        break;
      }
      case 1: cs.AddImplication(subset[0], subset[1]); break;
      case 2: cs.AddMutualExclusion(subset[0], subset[1]); break;
      case 3: cs.AddOr(subset[0], {subset[1]}); break;
    }
  }
  return cs;
}

TEST(AggregateCache, CachedBoundsEqualUncachedExactly) {
  Rng rng(31);
  for (int iter = 0; iter < 120; ++iter) {
    const uint32_t num_vars = 4 + static_cast<uint32_t>(rng.Uniform(8));
    ConstraintSet cs = RandomConstraints(&rng, num_vars);
    Objective obj;
    obj.constant = static_cast<double>(rng.Uniform(3));
    for (BVar v = 0; v < num_vars; ++v) {
      if (rng.Bernoulli(0.7)) obj.coefs[v] = 1.0;
    }

    BoundsOptions cached, uncached;
    uncached.mip.use_cache = false;
    auto with = ComputeBounds(obj, cs, num_vars, cached);
    auto without = ComputeBounds(obj, cs, num_vars, uncached);
    ASSERT_EQ(with.ok(), without.ok()) << "iter " << iter;
    if (!with.ok()) continue;
    EXPECT_EQ(with->min.value, without->min.value) << "iter " << iter;
    EXPECT_EQ(with->max.value, without->max.value) << "iter " << iter;
    EXPECT_EQ(with->min.exact, without->min.exact);
    EXPECT_EQ(with->max.exact, without->max.exact);
    EXPECT_EQ(with->min.proved, without->min.proved);
    EXPECT_EQ(with->max.proved, without->max.proved);
  }
}

TEST(AggregateCache, MinMaxProbesMatchUncached) {
  Rng rng(41);
  for (int iter = 0; iter < 60; ++iter) {
    const uint32_t num_vars = 3 + static_cast<uint32_t>(rng.Uniform(5));
    ConstraintSet cs = RandomConstraints(&rng, num_vars);
    // One (value, Ext) pair per tuple of a one-column relation.
    std::vector<double> vals;
    std::vector<Ext> exts;
    for (BVar v = 0; v < num_vars; ++v) {
      vals.push_back(static_cast<double>(rng.Uniform(4)));
      exts.push_back(rng.Bernoulli(0.2) ? Ext::Certain() : Ext::Maybe(v));
    }
    for (bool is_max : {false, true}) {
      BoundsOptions cached, uncached;
      uncached.mip.use_cache = false;
      auto with =
          ComputeMinMaxBounds(vals, exts, cs, num_vars, is_max, cached);
      auto without =
          ComputeMinMaxBounds(vals, exts, cs, num_vars, is_max, uncached);
      ASSERT_EQ(with.ok(), without.ok()) << "iter " << iter;
      if (!with.ok()) continue;
      EXPECT_EQ(with->lo, without->lo) << "iter " << iter;
      EXPECT_EQ(with->hi, without->hi) << "iter " << iter;
      EXPECT_EQ(with->exact_lo, without->exact_lo);
      EXPECT_EQ(with->exact_hi, without->exact_hi);
      EXPECT_EQ(with->may_be_empty, without->may_be_empty);
      EXPECT_EQ(with->always_empty, without->always_empty);
    }
  }
}

}  // namespace
}  // namespace licm
