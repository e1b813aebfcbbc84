// Tests of the query service layer (src/service/): the JSON parser, the
// wire protocol, admission control, degraded responses and the batch
// transport. Socket sessions are in net_loop_test.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "licm/evaluator.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "service/server.h"
#include "testing/generator.h"

namespace licm::service {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, ParsesScalarsObjectsAndArrays) {
  auto v = ParseJson(
      R"({"a": 1.5, "b": "x\ny", "c": [true, false, null], "d": {"e": -2}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->IsObject());
  EXPECT_EQ(1.5, v->GetNumber("a", 0).value());
  EXPECT_EQ("x\ny", v->GetString("b", "").value());
  const JsonValue* c = v->Find("c");
  ASSERT_NE(nullptr, c);
  ASSERT_EQ(JsonValue::Kind::kArray, c->kind);
  ASSERT_EQ(3u, c->array.size());
  EXPECT_EQ(JsonValue::Kind::kBool, c->array[0].kind);
  EXPECT_EQ(JsonValue::Kind::kNull, c->array[2].kind);
  const JsonValue* d = v->Find("d");
  ASSERT_NE(nullptr, d);
  EXPECT_EQ(-2, d->GetInt("e", 0).value());
}

TEST(Json, TypedAccessorsDefaultWhenAbsentAndErrorWhenMistyped) {
  auto v = ParseJson(R"({"n": 3, "s": "hi"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(7, v->GetInt("missing", 7).value());
  EXPECT_EQ("d", v->GetString("missing", "d").value());
  EXPECT_FALSE(v->GetString("n", "").ok());
  EXPECT_FALSE(v->GetNumber("s", 0).ok());
  EXPECT_FALSE(v->GetInt("s", 0).ok());
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1.5.5x", "{\"a\":1} trailing",
        "\"unterminated", "{\"a\" 1}", "nan", "inf"}) {
    auto v = ParseJson(bad);
    EXPECT_FALSE(v.ok()) << "accepted: " << bad;
    if (!v.ok()) {
      EXPECT_EQ(StatusCode::kInvalidArgument, v.status().code());
    }
  }
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep(64, '[');
  deep += "1";
  deep.append(64, ']');
  auto v = ParseJson(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(std::string::npos, v.status().message().find("deep"));
}

TEST(Json, GetIntRejectsFractions) {
  auto v = ParseJson(R"({"n": 1.5})");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->GetInt("n", 0).ok());
}

TEST(Json, EscapeRoundTripsControlCharacters) {
  const std::string raw = "a\"b\\c\nd\te\x01f";
  auto v = ParseJson("{\"s\":\"" + JsonEscape(raw) + "\"}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(raw, v->GetString("s", "").value());
}

// ------------------------------------------------------------ protocol --

TEST(Protocol, ParsesQueryRequestWithDefaults) {
  auto req = ParseRequestLine(R"({"op":"query","instance":"demo"})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ("query", req->op);
  EXPECT_EQ("demo", req->instance);
  EXPECT_EQ(-1, req->id);
  EXPECT_EQ(1, req->qnum);
  EXPECT_EQ(-1.0, req->deadline_ms);
  EXPECT_EQ(0, req->mc_worlds);
}

TEST(Protocol, ParsesAllFields) {
  auto req = ParseRequestLine(
      R"({"op":"query","id":9,"instance":"i","qnum":3,"deadline_ms":250,)"
      R"("mc_worlds":12,"seed":77})");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(9, req->id);
  EXPECT_EQ(3, req->qnum);
  EXPECT_EQ(250.0, req->deadline_ms);
  EXPECT_EQ(12, req->mc_worlds);
  EXPECT_EQ(77u, req->seed);
}

TEST(Protocol, ParsesMutateAndLoadFields) {
  auto m = ParseRequestLine(
      R"({"op":"mutate","id":4,"instance":"i","action":"append",)"
      R"("relation":"t","row":"9,z","maybe":true,"cindex":2,"cop":"ge",)"
      R"("rhs":5,"var":3,"value":1})");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ("mutate", m->op);
  EXPECT_EQ("append", m->action);
  EXPECT_EQ("t", m->relation);
  EXPECT_EQ("9,z", m->row);
  EXPECT_TRUE(m->maybe);
  EXPECT_EQ(2, m->cindex);
  EXPECT_EQ("ge", m->cop);
  EXPECT_EQ(5, m->rhs);
  EXPECT_EQ(3, m->var);
  EXPECT_EQ(1, m->value);

  auto l = ParseRequestLine(
      R"({"op":"load","instance":"i","spec":"kanon:4","replace":true})");
  ASSERT_TRUE(l.ok());
  EXPECT_EQ("kanon:4", l->spec);
  EXPECT_TRUE(l->replace);

  // Mutation fields default to their sentinels.
  auto d = ParseRequestLine(R"({"op":"mutate","instance":"i"})");
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->maybe);
  EXPECT_FALSE(d->replace);
  EXPECT_EQ(-1, d->cindex);
  EXPECT_EQ(-1, d->var);
}

TEST(Protocol, MissingOpAndMistypedFieldsAreTypedErrors) {
  EXPECT_FALSE(ParseRequestLine(R"({"id":1})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"query","qnum":"one"})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"query","mc_worlds":-1})").ok());
  EXPECT_FALSE(ParseRequestLine(R"([1,2,3])").ok());
}

TEST(Protocol, OutOfRangeIntegersAreTypedErrors) {
  // Past the int fields' range: rejected, not answered as Q1 / default.
  for (const char* line :
       {R"({"op":"query","qnum":4294967297})",
        R"({"op":"query","mc_worlds":4294967296})",
        R"({"op":"query","qnum":-2147483649})",
        // Past int64_t: converting these doubles would be undefined.
        R"({"op":"query","id":1e300})", R"({"op":"query","id":-1e300})",
        R"({"op":"query","id":9223372036854775808})",
        R"({"op":"mutate","rhs":1e19})"}) {
    auto req = ParseRequestLine(line);
    ASSERT_FALSE(req.ok()) << line;
    EXPECT_EQ(StatusCode::kInvalidArgument, req.status().code()) << line;
  }
  // The ends of each range still parse.
  auto lo = ParseRequestLine(R"({"op":"query","id":-9223372036854775808})");
  ASSERT_TRUE(lo.ok()) << lo.status().ToString();
  EXPECT_EQ(INT64_MIN, lo->id);
  auto hi = ParseRequestLine(
      R"({"op":"query","qnum":2147483647,"mc_worlds":2147483647})");
  ASSERT_TRUE(hi.ok()) << hi.status().ToString();
  EXPECT_EQ(2147483647, hi->qnum);
  EXPECT_EQ(2147483647, hi->mc_worlds);
}

TEST(Protocol, SeedsOutsideTheExactDoubleRangeAreTypedErrors) {
  // A negative seed used to wrap to a large unsigned one; seeds above
  // 2^53 have no exact JSON spelling.
  for (const char* line : {R"({"op":"query","seed":-1})",
                           R"({"op":"query","seed":9007199254740994})",
                           R"({"op":"query","seed":1e18})"}) {
    auto req = ParseRequestLine(line);
    ASSERT_FALSE(req.ok()) << line;
    EXPECT_EQ(StatusCode::kInvalidArgument, req.status().code()) << line;
  }
  auto top = ParseRequestLine(R"({"op":"query","seed":9007199254740992})");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(kMaxWireSeed, top->seed);
  auto zero = ParseRequestLine(R"({"op":"query","seed":0})");
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ(0u, zero->seed);
}

TEST(Protocol, RenderedResponsesParseBack) {
  QueryResponse r;
  r.degraded = true;
  r.min = 1;
  r.max = 9;
  r.proved_min = 0;
  r.proved_max = 10;
  r.has_samples = true;
  r.sample_min = 2;
  r.sample_max = 8;
  r.sample_worlds = 5;
  auto v = ParseJson(RenderQueryResponse(42, r));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(42, v->GetInt("id", 0).value());
  EXPECT_TRUE(v->GetBool("ok", false).value());
  EXPECT_TRUE(v->GetBool("degraded", false).value());
  EXPECT_EQ(1.0, v->GetNumber("min", -1).value());
  EXPECT_EQ(9.0, v->GetNumber("max", -1).value());
  EXPECT_EQ(5, v->GetInt("sample_worlds", 0).value());

  auto err = ParseJson(RenderError(7, Status::Overloaded("queue full")));
  ASSERT_TRUE(err.ok());
  EXPECT_FALSE(err->GetBool("ok", true).value());
  EXPECT_EQ("Overloaded", err->GetString("status", "").value());
  EXPECT_EQ("queue full", err->GetString("error", "").value());
}

// -------------------------------------------------------- QueryService --

// A small solvable fuzz case registered as a service instance, with its
// offline baseline for parity checks.
struct ServiceFixture {
  testing::FuzzCase fuzz;
  double exact_min = 0, exact_max = 0;

  static ServiceFixture Make(uint64_t seed_from = 1) {
    for (uint64_t seed = seed_from; seed < seed_from + 64; ++seed) {
      ServiceFixture f;
      f.fuzz = testing::GenerateCase(seed);
      auto ans = AnswerAggregate(*f.fuzz.query, f.fuzz.db, {});
      if (!ans.ok()) continue;  // infeasible case; try the next seed
      EXPECT_TRUE(ans->bounds.min.exact && ans->bounds.max.exact);
      f.exact_min = ans->bounds.min.value;
      f.exact_max = ans->bounds.max.value;
      return f;
    }
    ADD_FAILURE() << "no feasible fuzz case in 64 seeds";
    return {};
  }
};

TEST(QueryService, UnknownInstanceIsNotFound) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  ServiceFixture f = ServiceFixture::Make();
  QueryRequest req;
  req.instance = "nope";
  req.query = f.fuzz.query;
  auto resp = svc.Execute(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(StatusCode::kNotFound, resp.status().code());
}

TEST(QueryService, NonAggregateQueryIsInvalid) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  QueryRequest req;
  req.instance = "x";
  req.query = nullptr;
  auto resp = svc.Execute(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, resp.status().code());
}

TEST(QueryService, DuplicateInstanceIsRejected) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  ServiceFixture f = ServiceFixture::Make();
  ASSERT_TRUE(svc.AddInstance("a", f.fuzz.db).ok());
  Status dup = svc.AddInstance("a", f.fuzz.db);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(StatusCode::kAlreadyExists, dup.code());
  EXPECT_EQ(std::vector<std::string>{"a"}, svc.InstanceNames());
}

TEST(QueryService, ExactResponseMatchesOfflineBounds) {
  QueryService svc({.num_workers = 2, .solver_threads = 1});
  ServiceFixture f = ServiceFixture::Make();
  ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());

  QueryRequest req;
  req.instance = "case";
  req.query = f.fuzz.query;
  req.deadline_s = 1e9;
  for (int i = 0; i < 3; ++i) {  // repeat: cache reuse must not change bounds
    auto resp = svc.Execute(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_FALSE(resp->degraded);
    EXPECT_TRUE(resp->min_exact);
    EXPECT_TRUE(resp->max_exact);
    EXPECT_EQ(f.exact_min, resp->min);
    EXPECT_EQ(f.exact_max, resp->max);
  }
  ServiceStats stats = svc.Stats();
  EXPECT_EQ(3, stats.admitted);
  EXPECT_EQ(3, stats.completed);
  EXPECT_EQ(0, stats.degraded);
  EXPECT_EQ(0, stats.rejected_overload);
}

TEST(QueryService, ZeroDeadlineDegradesWithContainment) {
  // Deterministic solves: scan seeds until one actually degrades under a
  // zero deadline (trivial cases may still solve exactly via presolve).
  for (uint64_t seed = 1; seed < 64; ++seed) {
    testing::FuzzCase fuzz = testing::GenerateCase(seed);
    auto ans = AnswerAggregate(*fuzz.query, fuzz.db, {});
    if (!ans.ok()) continue;
    QueryService svc({.num_workers = 1,
                      .degraded_worlds = 8,
                      .degraded_seed = 3,
                      .solver_threads = 1});
    ASSERT_TRUE(svc.AddInstance("case", fuzz.db).ok());
    QueryRequest req;
    req.instance = "case";
    req.query = fuzz.query;
    req.deadline_s = 0.0;
    auto resp = svc.Execute(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp->degraded) continue;
    EXPECT_FALSE(resp->min_exact && resp->max_exact);
    // Containment: the served interval must cover the exact bounds.
    EXPECT_LE(resp->min, ans->bounds.min.value);
    EXPECT_GE(resp->max, ans->bounds.max.value);
    if (resp->has_samples) {
      EXPECT_GE(resp->sample_min, resp->min);
      EXPECT_LE(resp->sample_max, resp->max);
      EXPECT_GT(resp->sample_worlds, 0);
    }
    EXPECT_EQ(1, svc.Stats().degraded);
    return;
  }
  GTEST_SKIP() << "no fuzz case degraded under a zero deadline";
}

TEST(QueryService, QueueOverflowIsTypedAndCounted) {
  QueryService svc({.num_workers = 1, .max_queue = 1, .solver_threads = 1});
  ServiceFixture f = ServiceFixture::Make();
  ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());

  // Hold the single worker hostage so requests pile up deterministically.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  svc.SetSolveHookForTest([&] {
    ++entered;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  QueryRequest req;
  req.instance = "case";
  req.query = f.fuzz.query;
  req.deadline_s = 1e9;

  std::thread inflight([&] { ASSERT_TRUE(svc.Execute(req).ok()); });
  while (entered.load() == 0) std::this_thread::yield();

  std::thread queued([&] { ASSERT_TRUE(svc.Execute(req).ok()); });
  while (svc.Stats().queue_depth == 0) std::this_thread::yield();

  // Worker busy + queue full: the next arrival must be rejected, typed.
  auto rejected = svc.Execute(req);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(StatusCode::kOverloaded, rejected.status().code());
  EXPECT_NE(std::string::npos, rejected.status().message().find("queue full"));

  ServiceStats mid = svc.Stats();
  EXPECT_EQ(2, mid.admitted);
  EXPECT_EQ(1, mid.rejected_overload);
  EXPECT_EQ(1, mid.inflight);
  EXPECT_EQ(1u, mid.queue_depth);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  inflight.join();
  queued.join();
  svc.SetSolveHookForTest(nullptr);

  ServiceStats done = svc.Stats();
  EXPECT_EQ(2, done.completed);
  EXPECT_EQ(1, done.rejected_overload);
  EXPECT_EQ(0, done.inflight);
  EXPECT_EQ(0u, done.queue_depth);
}

TEST(QueryService, ConcurrentRequestsAllMatchOffline) {
  QueryService svc({.num_workers = 4, .max_queue = 64,
                    .solver_threads = 2});
  ServiceFixture a = ServiceFixture::Make(1);
  ServiceFixture b = ServiceFixture::Make(20);
  ASSERT_TRUE(svc.AddInstance("a", a.fuzz.db).ok());
  ASSERT_TRUE(svc.AddInstance("b", b.fuzz.db).ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const ServiceFixture& f = (t % 2 == 0) ? a : b;
      QueryRequest req;
      req.instance = (t % 2 == 0) ? "a" : "b";
      req.query = f.fuzz.query;
      req.deadline_s = 1e9;
      for (int i = 0; i < 4; ++i) {
        auto resp = svc.Execute(req);
        if (!resp.ok() || resp->degraded || resp->min != f.exact_min ||
            resp->max != f.exact_max) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(0, mismatches.load());
  EXPECT_EQ(32, svc.Stats().completed);
}

// --------------------------------------------------------- observability --

TEST(QueryService, SlowLogCapturesNewestFirstAndEvictsOldest) {
  // slo_ms = 0 captures every completed request; capacity 2 forces the
  // first capture out once the third lands.
  QueryService svc({.num_workers = 1,
                    .solver_threads = 1,
                    .slo_ms = 0.0,
                    .slowlog_capacity = 2});
  ServiceFixture f = ServiceFixture::Make();
  ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());

  QueryRequest req;
  req.instance = "case";
  req.query = f.fuzz.query;
  req.deadline_s = 1e9;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.Execute(req).ok());
  }

  const std::vector<SlowQueryRecord> log = svc.SlowLog();
  ASSERT_EQ(2u, log.size());
  EXPECT_EQ(2, log[0].seq);  // newest first
  EXPECT_EQ(1, log[1].seq);  // seq 0 evicted
  EXPECT_EQ("case", log[0].instance);
  EXPECT_FALSE(log[0].query.empty());
  EXPECT_GE(log[0].ts_s, log[1].ts_s);
  EXPECT_GE(log[0].total_ms, 0.0);
  EXPECT_EQ(0.0, log[0].slo_ms);
  // The capture counter keeps counting past evictions.
  EXPECT_EQ(3, svc.Stats().slow_queries);
}

TEST(QueryService, NegativeSloDisablesSlowLogCapture) {
  QueryService svc({.num_workers = 1, .solver_threads = 1, .slo_ms = -1.0});
  ServiceFixture f = ServiceFixture::Make();
  ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());
  QueryRequest req;
  req.instance = "case";
  req.query = f.fuzz.query;
  req.deadline_s = 1e9;
  ASSERT_TRUE(svc.Execute(req).ok());
  EXPECT_TRUE(svc.SlowLog().empty());
  EXPECT_EQ(0, svc.Stats().slow_queries);
}

TEST(QueryService, StatsSnapshotsAreOrderedAndCarryUptime) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  const ServiceStats first = svc.Stats();
  const ServiceStats second = svc.Stats();
  EXPECT_GT(second.snapshot_seq, first.snapshot_seq);
  EXPECT_GE(first.uptime_s, 0.0);
  EXPECT_GE(second.uptime_s, first.uptime_s);
}

// ---------------------------------------------------- mutations / MVCC --

// A deterministic two-component instance: one certain tuple, four maybe
// tuples, b0 + b1 >= 1 and b2 + b3 <= 1. COUNT(*) bounds are [2, 4]; after
// flipping c1 to b2 + b3 >= 1 they become [3, 5].
LicmDatabase TwoComponentDb() {
  LicmDatabase db;
  rel::Schema schema({{"id", rel::ValueType::kInt},
                      {"item", rel::ValueType::kString}});
  LicmRelation r(schema);
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Certain());
  for (int i = 0; i < 4; ++i) {
    const BVar v = db.pool().New();
    r.AppendUnchecked({int64_t{2 + i}, std::string(1, char('b' + i))},
                      Ext::Maybe(v));
  }
  EXPECT_TRUE(db.AddRelation("t", std::move(r)).ok());
  LinearConstraint c0;
  c0.terms = {{0, 1}, {1, 1}};
  c0.op = ConstraintOp::kGe;
  c0.rhs = 1;
  db.constraints().Add(std::move(c0));
  LinearConstraint c1;
  c1.terms = {{2, 1}, {3, 1}};
  c1.op = ConstraintOp::kLe;
  c1.rhs = 1;
  db.constraints().Add(std::move(c1));
  return db;
}

TEST(QueryService, InFlightQueriesAnswerAgainstTheirAdmissionSnapshot) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  ASSERT_TRUE(svc.AddInstance("case", TwoComponentDb()).ok());
  const rel::QueryNodePtr query = rel::CountStar(rel::Scan("t"));

  // Hold the worker at the start of its solve: the request was admitted
  // (snapshot captured) but has not answered yet.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false, release = false;
  svc.SetSolveHookForTest([&] {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });

  Result<QueryResponse> inflight = Status::Internal("unset");
  std::thread t([&] {
    QueryRequest req;
    req.instance = "case";
    req.query = query;
    req.deadline_s = 1e9;
    inflight = svc.Execute(req);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  // Commit a mutation while the request is in flight.
  auto edit = svc.EditConstraintRhs("case", 1, ConstraintOp::kGe, 1);
  ASSERT_TRUE(edit.ok()) << edit.status().ToString();
  EXPECT_EQ(2u, edit->version);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  t.join();
  svc.SetSolveHookForTest(nullptr);

  // The in-flight request answered against the pre-commit snapshot.
  ASSERT_TRUE(inflight.ok()) << inflight.status().ToString();
  EXPECT_EQ(1u, inflight->version);
  EXPECT_EQ(2.0, inflight->min);
  EXPECT_EQ(4.0, inflight->max);

  // A post-commit admission sees the new version and the new bounds.
  QueryRequest req;
  req.instance = "case";
  req.query = query;
  req.deadline_s = 1e9;
  auto after = svc.Execute(req);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(2u, after->version);
  EXPECT_EQ(3.0, after->min);
  EXPECT_EQ(5.0, after->max);
}

TEST(QueryService, StatsCarryMutationCountAndMonotonicVersions) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  ASSERT_TRUE(svc.AddInstance("a", TwoComponentDb()).ok());
  ASSERT_TRUE(svc.AddInstance("b", TwoComponentDb()).ok());
  ASSERT_TRUE(svc.EditConstraintRhs("a", 0, ConstraintOp::kGe, 2).ok());
  ASSERT_TRUE(
      svc.AppendTuples("a", "t", {{rel::Tuple{int64_t{9}, std::string("z")},
                                   false, std::nullopt}})
          .ok());
  EXPECT_EQ(3u, *svc.VersionOf("a"));
  EXPECT_EQ(1u, *svc.VersionOf("b"));
  EXPECT_EQ(StatusCode::kNotFound, svc.VersionOf("nope").status().code());

  const ServiceStats s = svc.Stats();
  EXPECT_EQ(2, s.mutations);
  ASSERT_EQ(2u, s.versions.size());  // sorted by name
  EXPECT_EQ("a", s.versions[0].first);
  EXPECT_EQ(3u, s.versions[0].second);
  EXPECT_EQ("b", s.versions[1].first);
  EXPECT_EQ(1u, s.versions[1].second);

  // Versions only ever move forward across snapshots.
  ASSERT_TRUE(
      svc.RetractTuples("a", "t", {rel::Tuple{int64_t{9}, std::string("z")}})
          .ok());
  const ServiceStats s2 = svc.Stats();
  EXPECT_EQ(4u, s2.versions[0].second);
  EXPECT_EQ(3, s2.mutations);
}

TEST(QueryService, LoadCollisionIsTypedAndReplaceBumpsVersion) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  ASSERT_TRUE(
      svc.LoadInstance("a", TwoComponentDb(), std::nullopt, false).ok());
  EXPECT_EQ(1u, *svc.VersionOf("a"));

  Status dup = svc.LoadInstance("a", TwoComponentDb(), std::nullopt, false);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(StatusCode::kAlreadyExists, dup.code());
  EXPECT_NE(std::string::npos, dup.message().find("replace"));
  EXPECT_EQ(1u, *svc.VersionOf("a"));  // collision committed nothing

  ASSERT_TRUE(
      svc.LoadInstance("a", TwoComponentDb(), std::nullopt, true).ok());
  EXPECT_EQ(2u, *svc.VersionOf("a"));
  EXPECT_EQ(1, svc.Stats().mutations);  // the replace was a commit

  // replace=true on a fresh name is a plain registration at version 1.
  ASSERT_TRUE(
      svc.LoadInstance("b", TwoComponentDb(), std::nullopt, true).ok());
  EXPECT_EQ(1u, *svc.VersionOf("b"));
}

// ------------------------------------------------------------ transports --

RequestRouter::QueryFactory FixtureFactory(const ServiceFixture& f) {
  return [query = f.fuzz.query](const WireRequest&)
             -> Result<rel::QueryNodePtr> { return query; };
}

TEST(Transport, BatchModeAnswersLineByLine) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  ServiceFixture f = ServiceFixture::Make();
  ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());
  RequestRouter router(&svc, FixtureFactory(f));

  std::istringstream in(
      "{\"op\":\"ping\",\"id\":1}\n"
      "\n"
      "not json\n"
      "{\"op\":\"query\",\"id\":2,\"instance\":\"case\"}\n"
      "{\"op\":\"bogus\",\"id\":3}\n"
      "{\"op\":\"shutdown\",\"id\":4}\n"
      "{\"op\":\"ping\",\"id\":5}\n");  // after shutdown: never handled
  std::ostringstream out;
  const int64_t handled = RunBatch(&router, in, out);
  EXPECT_EQ(5, handled);  // blank line skipped, post-shutdown line unread

  std::istringstream lines(out.str());
  std::string line;
  std::vector<service::JsonValue> replies;
  while (std::getline(lines, line)) {
    auto v = ParseJson(line);
    ASSERT_TRUE(v.ok()) << line;
    replies.push_back(std::move(*v));
  }
  ASSERT_EQ(5u, replies.size());
  EXPECT_TRUE(replies[0].GetBool("ok", false).value());
  EXPECT_FALSE(replies[1].GetBool("ok", true).value());   // parse error
  EXPECT_EQ(-1, replies[1].GetInt("id", 0).value());
  EXPECT_TRUE(replies[2].GetBool("ok", false).value());   // query
  EXPECT_EQ(f.exact_min, replies[2].GetNumber("min", -1e9).value());
  EXPECT_EQ(f.exact_max, replies[2].GetNumber("max", -1e9).value());
  EXPECT_FALSE(replies[3].GetBool("ok", true).value());   // unknown op
  EXPECT_TRUE(replies[4].GetBool("ok", false).value());   // shutdown ack
  EXPECT_TRUE(replies[4].GetBool("shutting_down", false).value());
}

TEST(Transport, MetricsAndSlowlogVerbs) {
  QueryService svc({.num_workers = 1, .solver_threads = 1, .slo_ms = 0.0});
  ServiceFixture f = ServiceFixture::Make();
  ASSERT_TRUE(svc.AddInstance("case", f.fuzz.db).ok());
  RequestRouter router(&svc, FixtureFactory(f));

  std::istringstream in(
      "{\"op\":\"query\",\"id\":1,\"instance\":\"case\"}\n"
      "{\"op\":\"stats\",\"id\":2}\n"
      "{\"op\":\"metrics\",\"id\":3}\n"
      "{\"op\":\"slowlog\",\"id\":4}\n");
  std::ostringstream out;
  EXPECT_EQ(4, RunBatch(&router, in, out));

  std::istringstream lines(out.str());
  std::string line;
  std::vector<service::JsonValue> replies;
  while (std::getline(lines, line)) {
    auto v = ParseJson(line);
    ASSERT_TRUE(v.ok()) << line;
    replies.push_back(std::move(*v));
  }
  ASSERT_EQ(4u, replies.size());

  // stats now carries the staleness fields.
  EXPECT_TRUE(replies[1].GetBool("ok", false).value());
  EXPECT_GE(replies[1].GetNumber("uptime_s", -1).value(), 0.0);
  EXPECT_GE(replies[1].GetInt("snapshot_seq", 0).value(), 1);
  EXPECT_GE(replies[1].GetInt("slow_queries", -1).value(), 1);

  // metrics splices the registry JSON; the registry is process-global, so
  // assert >= on the request counter rather than an exact value.
  EXPECT_TRUE(replies[2].GetBool("ok", false).value());
  const service::JsonValue* metrics = replies[2].Find("metrics");
  ASSERT_NE(nullptr, metrics);
  const service::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(nullptr, counters);
  double requests_total = 0;
  for (const auto& c : counters->array) {
    if (c.GetString("name", "").value() == "licm_requests_total") {
      requests_total += c.GetNumber("value", 0).value();
    }
  }
  EXPECT_GE(requests_total, 1.0);

  // slowlog: slo_ms = 0 captured the query; records are full objects.
  EXPECT_TRUE(replies[3].GetBool("ok", false).value());
  const service::JsonValue* slowlog = replies[3].Find("slowlog");
  ASSERT_NE(nullptr, slowlog);
  ASSERT_GE(slowlog->array.size(), 1u);
  EXPECT_EQ("case", slowlog->array[0].GetString("instance", "").value());
  EXPECT_GE(slowlog->array[0].GetNumber("total_ms", -1).value(), 0.0);
}

TEST(Transport, MutateVersionAndLoadVerbs) {
  QueryService svc({.num_workers = 1, .solver_threads = 1});
  ASSERT_TRUE(svc.AddInstance("case", TwoComponentDb()).ok());
  const rel::QueryNodePtr query = rel::CountStar(rel::Scan("t"));
  RequestRouter router(&svc, [query](const WireRequest&)
                                 -> Result<rel::QueryNodePtr> {
    return query;
  });
  router.set_loader([&svc](const std::string& name, const std::string&,
                           bool replace) -> Result<uint64_t> {
    LICM_RETURN_NOT_OK(
        svc.LoadInstance(name, TwoComponentDb(), std::nullopt, replace));
    return svc.VersionOf(name);
  });

  std::istringstream in(
      "{\"op\":\"query\",\"id\":1,\"instance\":\"case\"}\n"
      "{\"op\":\"version\",\"id\":2,\"instance\":\"case\"}\n"
      "{\"op\":\"mutate\",\"id\":3,\"instance\":\"case\",\"action\":\"edit\","
      "\"cindex\":1,\"cop\":\"ge\",\"rhs\":1}\n"
      "{\"op\":\"query\",\"id\":4,\"instance\":\"case\"}\n"
      "{\"op\":\"mutate\",\"id\":5,\"instance\":\"case\","
      "\"action\":\"append\",\"relation\":\"t\",\"row\":\"9,z\","
      "\"maybe\":true}\n"
      "{\"op\":\"mutate\",\"id\":6,\"instance\":\"case\","
      "\"action\":\"bogus\"}\n"
      "{\"op\":\"load\",\"id\":7,\"instance\":\"case\"}\n"
      "{\"op\":\"load\",\"id\":8,\"instance\":\"case\",\"replace\":true}\n"
      "{\"op\":\"version\",\"id\":9,\"instance\":\"case\"}\n"
      "{\"op\":\"stats\",\"id\":10}\n");
  std::ostringstream out;
  EXPECT_EQ(10, RunBatch(&router, in, out));

  std::istringstream lines(out.str());
  std::string line;
  std::vector<service::JsonValue> replies;
  while (std::getline(lines, line)) {
    auto v = ParseJson(line);
    ASSERT_TRUE(v.ok()) << line;
    replies.push_back(std::move(*v));
  }
  ASSERT_EQ(10u, replies.size());

  // Query before any mutation: version 1, bounds [2, 4].
  EXPECT_TRUE(replies[0].GetBool("ok", false).value());
  EXPECT_EQ(1, replies[0].GetInt("version", 0).value());
  EXPECT_EQ(2.0, replies[0].GetNumber("min", -1).value());
  EXPECT_EQ(4.0, replies[0].GetNumber("max", -1).value());
  // The version verb agrees.
  EXPECT_TRUE(replies[1].GetBool("ok", false).value());
  EXPECT_EQ("case", replies[1].GetString("instance", "").value());
  EXPECT_EQ(1, replies[1].GetInt("version", 0).value());
  // The edit committed version 2 and reports its dirty set.
  EXPECT_TRUE(replies[2].GetBool("ok", false).value());
  EXPECT_EQ(2, replies[2].GetInt("version", 0).value());
  EXPECT_EQ(1, replies[2].GetInt("cindex", -1).value());
  EXPECT_EQ(1, replies[2].GetInt("dirty_components", 0).value());
  EXPECT_EQ(2, replies[2].GetInt("total_components", 0).value());
  // Post-edit query: version 2, bounds [3, 5].
  EXPECT_EQ(2, replies[3].GetInt("version", 0).value());
  EXPECT_EQ(3.0, replies[3].GetNumber("min", -1).value());
  EXPECT_EQ(5.0, replies[3].GetNumber("max", -1).value());
  // The maybe-append allocated the next pool variable (b4).
  EXPECT_TRUE(replies[4].GetBool("ok", false).value());
  EXPECT_EQ(3, replies[4].GetInt("version", 0).value());
  EXPECT_EQ(1, replies[4].GetInt("appended", 0).value());
  const service::JsonValue* new_vars = replies[4].Find("new_vars");
  ASSERT_NE(nullptr, new_vars);
  ASSERT_EQ(1u, new_vars->array.size());
  EXPECT_EQ(4.0, new_vars->array[0].number);
  // Unknown action: typed error, nothing committed.
  EXPECT_FALSE(replies[5].GetBool("ok", true).value());
  EXPECT_NE(std::string::npos,
            replies[5].GetString("error", "").value().find("action"));
  // Load collision without replace: typed error pointing at the opt-in.
  EXPECT_FALSE(replies[6].GetBool("ok", true).value());
  EXPECT_NE(std::string::npos,
            replies[6].GetString("error", "").value().find("replace"));
  // load replace=true swaps the database and bumps the version.
  EXPECT_TRUE(replies[7].GetBool("ok", false).value());
  EXPECT_TRUE(replies[7].GetBool("replaced", false).value());
  EXPECT_EQ(4, replies[7].GetInt("version", 0).value());
  EXPECT_EQ(4, replies[8].GetInt("version", 0).value());
  // Stats: three commits (edit, append, replace-load), the instance's
  // version, and cross-version cache hits from the post-edit query.
  EXPECT_TRUE(replies[9].GetBool("ok", false).value());
  EXPECT_EQ(3, replies[9].GetInt("mutations", 0).value());
  const service::JsonValue* versions = replies[9].Find("versions");
  ASSERT_NE(nullptr, versions);
  EXPECT_EQ(4, versions->GetInt("case", 0).value());
  EXPECT_GE(replies[9].GetInt("cache_cross_version_hits", -1).value(), 1);
}

}  // namespace
}  // namespace licm::service
