// service-mixed: an in-process net::NetFrontEnd over loopback (one event
// loop, two service workers, one solver thread) driven by two closed-loop
// binary-protocol connections. Each connection owns disjoint small
// instances and walks each one through a fixed cycle of queries and
// mutations; every mutation is undone within the cycle, so the instance
// states are few and their expected bounds are computed at set-up.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "licm/mutable_instance.h"
#include "net/front_end.h"
#include "net/wire.h"
#include "relational/value.h"
#include "sampler/monte_carlo.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "service/server.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace anonymize = licm::anonymize;
namespace service = licm::service;
namespace net = licm::net;

constexpr int kConnections = 2;
constexpr int kQueriesPerMutation = 9;  // ~1 operation in 10 mutates
// The timed loop runs in segments; between two segments the connections
// are idle and the set-up is repeated (a second rig, started and
// stopped), untimed by the loop. setup_s is the median of all
// repetitions. Spread over the run, they see the host's slow and fast
// phases in the same shares as the requests do; a burst of them, each a
// few milliseconds, would sample a single phase.
constexpr double kSegmentSeconds = 2.5;
constexpr int kSetupRepsPerSegment = 15;

// The instance states a cycle visits: the base state, one slot fixed, or
// one certain row appended.
struct State {
  int fixed_slot = -1;
  int appended_row = -1;
};

struct Slot {
  licm::BVar var = 0;
  int64_t value = 0;     // the original world's value: stays feasible
  int64_t cindex = -1;   // constraint slot, created at set-up
};

struct Op {
  enum Kind { kQuery, kFix, kRelease, kAppend, kRetract } kind = kQuery;
  int qnum = 1;
  int index = 0;  // slot or row
};

struct ServedInstance {
  std::string name;
  InstanceSpec spec;
  anonymize::EncodedDb enc;
  licm::rel::QueryNodePtr queries[3];
  std::vector<int> qnums;  // the paper queries served on this instance
  std::vector<Slot> slots;
  std::vector<std::string> rows;  // appendable certain trans_item rows
  std::vector<Op> cycle;
  /// Expected (min, max) per state key and query.
  std::map<std::pair<int, int>, std::array<std::pair<double, double>, 3>>
      expected;
};

std::pair<int, int> Key(const State& s) {
  return {s.fixed_slot, s.appended_row};
}

// Four schemes per connection, small enough that every state solves
// exactly (the service degrades otherwise). The datasets are a fixed
// panel (generator seeds from 42, the repository's default); the run seed
// drives the mutation targets and the interleaving of instances.
std::vector<InstanceSpec> ConnectionInstances(int conn) {
  const uint64_t ds = 42 + 4 * static_cast<uint64_t>(conn);
  return {{Scheme::kKAnon, 4, 120, 40, ds},
          {Scheme::kKm, 4, 120, 40, ds + 1},
          {Scheme::kSuppression, 10, 120, 40, ds + 2},
          {Scheme::kBipartite, 2, 24, 40, ds + 3}};
}

double NumField(const service::JsonValue& doc, const char* key, double def) {
  Result<double> v = doc.GetNumber(key, def);
  return v.ok() ? *v : def;
}
int64_t IntField(const service::JsonValue& doc, const char* key, int64_t def) {
  Result<int64_t> v = doc.GetInt(key, def);
  return v.ok() ? *v : def;
}
bool BoolField(const service::JsonValue& doc, const char* key, bool def) {
  Result<bool> v = doc.GetBool(key, def);
  return v.ok() ? *v : def;
}

// ---------------------------------------------------------------- client

class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Status Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return Status::IOError("socket");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return Status::IOError("connect");
    }
    return Status::OK();
  }
  /// Writes one request frame and blocks for one response frame.
  Result<std::string> RoundTrip(const service::WireRequest& req) {
    const std::string frame = net::EncodeRequestFrame(req);
    bytes_ += frame.size();
    for (size_t off = 0; off < frame.size();) {
      const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return Status::IOError("send");
      off += static_cast<size_t>(n);
    }
    while (true) {
      size_t consumed = 0;
      net::Frame out;
      LICM_ASSIGN_OR_RETURN(bool done, net::TryDecodeFrame(buf_, &consumed, &out));
      if (done) {
        bytes_ += consumed;
        buf_.erase(0, consumed);
        return std::move(out.payload);
      }
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return Status::IOError("recv");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }
  int64_t bytes() const { return bytes_; }

 private:
  int fd_ = -1;
  std::string buf_;
  int64_t bytes_ = 0;
};

// ---------------------------------------------------------- service rig

// The service stack of one set-up: instances, QueryService, router,
// front end on a background thread, and the connected clients. The
// router's query factory and the serve thread hold its address.
struct Rig {
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { Stop(); }

  std::vector<std::unique_ptr<ServedInstance>> instances;  // all connections
  std::map<std::string, ServedInstance*> by_name;
  std::unique_ptr<service::QueryService> svc;
  std::unique_ptr<service::RequestRouter> router;
  std::unique_ptr<net::NetFrontEnd> front;
  Status serve_status;  // written by serve_thread, read after the join
  std::thread serve_thread;
  Client clients[kConnections];

  void Stop() {
    if (front) front->Stop();
    if (serve_thread.joinable()) serve_thread.join();
    front.reset();
    router.reset();
    svc.reset();
  }
};

// Receives (request id, dispatch -> completion ms) of traced requests.
using ExecRecorder = std::function<void(int64_t, double)>;

// Builds every instance and starts the service stack (the timed set-up).
// With a recorder, a dispatch wrapper around RequestRouter::HandleAsync
// times the requests with odd ids, which the clients use for the requests
// of traced cycles.
Result<std::unique_ptr<Rig>> StartRig(BuildTimes* times,
                                      const ExecRecorder& record_exec) {
  auto rig = std::make_unique<Rig>();
  for (int c = 0; c < kConnections; ++c) {
    int i = 0;
    for (const InstanceSpec& spec : ConnectionInstances(c)) {
      auto inst = std::make_unique<ServedInstance>();
      inst->name = "c" + std::to_string(c) + "_" + SchemeName(spec.scheme) +
                   std::to_string(i++);
      inst->spec = spec;
      LICM_ASSIGN_OR_RETURN(inst->enc, BuildInstance(spec, times));
      for (int q = 1; q <= 3; ++q) inst->queries[q - 1] = PaperQuery(spec, q);
      // Query 3 couples whole generalized instances into one hard
      // component; the service mix keeps to queries that solve exactly.
      inst->qnums = spec.scheme == Scheme::kKAnon || spec.scheme == Scheme::kKm
                        ? std::vector<int>{1, 2}
                        : std::vector<int>{1, 2, 3};
      rig->by_name[inst->name] = inst.get();
      rig->instances.push_back(std::move(inst));
    }
  }
  service::ServiceConfig config;
  config.num_workers = 2;
  config.solver_threads = 1;
  config.default_deadline_s = 3600.0;
  config.slo_ms = -1.0;
  rig->svc = std::make_unique<service::QueryService>(config);
  for (const auto& inst : rig->instances) {
    LICM_RETURN_NOT_OK(rig->svc->AddInstance(inst->name, inst->enc.db,
                                             inst->enc.structure));
  }
  Rig* raw = rig.get();
  rig->router = std::make_unique<service::RequestRouter>(
      rig->svc.get(),
      [raw](const service::WireRequest& req)
          -> Result<licm::rel::QueryNodePtr> {
        auto it = raw->by_name.find(req.instance);
        if (it == raw->by_name.end() || req.qnum < 1 || req.qnum > 3) {
          return Status::NotFound("unknown instance or query");
        }
        return it->second->queries[req.qnum - 1];
      });
  net::NetFrontEnd::Options opts;
  opts.num_loops = 1;
  rig->front = std::make_unique<net::NetFrontEnd>(rig->router.get(), opts);
  if (record_exec) {
    service::RequestRouter* router = rig->router.get();
    rig->front->set_dispatch([router, record_exec](
                                 const service::WireRequest& req,
                                 std::function<void(std::string, bool)> done) {
      if (req.id < 0 || req.id % 2 == 0) {
        router->HandleAsync(req, std::move(done));
        return;
      }
      const int64_t t0 = NowNs();
      router->HandleAsync(req, [t0, id = req.id, record_exec,
                                done = std::move(done)](std::string resp,
                                                        bool shutdown) {
        record_exec(id, (NowNs() - t0) / 1e6);
        done(std::move(resp), shutdown);
      });
    });
  }
  LICM_RETURN_NOT_OK(rig->front->Listen("127.0.0.1", 0));
  rig->serve_thread =
      std::thread([raw] { raw->serve_status = raw->front->Serve(); });
  for (Client& client : rig->clients) {
    LICM_RETURN_NOT_OK(client.Connect(rig->front->port()));
  }
  return rig;
}

// Picks the mutation targets of one instance and lays out its cycle.
void PlanInstance(ServedInstance* inst, std::mt19937_64* rng) {
  const auto& world = inst->enc.original_world;
  const bool flat = inst->spec.scheme != Scheme::kBipartite;
  const int num_slots = flat ? 1 : 2;
  for (int s = 0; s < num_slots; ++s) {
    Slot slot;
    slot.var = static_cast<licm::BVar>((*rng)() % world.size());
    slot.value = world[slot.var];
    inst->slots.push_back(slot);
  }
  std::vector<Op> mutations;
  for (int s = 0; s < num_slots; ++s) {
    mutations.push_back({Op::kFix, 0, s});
    mutations.push_back({Op::kRelease, 0, s});
  }
  if (flat) {
    // A certain row in a fresh transaction inside Query 1-3's location
    // range, so appends move the answers.
    char row[96];
    std::snprintf(row, sizeof row, "%llu,%llu,%llu,%llu",
                  static_cast<unsigned long long>(900000 + (*rng)() % 1000),
                  static_cast<unsigned long long>((*rng)() % 50),
                  static_cast<unsigned long long>((*rng)() % inst->spec.items),
                  static_cast<unsigned long long>((*rng)() % 10));
    inst->rows.push_back(row);
    mutations.push_back({Op::kAppend, 0, 0});
    mutations.push_back({Op::kRetract, 0, 0});
  }
  for (const Op& m : mutations) {
    for (int i = 0; i < kQueriesPerMutation; ++i) {
      inst->cycle.push_back(
          {Op::kQuery, inst->qnums[i % inst->qnums.size()], 0});
    }
    inst->cycle.push_back(m);
  }
}

service::WireRequest MutationRequest(const ServedInstance& inst, const Op& op) {
  service::WireRequest req;
  req.op = "mutate";
  req.instance = inst.name;
  switch (op.kind) {
    case Op::kFix:
    case Op::kRelease:
      req.action = "edit";
      req.cindex = inst.slots[op.index].cindex;
      req.cop = op.kind == Op::kFix ? "eq" : "ge";
      req.rhs = op.kind == Op::kFix ? inst.slots[op.index].value : 0;
      break;
    case Op::kAppend:
    case Op::kRetract:
      req.action = op.kind == Op::kAppend ? "append" : "retract";
      req.relation = "trans_item";
      req.row = inst.rows[op.index];
      break;
    case Op::kQuery:
      break;
  }
  return req;
}

// Creates the fix slots over the wire (fix, then release), mirrors every
// state on a local MutableInstance, and records each state's offline
// AnswerAggregate bounds.
Status PrepareInstance(ServedInstance* inst, Client* client) {
  licm::MutableInstance mirror(inst->enc.db);
  for (Slot& slot : inst->slots) {
    service::WireRequest fix;
    fix.op = "mutate";
    fix.instance = inst->name;
    fix.action = "fix";
    fix.var = slot.var;
    fix.value = slot.value;
    LICM_ASSIGN_OR_RETURN(std::string resp, client->RoundTrip(fix));
    LICM_ASSIGN_OR_RETURN(service::JsonValue doc, service::ParseJson(resp));
    LICM_ASSIGN_OR_RETURN(slot.cindex, doc.GetInt("cindex", -1));
    licm::LinearConstraint c;
    c.terms.push_back({slot.var, 1});
    c.op = licm::ConstraintOp::kEq;
    c.rhs = slot.value;
    LICM_ASSIGN_OR_RETURN(licm::MutationResult local, mirror.AddConstraint(c));
    if (slot.cindex < 0 ||
        static_cast<int64_t>(local.constraint_index) != slot.cindex) {
      return Status::Internal(inst->name + ": fix slot mismatch: " + resp);
    }
    Op release{Op::kRelease, 0, static_cast<int>(&slot - inst->slots.data())};
    LICM_ASSIGN_OR_RETURN(resp, client->RoundTrip(MutationRequest(*inst, release)));
    if (resp.find("\"ok\":true") == std::string::npos) {
      return Status::Internal(inst->name + ": release failed: " + resp);
    }
    LICM_RETURN_NOT_OK(mirror
                           .EditConstraintRhs(static_cast<size_t>(slot.cindex),
                                              licm::ConstraintOp::kGe, 0)
                           .status());
  }

  const licm::AnswerOptions opts = FixedWorkOptions(200000);
  auto record = [&](const State& state) -> Status {
    auto& slot = inst->expected[Key(state)];
    for (int qnum : inst->qnums) {
      const int q = qnum - 1;
      LICM_ASSIGN_OR_RETURN(
          licm::AggregateAnswer ans,
          licm::AnswerAggregate(*inst->queries[q], mirror.snapshot()->db, opts));
      if (!ans.bounds.min.exact || !ans.bounds.max.exact) {
          return Status::Internal(inst->name + " Q" + std::to_string(qnum) +
                                ": a state does not solve exactly");
      }
      slot[q] = {ans.bounds.min.value, ans.bounds.max.value};
    }
    return Status::OK();
  };
  LICM_RETURN_NOT_OK(record(State{}));
  for (size_t s = 0; s < inst->slots.size(); ++s) {
    const size_t idx = static_cast<size_t>(inst->slots[s].cindex);
    LICM_RETURN_NOT_OK(mirror
                           .EditConstraintRhs(idx, licm::ConstraintOp::kEq,
                                              inst->slots[s].value)
                           .status());
    LICM_RETURN_NOT_OK(record(State{static_cast<int>(s), -1}));
    LICM_RETURN_NOT_OK(
        mirror.EditConstraintRhs(idx, licm::ConstraintOp::kGe, 0).status());
  }
  for (size_t r = 0; r < inst->rows.size(); ++r) {
    LICM_ASSIGN_OR_RETURN(const licm::LicmRelation* rel,
                          mirror.snapshot()->db.GetRelation("trans_item"));
    LICM_ASSIGN_OR_RETURN(licm::rel::Tuple tuple,
                          licm::rel::TupleFromText(rel->schema(), inst->rows[r]));
    licm::RowSpec spec;
    spec.tuple = tuple;
    LICM_RETURN_NOT_OK(mirror.AppendTuples("trans_item", {spec}).status());
    LICM_RETURN_NOT_OK(record(State{-1, static_cast<int>(r)}));
    LICM_RETURN_NOT_OK(mirror.RetractTuples("trans_item", {tuple}).status());
  }
  return Status::OK();
}

// Observations of one connection's timed loop.
struct ConnLog {
  std::vector<double> query_ms, mutate_ms, commit_ms;
  std::vector<std::pair<int64_t, double>> traced_rt;  // (request id, ms)
  std::vector<double> untraced_ms, traced_ms;
  int64_t queries = 0, mutations = 0, failed = 0, degraded = 0;
  int64_t exact_sides = 0, nodes = 0, cache_hits = 0, cache_lookups = 0;
  int64_t dirty_components = 0, total_components = 0;
  int64_t bytes = 0;
  Digest digest;  // per-op outcomes of the first cycle
  std::string first_failure;
};

void Fail(ConnLog* log, const std::string& what) {
  ++log->failed;
  if (log->first_failure.empty()) log->first_failure = what;
}

// Runs whole cycles (every instance of the connection through its full
// op cycle, interleaved round-robin) until `seconds` have passed. Every
// cycle ends with the instances back in their base state. The digest
// takes the first cycle of the first segment.
void DriveConnection(Client* client, std::vector<ServedInstance*> insts,
                     double seconds, bool trace, bool first_segment,
                     int64_t* next_id, ConnLog* log) {
  std::vector<State> state(insts.size());
  std::vector<int64_t> version(insts.size(), 0);
  size_t cycle_len = 0;
  for (auto* inst : insts) cycle_len = std::max(cycle_len, inst->cycle.size());
  const int64_t t0 = NowNs();
  for (int cycle = 0; (NowNs() - t0) / 1e9 < seconds; ++cycle) {
    // Traced runs alternate traced and untraced cycles.
    const bool traced = trace && cycle % 2 == 0;
    for (size_t step = 0; step < cycle_len; ++step) {
      for (size_t i = 0; i < insts.size(); ++i) {
        ServedInstance& inst = *insts[i];
        if (step >= inst.cycle.size()) continue;
        const Op& op = inst.cycle[step];
        service::WireRequest req;
        if (op.kind == Op::kQuery) {
          req.op = "query";
          req.instance = inst.name;
          req.qnum = op.qnum;
        } else {
          req = MutationRequest(inst, op);
        }
        // Odd ids mark traced requests for the dispatch wrapper.
        req.id = 2 * ((*next_id)++) + (traced ? 1 : 0);
        const int64_t s0 = NowNs();
        Result<std::string> resp = client->RoundTrip(req);
        const double ms = (NowNs() - s0) / 1e6;
        if (!resp.ok()) {
          Fail(log, "transport: " + resp.status().ToString());
          return;
        }
        auto doc = service::ParseJson(*resp);
        if (!doc.ok() || !BoolField(*doc, "ok", false)) {
          Fail(log, inst.name + ": request failed: " + *resp);
          continue;
        }
        const int64_t got_version = IntField(*doc, "version", -1);
        if (version[i] == 0) version[i] = got_version;
        if (traced) log->traced_rt.push_back({req.id, ms});
        if (op.kind == Op::kQuery) {
          ++log->queries;
          log->query_ms.push_back(ms);
          (traced ? log->traced_ms : log->untraced_ms).push_back(ms);
          const auto& want = inst.expected[Key(state[i])][op.qnum - 1];
          const double mn = NumField(*doc, "min", -1);
          const double mx = NumField(*doc, "max", -1);
          const bool degraded = BoolField(*doc, "degraded", true);
          const bool min_exact = BoolField(*doc, "min_exact", false);
          const bool max_exact = BoolField(*doc, "max_exact", false);
          log->degraded += degraded ? 1 : 0;
          log->exact_sides += (min_exact ? 1 : 0) + (max_exact ? 1 : 0);
          const int64_t hits = IntField(*doc, "cache_hits", 0);
          const int64_t misses = IntField(*doc, "cache_misses", 0);
          const int64_t nodes = IntField(*doc, "nodes", 0);
          log->cache_hits += hits;
          log->cache_lookups += hits + misses;
          log->nodes += nodes;
          if (first_segment && cycle == 0) {
            log->digest.AddDouble(mn);
            log->digest.AddDouble(mx);
            log->digest.AddInt(hits);
            log->digest.AddInt(misses);
            log->digest.AddInt(nodes);
          }
          if (degraded || !min_exact || !max_exact || mn != want.first ||
              mx != want.second || got_version != version[i]) {
            Fail(log, inst.name + " Q" + std::to_string(op.qnum) +
                          ": response differs from offline bounds: " + *resp);
          }
        } else {
          ++log->mutations;
          log->mutate_ms.push_back(ms);
          log->commit_ms.push_back(NumField(*doc, "commit_ms", 0));
          log->dirty_components +=
              IntField(*doc, "dirty_components", 0);
          log->total_components +=
              IntField(*doc, "total_components", 0);
          ++version[i];
          if (got_version != version[i]) {
            Fail(log, inst.name + ": mutation version mismatch: " + *resp);
          }
          switch (op.kind) {
            case Op::kFix: state[i].fixed_slot = op.index; break;
            case Op::kRelease: state[i].fixed_slot = -1; break;
            case Op::kAppend: state[i].appended_row = op.index; break;
            case Op::kRetract: state[i].appended_row = -1; break;
            case Op::kQuery: break;
          }
          if (first_segment && cycle == 0) {
            log->digest.AddInt(IntField(*doc, "dirty_components", 0));
          }
        }
      }
    }
  }
  log->bytes = client->bytes();
}

}  // namespace

Result<RunReport> RunServiceMixed(const RunArgs& args) {
  RunReport report;

  // Exec time per traced request, recorded by the dispatch wrapper;
  // declared before the rig so the front end stops before these go away.
  std::mutex exec_mu;
  std::map<int64_t, double> exec_ms;
  ExecRecorder record_exec;
  if (args.trace) {
    record_exec = [&exec_mu, &exec_ms](int64_t id, double ms) {
      std::lock_guard<std::mutex> lock(exec_mu);
      exec_ms[id] = ms;
    };
  }

  // --- Set-up (timed): build instances, start the stack. Later
  // repetitions run between the segments of the timed loop.
  std::vector<double> setup_s;
  std::vector<BuildTimes> setup_times;
  auto set_up = [&](const ExecRecorder& recorder)
      -> Result<std::unique_ptr<Rig>> {
    BuildTimes times;
    const int64_t t0 = NowNs();
    LICM_ASSIGN_OR_RETURN(std::unique_ptr<Rig> r, StartRig(&times, recorder));
    setup_s.push_back((NowNs() - t0) / 1e9);
    setup_times.push_back(times);
    return r;
  };
  LICM_ASSIGN_OR_RETURN(std::unique_ptr<Rig> rig, set_up(record_exec));

  // --- Plan and prepare every instance (untimed).
  // Mutation targets are fixed across seeds (they decide which states
  // the caches see); the run seed drives the interleaving of instances.
  std::mt19937_64 plan_rng(1);
  std::mt19937_64 order_rng(args.seed);
  std::vector<std::vector<ServedInstance*>> conn_insts(kConnections);
  for (size_t i = 0; i < rig->instances.size(); ++i) {
    ServedInstance* inst = rig->instances[i].get();
    const int conn = static_cast<int>(i / (rig->instances.size() / kConnections));
    PlanInstance(inst, &plan_rng);
    LICM_RETURN_NOT_OK(PrepareInstance(inst, &rig->clients[conn]));
    conn_insts[conn].push_back(inst);
  }
  for (auto& insts : conn_insts) std::shuffle(insts.begin(), insts.end(), order_rng);

  // --- Timed loop: one closed-loop thread per connection, in segments
  // with set-up repetitions between them.
  const service::ServiceStats before = rig->svc->Stats();
  std::vector<ConnLog> logs(kConnections);
  std::vector<int64_t> next_id(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    next_id[c] = static_cast<int64_t>(c) << 40;
  }
  double loop_s = 0.0, cpu_ms = 0.0;
  for (int segment = 0; loop_s < args.seconds; ++segment) {
    const double seconds = std::min(kSegmentSeconds, args.seconds - loop_s);
    const double cpu0 = ProcessCpuMs();
    const int64_t t0 = NowNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back(DriveConnection, &rig->clients[c], conn_insts[c],
                           seconds, args.trace, segment == 0, &next_id[c],
                           &logs[c]);
    }
    for (auto& t : threads) t.join();
    loop_s += (NowNs() - t0) / 1e9;
    cpu_ms += ProcessCpuMs() - cpu0;
    for (int rep = 0; rep < kSetupRepsPerSegment; ++rep) {
      LICM_ASSIGN_OR_RETURN(std::unique_ptr<Rig> extra, set_up(nullptr));
      extra->Stop();
    }
  }
  const service::ServiceStats after = rig->svc->Stats();

  // --- Traced runs: MC baseline of every served cell in its base state,
  // checked against the offline bounds.
  std::vector<double> mc_ms;
  licm::sampler::MonteCarloOptions mco;
  mco.num_worlds = 20;  // fixed sampling seed: every run samples alike
  for (int rep = 0; rep < (args.trace ? 10 : 0); ++rep) {
    for (const auto& inst : rig->instances) {
      for (int qnum : inst->qnums) {
        const int q = qnum - 1;
        ++report.attempted;
        const int64_t t0 = NowNs();
        auto mc = licm::sampler::MonteCarloBounds(
            inst->enc.db, inst->enc.structure, *inst->queries[q], mco);
        mc_ms.push_back((NowNs() - t0) / 1e6);
        if (!mc.ok()) {
          report.Fail(inst->name + " MC: " + mc.status().ToString());
          continue;
        }
        const auto& want = inst->expected[Key(State{})][q];
        for (double s : mc->samples) {
          if (s < want.first || s > want.second) {
            report.Fail(inst->name + ": MC sample outside the offline bounds");
          }
        }
      }
    }
  }
  rig->Stop();
  if (!rig->serve_status.ok()) {
    report.Fail("front end: " + rig->serve_status.ToString());
  }

  // --- Merge the connection logs.
  ConnLog all;
  Digest digest;
  for (const ConnLog& log : logs) {
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&all.query_ms, log.query_ms);
    append(&all.mutate_ms, log.mutate_ms);
    append(&all.commit_ms, log.commit_ms);
    append(&all.traced_ms, log.traced_ms);
    append(&all.untraced_ms, log.untraced_ms);
    all.traced_rt.insert(all.traced_rt.end(), log.traced_rt.begin(),
                         log.traced_rt.end());
    all.queries += log.queries;
    all.mutations += log.mutations;
    all.failed += log.failed;
    all.degraded += log.degraded;
    all.exact_sides += log.exact_sides;
    all.nodes += log.nodes;
    all.cache_hits += log.cache_hits;
    all.cache_lookups += log.cache_lookups;
    all.dirty_components += log.dirty_components;
    all.total_components += log.total_components;
    all.bytes += log.bytes;
    const std::string d = log.digest.Hex();
    digest.Add(d.data(), d.size());
    if (!log.first_failure.empty()) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", log.first_failure.c_str());
    }
  }
  report.attempted += all.queries + all.mutations;
  report.failed += all.failed;
  report.digest = digest.Hex();
  if (after.rejected_overload != before.rejected_overload) {
    report.Fail("requests rejected as overloaded");
  }
  std::fprintf(stderr, "queries=%lld mutations=%lld loop_s=%.2f\n",
               static_cast<long long>(all.queries),
               static_cast<long long>(all.mutations), loop_s);
  if (all.queries == 0) return Status::Internal("no query completed");

  const double queries = static_cast<double>(all.queries);
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s));
    report.Add("answer_ms_p50", Median(all.query_ms));
    report.Add("answer_ms_p90", Quantile(all.query_ms, 0.9));
    report.Add("answers_per_s", queries / loop_s);
    report.Add("cpu_ms_per_answer", cpu_ms / queries);
    report.Add("exact_side_frac", all.exact_sides / (2 * queries));
    report.Add("peak_rss_mb", licm::bench::PeakRssKb() / 1024.0);
    return report;
  }

  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const BuildTimes& t : setup_times) v.push_back(t.*field);
    return Median(v);
  };
  double model_vars = 0, model_constraints = 0;
  for (const auto& inst : rig->instances) {
    model_vars += inst->enc.db.pool().size();
    model_constraints += inst->enc.db.constraints().size();
  }
  std::vector<double> exec, overhead;
  for (const auto& [id, rt] : all.traced_rt) {
    auto it = exec_ms.find(id);
    if (it == exec_ms.end()) continue;
    exec.push_back(it->second);
    overhead.push_back(rt - it->second);
  }
  report.Add("data.generate_ms", median_of(&BuildTimes::generate_ms));
  report.Add("anonymize.anonymize_ms", median_of(&BuildTimes::anonymize_ms));
  report.Add("anonymize.encode_ms", median_of(&BuildTimes::encode_ms));
  report.Add("anonymize.vars", model_vars);
  report.Add("anonymize.constraints", model_constraints);
  report.Add("solver.nodes", all.nodes / queries);
  report.Add("sampler.mc_ms_per_world", Median(mc_ms) / mco.num_worlds);
  report.Add("service.exec_ms", Median(exec));
  report.Add("service.cache_hit_frac",
             all.cache_lookups > 0
                 ? static_cast<double>(all.cache_hits) / all.cache_lookups
                 : 0.0);
  report.Add("service.cross_version_hits",
             (after.cache.cross_epoch_hits - before.cache.cross_epoch_hits) /
                 queries);
  const double admitted = static_cast<double>(after.admitted - before.admitted);
  const double rejected =
      static_cast<double>(after.rejected_overload - before.rejected_overload);
  report.Add("service.rejected_frac",
             admitted + rejected > 0 ? rejected / (admitted + rejected) : 0.0);
  report.Add("service.degraded_frac", all.degraded / queries);
  report.Add("mutate.round_trip_ms_p50", Median(all.mutate_ms));
  report.Add("mutate.commit_ms", Median(all.commit_ms));
  report.Add("mutate.dirty_component_frac",
             all.total_components > 0
                 ? static_cast<double>(all.dirty_components) /
                       all.total_components
                 : 0.0);
  report.Add("net.overhead_ms", Median(overhead));
  report.Add("net.bytes_per_request",
             static_cast<double>(all.bytes) / (all.queries + all.mutations));
  report.Add("trace.overhead_frac",
             Median(all.traced_ms) / Median(all.untraced_ms) - 1.0);
  return report;
}

}  // namespace perfbench
