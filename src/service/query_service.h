// Long-running in-process query service (DESIGN.md §10).
//
// QueryService owns loaded LICM instances (database + optional sampling
// structure) and answers aggregate queries against them from a fixed pool
// of request workers behind a bounded admission queue:
//
//   Execute() ──admit──▶ [bounded FIFO queue] ──▶ worker: exact solve
//        │                     │                     │ deadline hit?
//        │ queue full          │ stop                ▼
//        ▼                     ▼                  degrade: sampler interval
//   kOverloaded            kInternal              (proved ∪ sampled hull)
//
// Every request carries a wall-clock Deadline budget that starts at
// admission and is threaded into the solver (SolveMinMax / the MIN-MAX
// feasibility prober share it across their whole probe sequence). When
// the exact BIP solve hits the deadline, the service degrades gracefully:
// it returns the proved outer interval widened by a Monte-Carlo sample of
// possible worlds, tagged `degraded=true`, instead of failing the
// request. All requests share one solver Scheduler; each instance owns its
// own ComponentCache of proved component results (licm/mutable_instance.h),
// so isomorphic components recur across requests — and across mutation
// commits — for free, while one instance's traffic can never evict
// another's entries.
//
// Instances are versioned and mutable (MVCC): Execute() captures the
// instance's snapshot at admission, so a request admitted before a
// mutation commit answers against the pre-commit version even if the
// commit lands while the request is queued. Mutation verbs (AppendTuples
// / RetractTuples / EditConstraintRhs / AddConstraint / LoadInstance with
// replace) run on the caller's thread, serialized per instance.
//
// Determinism contract under concurrency: a non-degraded response is
// bit-identical to an offline ComputeBounds run on the same instance and
// query — exact bounds are proved optima, which do not depend on worker
// interleaving, cache state, or thread count (the fuzz suite's `service`
// invariant enforces this). Degraded responses are deterministic given
// the request's sampling seed but their proved interval may vary with
// how far the search got before the deadline; the containment guarantee
// (interval ⊇ exact bounds) holds regardless.
#ifndef LICM_SERVICE_QUERY_SERVICE_H_
#define LICM_SERVICE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "licm/evaluator.h"
#include "licm/licm_relation.h"
#include "licm/mutable_instance.h"
#include "relational/query.h"
#include "sampler/structure.h"
#include "solver/mip_solver.h"
#include "solver/scheduler.h"
#include "solver/solve_cache.h"

namespace licm::service {

struct ServiceConfig {
  /// Request executor threads. Each runs one request at a time; total
  /// in-flight work is bounded by this count.
  int num_workers = 4;
  /// Requests allowed to wait beyond the in-flight ones; an arrival that
  /// finds the queue at this depth is rejected with kOverloaded.
  size_t max_queue = 64;
  /// Per-request wall-clock budget when the request does not set one.
  double default_deadline_s = 5.0;
  /// Worlds the degraded path samples (the paper's MC baseline size).
  int degraded_worlds = 20;
  uint64_t degraded_seed = 1;
  /// Worker threads of the shared solver scheduler (0 auto-detects); all
  /// requests pool this capacity.
  int solver_threads = 0;
  /// Latency SLO: a completed request whose total_ms exceeds this is
  /// captured into the slow-query ring (phase breakdown + solver stats).
  /// 0 captures every request; negative disables capture.
  double slo_ms = 1000.0;
  /// Bound on the slow-query ring; the oldest record is evicted first.
  size_t slowlog_capacity = 64;
};

struct QueryRequest {
  std::string instance;
  /// Aggregate query tree (kCountStar / kSum / kMin / kMax root).
  rel::QueryNodePtr query;
  /// Wall-clock budget in seconds, measured from admission (so queue wait
  /// spends budget). Negative = use the config default; 0 = already
  /// expired, i.e. degrade immediately.
  double deadline_s = -1.0;
  /// Degraded-path sampling overrides (0 = config defaults).
  int mc_worlds = 0;
  uint64_t mc_seed = 0;
};

struct QueryResponse {
  /// True when the exact solve hit its deadline and the response interval
  /// is the degraded (proved ∪ sampled) hull rather than exact bounds.
  bool degraded = false;
  /// The served answer interval. Non-degraded: the exact bounds.
  /// Degraded: a containment interval — guaranteed to contain the exact
  /// bounds (proved outer bounds widened by any sampled worlds).
  double min = 0.0;
  double max = 0.0;
  bool min_exact = false;
  bool max_exact = false;
  /// Proved outer bounds from the (possibly deadline-capped) solve.
  double proved_min = 0.0;
  double proved_max = 0.0;
  /// Observed answer range over sampled worlds (degraded path only; inner
  /// achievable band, each endpoint witnessed by a concrete world).
  bool has_samples = false;
  double sample_min = 0.0;
  double sample_max = 0.0;
  int sample_worlds = 0;
  /// Request lifecycle wall times.
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  double sample_ms = 0.0;
  double total_ms = 0.0;
  /// Instance version this response was computed against — the snapshot
  /// captured at admission, so a query admitted before a mutation commit
  /// reports (and answers against) the pre-commit version.
  uint64_t version = 0;
  /// Solver statistics of this request's solve.
  solver::MipStats stats;
};

/// One SLO-violating request, captured at completion into a bounded ring
/// (ServiceConfig::slo_ms / slowlog_capacity) and served by the `slowlog`
/// verb. The phase breakdown is the request's own telemetry — queue wait,
/// exact solve, degraded sampling — plus the solver counters of its solve.
struct SlowQueryRecord {
  /// Monotonic capture index (never reused; gaps mean evictions).
  int64_t seq = 0;
  /// Capture time in seconds since service start (compare to uptime_s).
  double ts_s = 0.0;
  std::string instance;
  /// Root aggregate of the query, e.g. "COUNT(*)" or "SUM(price)".
  std::string query;
  bool degraded = false;
  double slo_ms = 0.0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  double sample_ms = 0.0;
  double total_ms = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Solver statistics of this request's solve.
  solver::MipStats stats;
};

/// Aggregate service counters, snapshotted under the service lock.
struct ServiceStats {
  int64_t admitted = 0;
  int64_t rejected_overload = 0;
  /// Requests that completed with an error status (infeasible instance,
  /// unknown instance/column, ...). Overload rejections are not failures.
  int64_t failed = 0;
  int64_t completed = 0;
  int64_t degraded = 0;
  /// queue_depth and inflight are read under one lock acquisition, so a
  /// snapshot is internally coherent (a request is in exactly one of the
  /// two while the lock is held).
  size_t queue_depth = 0;
  int inflight = 0;
  size_t instances = 0;
  /// Requests captured into the slow-query ring so far (not the ring's
  /// current size — evictions do not decrement this).
  int64_t slow_queries = 0;
  /// Seconds since the service was constructed. A poller seeing this
  /// decrease knows the service restarted.
  double uptime_s = 0.0;
  /// Strictly increasing per Stats() call; lets pollers order snapshots
  /// and detect restarts even within one second of uptime.
  int64_t snapshot_seq = 0;
  /// Mutations committed across all instances (appends, retracts,
  /// constraint edits, replace-loads).
  int64_t mutations = 0;
  /// Current version of every instance, sorted by name. Versions are
  /// monotonic per instance; pollers use this to order mutation commits
  /// against query responses.
  std::vector<std::pair<std::string, uint64_t>> versions;
  /// Merged solver stats over all completed requests.
  solver::MipStats solve;
  /// Summed per-instance component-cache stats (each instance owns its
  /// cache so mutations on one instance never evict another's entries).
  /// cache.cross_epoch_hits counts cached results that survived a version
  /// bump — the incremental re-solve proof.
  solver::ComponentCacheStats cache;
};

class QueryService {
 public:
  explicit QueryService(ServiceConfig config = {});
  /// Drains the queue (pending requests fail with an error status) and
  /// joins the workers. Callers must not be blocked in Execute().
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers a named instance. `structure` drives the degraded path's
  /// world sampling; without one the service falls back to generic
  /// rejection sampling against the constraint set (and to the proved
  /// interval alone when that fails). Fails with kAlreadyExists if the
  /// name is taken (LoadInstance with replace=true is the opt-in).
  Status AddInstance(std::string name, LicmDatabase db,
                     std::optional<sampler::WorldStructure> structure =
                         std::nullopt);

  /// The `load` verb's semantics: registers `name`, or — only with
  /// `replace` — swaps the database under an existing name through the
  /// instance's MVCC commit, bumping its version; in-flight queries keep
  /// answering against the snapshot they admitted on. Without `replace` a
  /// name collision is a typed kAlreadyExists error.
  Status LoadInstance(std::string name, LicmDatabase db,
                      std::optional<sampler::WorldStructure> structure,
                      bool replace);

  std::vector<std::string> InstanceNames() const;

  /// Current version of an instance (kNotFound for unknown names).
  Result<uint64_t> VersionOf(const std::string& name) const;

  /// Mutation verbs: each commits one versioned mutation against the
  /// named instance (serialized per instance by MutableInstance; the
  /// service lock is not held during the commit). In-flight queries keep
  /// their admission-time snapshot; later admissions see the new version.
  Result<licm::MutationResult> AppendTuples(const std::string& instance,
                                            const std::string& relation,
                                            const std::vector<RowSpec>& rows);
  Result<licm::MutationResult> RetractTuples(
      const std::string& instance, const std::string& relation,
      const std::vector<rel::Tuple>& rows);
  Result<licm::MutationResult> EditConstraintRhs(const std::string& instance,
                                                 size_t index,
                                                 ConstraintOp op, int64_t rhs);
  Result<licm::MutationResult> AddConstraint(const std::string& instance,
                                             LinearConstraint c);

  /// The live instance handle (tests and embedders; the wire layer only
  /// uses the typed verbs above).
  Result<std::shared_ptr<MutableInstance>> GetInstance(
      const std::string& name) const;

  /// Admits, queues, and executes one request, blocking the caller until
  /// its response is ready. Safe to call from any number of threads —
  /// that is the intended use: one caller per client connection, with the
  /// bounded queue (not the caller count) limiting actual work.
  /// Errors: kOverloaded (admission), kNotFound (unknown instance),
  /// kInfeasible (instance admits no world and the solve proved it),
  /// kInvalidArgument (malformed query).
  Result<QueryResponse> Execute(const QueryRequest& request);

  /// Completion callback of ExecuteAsync. Fires exactly once: on a worker
  /// thread when the request ran, or inline — before ExecuteAsync returns
  /// — when admission failed (kOverloaded, unknown instance, stopping
  /// service, malformed query).
  using ResponseCallback = std::function<void(const Result<QueryResponse>&)>;

  /// Callback-completion variant of Execute for event-driven transports
  /// (src/net/): the caller thread only pays for admission (MVCC snapshot
  /// capture + queue push) and is never parked on a condition variable.
  /// The callback must not block for long — it runs on a request worker.
  void ExecuteAsync(QueryRequest request, ResponseCallback done);

  ServiceStats Stats() const;

  /// Snapshot of the slow-query ring, newest first.
  std::vector<SlowQueryRecord> SlowLog() const;

  const ServiceConfig& config() const { return config_; }

  /// Test hook: runs at the start of every worker solve while set. Lets
  /// tests hold workers busy deterministically to exercise admission
  /// control; never set in production paths.
  void SetSolveHookForTest(std::function<void()> hook);

 private:
  struct Instance {
    std::shared_ptr<MutableInstance> inst;
    // Swapped as one shared_ptr so a request captures a (snapshot,
    // structure) pair consistently at admission.
    std::shared_ptr<const std::optional<sampler::WorldStructure>> structure;
  };

  struct Pending {
    // Owned copy: async callers are gone by the time a worker runs this.
    QueryRequest request;
    Deadline deadline = Deadline::Never();
    int64_t enqueue_ns = 0;
    // MVCC capture at admission: the worker answers against exactly this
    // snapshot, regardless of mutations committing while it waits.
    std::shared_ptr<MutableInstance> inst;
    std::shared_ptr<const MutableInstance::Snapshot> snap;
    std::shared_ptr<const std::optional<sampler::WorldStructure>> structure;
    // Filled by the worker, signalled through `done` (blocking path) or
    // delivered through `callback` (async path), never both.
    std::optional<Result<QueryResponse>> outcome;
    bool done = false;
    std::condition_variable done_cv;
    ResponseCallback callback;
  };

  // Validates, captures the MVCC snapshot, and enqueues under mu_ (held
  // by the caller). On failure nothing was enqueued.
  Status AdmitLocked(const std::shared_ptr<Pending>& pending);
  void WorkerLoop();
  Result<QueryResponse> Process(const Pending& pending, double queue_ms);
  void Degrade(const QueryRequest& request, const LicmDatabase& db,
               const std::optional<sampler::WorldStructure>& structure,
               QueryResponse* response);
  // Looks up the instance handle under mu_ and bumps the mutation
  // counters/metrics after `fn` commits.
  Result<licm::MutationResult> Mutate(
      const std::string& instance,
      const std::function<Result<licm::MutationResult>(MutableInstance&)>&
          fn);

  const ServiceConfig config_;
  solver::Scheduler scheduler_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::unordered_map<std::string, Instance> instances_;
  std::deque<std::shared_ptr<Pending>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  int inflight_ = 0;
  int64_t admitted_ = 0;
  int64_t rejected_overload_ = 0;
  int64_t failed_ = 0;
  int64_t completed_ = 0;
  int64_t degraded_ = 0;
  int64_t mutations_ = 0;
  solver::MipStats solve_stats_;
  std::function<void()> solve_hook_;
  // SLO capture ring (guarded by mu_; only touched for slow requests).
  std::deque<SlowQueryRecord> slowlog_;
  int64_t slow_captured_ = 0;
  mutable int64_t snapshot_seq_ = 0;
  StopWatch uptime_watch_;
};

}  // namespace licm::service

#endif  // LICM_SERVICE_QUERY_SERVICE_H_
