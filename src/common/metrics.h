// Always-on process metrics: named counters, gauges, and log-bucketed
// histograms, cheap enough to leave enabled in release builds.
//
// Design (mirrors the telemetry buffers in telemetry.h, but for scalar
// aggregates instead of event streams):
//
//   * Registration is slow-path: `MetricsRegistry::GetCounter("name",
//     labels)` takes a mutex, interns the (name, labels) series, and
//     returns a stable pointer. Call sites cache the pointer (function-
//     local static or member); after that the registry is never touched
//     on the hot path.
//   * Updates are lock-free: every metric holds a small fixed array of
//     cacheline-padded shards, and a thread increments the shard it was
//     assigned at first use with one relaxed atomic add. Readers sum the
//     shards; totals are exact, momentarily-torn views are acceptable
//     (monitoring semantics).
//   * Histograms are HDR-style: geometric octaves split into 8 linear
//     sub-buckets each, covering ~1e-6 .. ~8.8e12 (plus underflow and
//     overflow buckets). Counts are exact per bucket; quantiles are
//     extracted from the exact counts by linear interpolation inside the
//     landing bucket, so the relative quantile error is bounded by the
//     sub-bucket width (<= 12.5%).
//   * Labels are sorted key/value pairs baked into the series identity.
//     Cardinality discipline is the caller's job: label values must come
//     from a small closed set (instance names, query ids 1-3, engine,
//     degraded flag) — never raw user input.
#ifndef LICM_COMMON_METRICS_H_
#define LICM_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace licm::metrics {

/// Sorted (key, value) pairs identifying one series within a family.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

// Number of update shards per metric. Threads hash onto shards round-
// robin; 8 keeps false sharing rare at the worker-pool sizes we run
// (solver threads + service workers) without bloating histograms.
inline constexpr int kShards = 8;

struct alignas(64) PaddedCell {
  std::atomic<int64_t> v{0};
};

// Stable per-thread shard index, assigned round-robin on first use.
int AssignShard();
inline int ShardIndex() {
  thread_local const int shard = AssignShard();
  return shard;
}

// Relaxed add for doubles (atomic<double>::fetch_add is C++20; a CAS
// loop keeps us portable across the toolchains CI uses).
inline void AtomicAdd(std::atomic<double>* cell, double delta) {
  double cur = cell->load(std::memory_order_relaxed);
  while (!cell->compare_exchange_weak(cur, cur + delta,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic counter. One relaxed atomic add per hit.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t delta = 1) {
    shards_[detail::ShardIndex()].v.fetch_add(delta,
                                              std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  detail::PaddedCell shards_[detail::kShards];
};

/// Last-writer-wins level (queue depth, inflight). Set() stores; Add()
/// applies a relaxed delta so concurrent +1/-1 pairs cancel exactly.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { detail::AtomicAdd(&value_, delta); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-only aggregate of a histogram at one instant: exact per-bucket
/// counts summed across shards, plus quantile/extreme extraction.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  std::vector<int64_t> buckets;  // size Histogram::kBuckets

  /// Quantile by exact-count rank walk + linear interpolation within the
  /// landing bucket. q in [0, 1]; returns 0 when empty.
  double Quantile(double q) const;
  double Min() const;  // lower bound of the lowest non-empty bucket
  double Max() const;  // upper bound of the highest non-empty bucket
  double Mean() const { return count > 0 ? sum / count : 0.0; }
};

/// Log-bucketed histogram of non-negative values (ms, counts, bytes).
/// Observe() is two relaxed atomic adds (bucket count + running sum).
class Histogram {
 public:
  // Octaves [2^(kFirstExp-1), 2^kLastExp) split into kSubBuckets linear
  // sub-buckets each, plus underflow (index 0) and overflow (last).
  static constexpr int kFirstExp = -19;  // lowest resolved ~9.5e-7
  static constexpr int kLastExp = 43;    // overflow above ~8.8e12
  static constexpr int kSubBuckets = 8;
  static constexpr int kOctaves = kLastExp - kFirstExp + 1;
  static constexpr int kBuckets = kOctaves * kSubBuckets + 2;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v) {
    Shard& s = shards_[detail::ShardIndex()];
    s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    detail::AtomicAdd(&s.sum, v);
  }

  HistogramSnapshot Snapshot() const;
  double Quantile(double q) const { return Snapshot().Quantile(q); }
  int64_t Count() const { return Snapshot().count; }

  /// Bucket index for a value: 0 for v < 2^(kFirstExp-1) (including 0,
  /// negatives, NaN), kBuckets-1 for v >= 2^kLastExp (including +inf).
  static int BucketIndex(double v);
  /// Inclusive lower bound of bucket `idx` (0 for the underflow bucket).
  static double BucketLowerBound(int idx);
  /// Exclusive upper bound (+inf for the overflow bucket).
  static double BucketUpperBound(int idx);

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> buckets[kBuckets] = {};
    std::atomic<double> sum{0.0};
  };
  Shard shards_[detail::kShards];
};

/// Process-wide registry: families keyed by name, series keyed by label
/// set. Series pointers are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The global instance every instrumentation site uses. Leaked so
  /// detached threads may update metrics during static destruction.
  static MetricsRegistry& Default();

  /// Get-or-create. Aborts if `name` is already registered with a
  /// different metric type (programmer error, like telemetry's CHECKs).
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  /// Sum of a counter family across all label sets (0 if unregistered).
  int64_t CounterTotal(const std::string& name) const;

  /// Prometheus text exposition (version 0.0.4). Histograms render
  /// cumulative `_bucket{le=...}` lines at non-empty boundaries plus
  /// `+Inf`, `_sum`, and `_count`.
  std::string RenderPrometheus() const;

  /// JSON for the service `metrics` verb: {"counters":[...],
  /// "gauges":[...], "histograms":[...]} with p50/p90/p99/p999 per
  /// histogram. Self-contained (no trailing newline), parseable by
  /// service/json.h.
  std::string RenderJson() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Family {
    Type type;
    // Label set -> index into the typed deque below. Insertion order
    // kept for stable rendering.
    std::vector<std::pair<Labels, size_t>> series;
  };

  size_t* FindOrCreate(const std::string& name, const Labels& labels,
                       Type type);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace licm::metrics

#endif  // LICM_COMMON_METRICS_H_
