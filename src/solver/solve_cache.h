// Memoization of proved component solves keyed by canonical form.
//
// The LICM pipeline re-solves thousands of isomorphic group components per
// aggregate query (and per MIN/MAX feasibility probe). ComponentCache maps
// a component's canonical form (canonical.h) to its proved solve result in
// canonical variable space, so every later isomorphic component is answered
// by a permutation instead of a branch & bound search. Only *proved*
// results (kOptimal / kInfeasible) are stored; time-limited results are
// never cached because their bounds depend on the limits in force.
//
// It is the solver's only memory across calls: nothing else a search
// learns (incumbents, pseudo-costs, cuts) outlives the call. Components
// above the cache's size cap (512 variables, mip_solver.cc) are never
// fingerprinted, so the cache costs them nothing.
//
// Thread-safe: MipSolver consults it from its component worker threads, and
// one cache can be shared across solver calls (both senses of a bound
// computation, a whole sequence of MIN/MAX probes, or every version of a
// MutableInstance). Bounded by an LRU policy of kDefaultCapacity entries
// so long-running servers cannot grow it without limit.
#ifndef LICM_SOLVER_SOLVE_CACHE_H_
#define LICM_SOLVER_SOLVE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "solver/canonical.h"

namespace licm::solver {

/// Monotonic counters; read with Snapshot() while other threads insert.
struct ComponentCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t evictions = 0;
  /// Hits on entries inserted before the latest BumpEpoch() call. When the
  /// owner bumps the epoch at each instance mutation commit, this counts
  /// proved results that survived a version change — the "entries keyed by
  /// canonical fingerprint stay valid across versions" claim, measured.
  int64_t cross_epoch_hits = 0;
};

class ComponentCache {
 public:
  /// A proved solve of a canonical component program (maximization sense).
  struct Entry {
    SolveStatus status = SolveStatus::kInfeasible;
    /// Optimal objective, including the program's constant (valid iff
    /// has_solution).
    double objective = 0.0;
    bool has_solution = false;
    /// Optimal assignment in canonical variable order.
    std::vector<double> solution;
  };

  explicit ComponentCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  ComponentCache(const ComponentCache&) = delete;
  ComponentCache& operator=(const ComponentCache&) = delete;

  /// Looks up `form`; on a hit copies the entry into `*out`, marks the
  /// entry most-recently-used, and returns true. Counts a hit or miss.
  bool Lookup(const CanonicalForm& form, Entry* out);

  /// Inserts (or refreshes) the entry for `form`, evicting the least
  /// recently used entry when at capacity. Returns false if an equal key
  /// was already present (another thread solved the same form first).
  bool Insert(const CanonicalForm& form, Entry entry);

  size_t size() const;
  ComponentCacheStats Snapshot() const;

  /// Starts a new epoch. Entries themselves are untouched — canonical keys
  /// are content hashes, so a mutation that changes a component changes its
  /// key and the stale entry simply stops being looked up. Hits on entries
  /// from earlier epochs are tallied as cross_epoch_hits.
  void BumpEpoch();
  uint64_t epoch() const;

  static constexpr size_t kDefaultCapacity = 1 << 16;

 private:
  struct Node {
    std::string key;
    Entry entry;
    uint64_t epoch = 0;  // epoch_ at insert time
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Node> lru_;  // front = most recently used
  std::unordered_map<std::string_view, std::list<Node>::iterator> index_;
  ComponentCacheStats stats_;
  uint64_t epoch_ = 0;
};

}  // namespace licm::solver

#endif  // LICM_SOLVER_SOLVE_CACHE_H_
