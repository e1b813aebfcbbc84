#include "solver/solve_cache.h"

namespace licm::solver {

bool ComponentCache::Lookup(const CanonicalForm& form, Entry* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(std::string_view(form.key));
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->entry;
  ++stats_.hits;
  if (it->second->epoch < epoch_) ++stats_.cross_epoch_hits;
  return true;
}

bool ComponentCache::Insert(const CanonicalForm& form, Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(std::string_view(form.key));
  if (it != index_.end()) {
    // Lost a race with an identical solve; keep the existing entry.
    lru_.splice(lru_.begin(), lru_, it->second);
    return false;
  }
  while (lru_.size() >= capacity_) {
    index_.erase(std::string_view(lru_.back().key));
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Node{form.key, std::move(entry), epoch_});
  // string_view into the node's own key: stable because std::list never
  // moves nodes and the index entry is erased together with the node.
  index_.emplace(std::string_view(lru_.front().key), lru_.begin());
  ++stats_.inserts;
  return true;
}

void ComponentCache::BumpEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;
}

uint64_t ComponentCache::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

size_t ComponentCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

ComponentCacheStats ComponentCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace licm::solver
