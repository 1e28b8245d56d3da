#include "service/schedule_cache.hpp"

#include "util/assert.hpp"

namespace streamsched {

ScheduleCache::ScheduleCache(std::size_t capacity) : capacity_(capacity) {
  SS_REQUIRE(capacity > 0, "schedule cache needs capacity >= 1");
  nodes_.reserve(capacity);
  index_.reserve(capacity * 2);
}

void ScheduleCache::unlink(std::size_t i) {
  Node& n = nodes_[i];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
  n.prev = n.next = kNil;
}

void ScheduleCache::link_front(std::size_t i) {
  Node& n = nodes_[i];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) nodes_[head_].prev = i;
  head_ = i;
  if (tail_ == kNil) tail_ = i;
}

void ScheduleCache::free_node(std::size_t i) {
  set_placement(i, nullptr);
  nodes_[i].next = free_;
  free_ = i;
}

void ScheduleCache::set_placement(std::size_t i,
                                  std::shared_ptr<const CachedPlacement> placement) {
  std::shared_ptr<const CachedPlacement>& slot = nodes_[i].placement;
  if (slot != nullptr && slot->degraded) --degraded_;
  if (placement != nullptr && placement->degraded) ++degraded_;
  slot = std::move(placement);
}

std::shared_ptr<const CachedPlacement> ScheduleCache::find(const CacheKey& key) {
  std::shared_ptr<const CachedPlacement> hit = find_hit(key);
  if (hit == nullptr) ++stats_.misses;
  return hit;
}

std::shared_ptr<const CachedPlacement> ScheduleCache::find_hit(const CacheKey& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  ++stats_.hits;
  const std::size_t i = it->second;
  if (i != head_) {
    unlink(i);
    link_front(i);
  }
  return nodes_[i].placement;
}

std::shared_ptr<const CachedPlacement> ScheduleCache::peek(const CacheKey& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : nodes_[it->second].placement;
}

void ScheduleCache::insert(const CacheKey& key,
                           std::shared_ptr<const CachedPlacement> placement) {
  SS_REQUIRE(placement != nullptr, "cannot cache a null placement");
  if (const auto it = index_.find(key); it != index_.end()) {
    const std::size_t i = it->second;
    set_placement(i, std::move(placement));
    if (i != head_) {
      unlink(i);
      link_front(i);
    }
    return;
  }
  if (index_.size() >= capacity_) {
    // Evict the LRU tail to make room.
    const std::size_t victim = tail_;
    index_.erase(nodes_[victim].key);
    unlink(victim);
    free_node(victim);
    ++stats_.evictions;
  }
  std::size_t i;
  if (free_ != kNil) {
    i = free_;
    free_ = nodes_[i].next;
    nodes_[i].next = kNil;
  } else {
    i = nodes_.size();
    nodes_.emplace_back();
  }
  nodes_[i].key = key;
  set_placement(i, std::move(placement));
  link_front(i);
  index_.emplace(key, i);
  ++stats_.insertions;
}

void ScheduleCache::update_all(
    const std::function<std::shared_ptr<const CachedPlacement>(
        const std::shared_ptr<const CachedPlacement>&)>& update) {
  std::size_t i = head_;
  while (i != kNil) {
    const std::size_t next = nodes_[i].next;
    if (std::shared_ptr<const CachedPlacement> kept = update(nodes_[i].placement)) {
      set_placement(i, std::move(kept));
    } else {
      index_.erase(nodes_[i].key);
      unlink(i);
      free_node(i);
      ++stats_.evictions;
    }
    i = next;
  }
}

std::vector<std::pair<CacheKey, std::shared_ptr<const CachedPlacement>>>
ScheduleCache::entries_lru() const {
  std::vector<std::pair<CacheKey, std::shared_ptr<const CachedPlacement>>> entries;
  entries.reserve(index_.size());
  for (std::size_t i = tail_; i != kNil; i = nodes_[i].prev) {
    entries.emplace_back(nodes_[i].key, nodes_[i].placement);
  }
  return entries;
}

std::vector<CacheKey> ScheduleCache::keys_mru() const {
  std::vector<CacheKey> keys;
  keys.reserve(index_.size());
  for (std::size_t i = head_; i != kNil; i = nodes_[i].next) keys.push_back(nodes_[i].key);
  return keys;
}

}  // namespace streamsched
