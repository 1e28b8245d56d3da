// LRU cache of admitted placements, the hot path of the placement daemon.
//
// Keys are the three content fingerprints that determine a placement: DAG
// structure, algorithm variant and fault model. The cluster's failure
// state is not part of the key: the daemon keeps every cached entry
// current for the live failure set, replacing the entries an event breaks
// in place (update_all) and recording the epoch each placement was
// published at in CachedPlacement::epoch.
//
// The cache is a fixed slab: a vector of nodes carrying an intrusive
// MRU→LRU list plus a hash index over it. A hit is allocation-free — one
// hash lookup, four pointer-sized link updates to bump the node to MRU,
// and a shared_ptr refcount increment — which is what lets the daemon
// serve cached admissions at memcpy-like rates (perfbench's `hit_*`
// workloads measure them over the socket). Misses beyond capacity evict the
// LRU tail; evicted placements stay alive for response holders via shared
// ownership.
//
// Not internally synchronized: the daemon guards it with its own mutex
// (the cache is one of several fields updated atomically per event).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "service/request.hpp"

namespace streamsched {

/// What determines an admitted placement: stable content fingerprints
/// (core/fingerprint.hpp). The platform needs no component: a daemon
/// serves exactly one platform and keeps its entries current for it.
struct CacheKey {
  std::uint64_t dag = 0;
  std::uint64_t variant = 0;
  std::uint64_t model = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    // splitmix64-style finalization over the combined words; the map
    // compares full keys on collision, so this only needs to spread.
    std::uint64_t h = k.dag;
    const auto mix = [&h](std::uint64_t v) {
      h += 0x9e3779b97f4a7c15ULL + v;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      h ^= h >> 31;
    };
    mix(k.variant);
    mix(k.model);
    return static_cast<std::size_t>(h);
  }
};

class ScheduleCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  explicit ScheduleCache(std::size_t capacity);

  /// The cached placement for `key` (bumped to MRU), or nullptr. Counts a
  /// hit or a miss. Allocation-free.
  [[nodiscard]] std::shared_ptr<const CachedPlacement> find(const CacheKey& key);

  /// find() whose miss counts nothing: for a lookup whose miss is retried
  /// by a later find(), so each request still counts one hit or one miss.
  [[nodiscard]] std::shared_ptr<const CachedPlacement> find_hit(const CacheKey& key);

  /// The cached placement for `key`, or nullptr, without touching recency
  /// or stats — for the daemon's own bookkeeping, not for serving.
  [[nodiscard]] std::shared_ptr<const CachedPlacement> peek(const CacheKey& key) const;

  /// Inserts (or replaces) the placement for `key` at MRU, evicting the
  /// LRU tail beyond capacity.
  void insert(const CacheKey& key, std::shared_ptr<const CachedPlacement> placement);

  /// Event transition: walks every entry MRU→LRU and calls `update` on
  /// it. `update` returns the placement to keep under the same key (the
  /// same pointer — copy-free — or a repaired copy) or nullptr to drop the
  /// entry (beyond repair; counted as an eviction). Recency order is
  /// preserved.
  void update_all(const std::function<std::shared_ptr<const CachedPlacement>(
                      const std::shared_ptr<const CachedPlacement>&)>& update);

  /// Number of cached placements serving degraded (a counter kept by
  /// insert, eviction and update_all; no walk).
  [[nodiscard]] std::size_t degraded_count() const { return degraded_; }

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Keys in MRU→LRU order (tests and introspection).
  [[nodiscard]] std::vector<CacheKey> keys_mru() const;

  /// Entries in LRU→MRU order, without touching recency or stats — the
  /// warm-start snapshot walk (service/persistence.hpp). Re-inserting the
  /// returned entries in order reproduces the recency ordering.
  [[nodiscard]] std::vector<std::pair<CacheKey, std::shared_ptr<const CachedPlacement>>>
  entries_lru() const;

 private:
  static constexpr std::size_t kNil = static_cast<std::size_t>(-1);

  struct Node {
    CacheKey key;
    std::shared_ptr<const CachedPlacement> placement;
    std::size_t prev = kNil;
    std::size_t next = kNil;
  };

  void unlink(std::size_t i);
  void link_front(std::size_t i);
  void free_node(std::size_t i);
  /// Stores `placement` in node i, keeping degraded_ current.
  void set_placement(std::size_t i, std::shared_ptr<const CachedPlacement> placement);

  std::size_t capacity_;
  std::vector<Node> nodes_;
  std::size_t head_ = kNil;  ///< MRU
  std::size_t tail_ = kNil;  ///< LRU
  std::size_t free_ = kNil;  ///< free-slot chain through Node::next
  std::unordered_map<CacheKey, std::size_t, CacheKeyHash> index_;
  Stats stats_;
  std::size_t degraded_ = 0;  ///< nodes whose placement is degraded
};

}  // namespace streamsched
