#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/fault/injector.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/contracts.hpp"

namespace nvp::runtime {

/// Aggregated counters of a ShardedLruCache.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t waits = 0;  ///< lookups that waited for another's compute

  std::uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const std::uint64_t total = lookups();
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Thread-safe, sharded, bounded LRU map from a 64-bit key (already a hash —
/// e.g. an Fnv1a digest) to a copyable value. Sharding keeps lock contention
/// low when many threads memoize solver calls concurrently; each shard holds
/// an independent LRU list, so the bound is per shard
/// (ceil(capacity / shards)) and eviction is LRU within a shard.
///
/// Hit/miss/eviction accounting lives in obs::Counter metrics: a cache
/// constructed with a `label` registers `<label>.hits` / `.misses` /
/// `.evictions` / `.waits` in obs::Registry::global() (so run manifests
/// report them); an unlabeled cache keeps private counters. stats() reads
/// the same counters either way.
///
/// get_or_compute() is single-flight: a key is computed at most once at a
/// time. The first thread to miss leads the key's flight and runs the
/// compute functor outside the shard lock, so misses on different keys
/// still compute in parallel. Another thread that misses on a key in flight
/// waits for the leader, then reads the cached entry; it counts one hit and
/// one wait, never a miss, so per-key miss counts do not depend on the
/// schedule. Waiters hold no copy of the value while they wait. Three
/// exceptions keep the rule safe:
///   - A leader that throws leaves no entry and does not hand its exception
///     on: each waiter then computes for itself (a miss), so a failure stays
///     with the caller that met it.
///   - A forced miss from the fault::Injector `cache` site computes without
///     joining the flight.
///   - A thread running a task stolen inside a parallel_for wait
///     (runtime::in_stolen_task()) never waits on a flight: that flight may
///     be one it leads itself further down its own stack. It computes
///     inline. DESIGN.md §7 gives the deadlock argument.
template <typename Value>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 8,
                           const std::string& label = "") {
    NVP_EXPECTS(capacity >= 1);
    NVP_EXPECTS(shards >= 1);
    if (shards > capacity) shards = capacity;
    shard_capacity_ = (capacity + shards - 1) / shards;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
      shards_.push_back(std::make_unique<Shard>());
    if (label.empty()) {
      owned_ = std::make_unique<OwnedCounters>();
      hits_ = &owned_->hits;
      misses_ = &owned_->misses;
      evictions_ = &owned_->evictions;
      waits_ = &owned_->waits;
    } else {
      auto& registry = obs::Registry::global();
      hits_ = &registry.counter(label + ".hits");
      misses_ = &registry.counter(label + ".misses");
      evictions_ = &registry.counter(label + ".evictions");
      waits_ = &registry.counter(label + ".waits");
    }
  }

  /// Looks the key up, refreshing its LRU position. Counts a hit or a miss.
  /// An armed fault::Injector `cache` site turns lookups into forced misses
  /// (counted as misses), which must never change results — only costs.
  std::optional<Value> get(std::uint64_t key) {
    if (fault::fire(fault::Site::kCache)) {
      misses_->add();
      return std::nullopt;
    }
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (const Value* value = find_locked(shard, key)) {
      hits_->add();
      return *value;
    }
    misses_->add();
    return std::nullopt;
  }

  /// Inserts or refreshes the entry, evicting the shard's LRU tail when the
  /// shard is over capacity.
  void put(std::uint64_t key, Value value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    put_locked(shard, key, std::move(value));
  }

  /// Memoized call: returns the cached value, or the value of the flight
  /// already computing the key, or computes, caches and returns it (see the
  /// class comment for the single-flight rules).
  template <typename Fn>
  Value get_or_compute(std::uint64_t key, Fn&& compute) {
    if (fault::fire(fault::Site::kCache)) {
      misses_->add();
      return compute_and_put(key, compute);
    }
    Shard& shard = shard_for(key);
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (const Value* value = find_locked(shard, key)) {
      hits_->add();
      return *value;
    }
    if (!in_stolen_task()) {
      const auto in_flight = shard.flights.find(key);
      if (in_flight == shard.flights.end())
        return lead(shard, key, lock, compute);
      waits_->add();
      const std::shared_ptr<Flight> flight = in_flight->second;
      shard.landed.wait(lock, [&] { return flight->landed; });
      if (const Value* value = find_locked(shard, key)) {
        hits_->add();
        return *value;
      }
      // The leader threw (or its entry is already evicted): compute alone.
    }
    misses_->add();
    lock.unlock();
    return compute_and_put(key, compute);
  }

  /// Counter values (reads the obs metrics backing this cache).
  CacheStats stats() const {
    return {hits_->value(), misses_->value(), evictions_->value(),
            waits_->value()};
  }

  /// Drops all entries and resets the counters. Flights in progress are
  /// unaffected: their leaders insert when they finish.
  void clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->order.clear();
      shard->index.clear();
    }
    hits_->reset();
    misses_->reset();
    evictions_->reset();
    waits_->reset();
  }

  /// Current number of cached entries.
  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->index.size();
    }
    return total;
  }

  std::size_t shards() const { return shards_.size(); }
  std::size_t capacity() const { return shard_capacity_ * shards_.size(); }

 private:
  /// One key's computation in progress.
  struct Flight {
    bool landed = false;  ///< guarded by the shard mutex
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<std::pair<std::uint64_t, Value>> order;  ///< front = MRU
    std::unordered_map<std::uint64_t,
                       typename std::list<std::pair<std::uint64_t,
                                                    Value>>::iterator>
        index;
    std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> flights;
    std::condition_variable landed;  ///< signalled when a flight lands
  };

  struct OwnedCounters {
    obs::Counter hits, misses, evictions, waits;
  };

  /// The entry for `key`, moved to the MRU position; null when absent.
  static const Value* find_locked(Shard& shard, std::uint64_t key) {
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return nullptr;
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return &it->second->second;
  }

  void put_locked(Shard& shard, std::uint64_t key, Value value) {
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    shard.order.emplace_front(key, std::move(value));
    shard.index[key] = shard.order.begin();
    if (shard.index.size() > shard_capacity_) {
      shard.index.erase(shard.order.back().first);
      shard.order.pop_back();
      evictions_->add();
    }
  }

  /// Opens the key's flight, computes, and lands the flight on every exit
  /// (after the entry, if any, is in), waking the key's waiters.
  template <typename Fn>
  Value lead(Shard& shard, std::uint64_t key,
             std::unique_lock<std::mutex>& lock, Fn& compute) {
    const auto flight = std::make_shared<Flight>();
    shard.flights.emplace(key, flight);
    misses_->add();
    lock.unlock();
    struct Landing {
      Shard& shard;
      std::uint64_t key;
      Flight& flight;
      ~Landing() {
        {
          std::lock_guard<std::mutex> guard(shard.mutex);
          flight.landed = true;
          shard.flights.erase(key);
        }
        shard.landed.notify_all();
      }
    } landing{shard, key, *flight};
    return compute_and_put(key, compute);
  }

  template <typename Fn>
  Value compute_and_put(std::uint64_t key, Fn& compute) {
    Value value = compute();
    put(key, value);
    return value;
  }

  Shard& shard_for(std::uint64_t key) {
    // Keys are already hashes; one extra multiply decorrelates the low bits
    // used for shard selection from the bits used as map keys.
    const std::uint64_t mixed = key * 0x9E3779B97F4A7C15ULL;
    return *shards_[(mixed >> 32) % shards_.size()];
  }

  std::size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<OwnedCounters> owned_;  ///< null when registry-labeled
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* waits_ = nullptr;
};

}  // namespace nvp::runtime
