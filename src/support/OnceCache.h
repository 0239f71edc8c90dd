//===- support/OnceCache.h - Sharded compute-once memo table ----*- C++ -*-===//
///
/// \file
/// The driver's one memoization algorithm: a thread-safe map from key to a
/// value computed at most once per key while the entry lives. The result
/// cache (driver::runCached), the AST-oracle memo and the profile cache are
/// each one instance.
///
/// The map is split into 16 shards by key hash, one mutex each, so workers
/// looking up unrelated keys almost never contend. A shard's mutex guards
/// only finding or creating the slot: the first caller for a key computes
/// under std::call_once, and later callers for that key block on the flag,
/// not on the shard. Entries are shared_ptr-held, so clear() or a bound
/// sweep can drop a slot while a caller is still computing, waiting on, or
/// reading it.
///
/// Counters are cumulative for the process: clear() drops entries only.
/// Read a phase's counts as the difference of two stats() snapshots.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SUPPORT_ONCECACHE_H
#define BALSCHED_SUPPORT_ONCECACHE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace bsched {

struct OnceCacheStats {
  uint64_t Hits = 0;          ///< key present and already computed.
  uint64_t Misses = 0;        ///< first arrival; ran the computation.
  uint64_t InFlightWaits = 0; ///< arrived while another thread computed it.
};

/// Counter moves between two snapshots (\p Now taken after \p Before).
inline OnceCacheStats operator-(const OnceCacheStats &Now,
                                const OnceCacheStats &Before) {
  return {Now.Hits - Before.Hits, Now.Misses - Before.Misses,
          Now.InFlightWaits - Before.InFlightWaits};
}

template <typename K, typename V, typename Hash = std::hash<K>>
class OnceCache {
public:
  /// \p MaxPerShard = 0 keeps every entry until clear(). Otherwise a full
  /// shard is emptied before a new key goes in: a bound with no bookkeeping
  /// on the hit path, for caches fed an unbounded stream of keys.
  explicit OnceCache(size_t MaxPerShard = 0) : MaxPerShard(MaxPerShard) {}

  /// The value for \p Key, running \p Compute() (which returns a V) if no
  /// live entry has one. The pointer keeps the value alive however the
  /// cache changes afterwards.
  template <typename ComputeFn>
  std::shared_ptr<const V> get(const K &Key, ComputeFn Compute) {
    size_t H = Hash{}(Key);
    Shard &S = Shards[(H ^ (H >> 32)) & (NumShards - 1)];
    std::shared_ptr<Entry> E;
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      if (MaxPerShard != 0 && S.Map.size() >= MaxPerShard &&
          S.Map.find(Key) == S.Map.end())
        S.Map.clear();
      std::shared_ptr<Entry> &Slot = S.Map.try_emplace(Key).first->second;
      if (!Slot) {
        Slot = std::make_shared<Entry>();
        ++S.Stats.Misses;
      } else if (Slot->Done.load(std::memory_order_acquire)) {
        ++S.Stats.Hits;
      } else {
        ++S.Stats.InFlightWaits;
      }
      E = Slot;
    }
    std::call_once(E->Once, [&] {
      E->Value = Compute();
      E->Done.store(true, std::memory_order_release);
    });
    const V *Value = &E->Value;
    return std::shared_ptr<const V>(std::move(E), Value);
  }

  /// Drops every entry; the counters keep counting.
  void clear() {
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      S.Map.clear();
    }
  }

  OnceCacheStats stats() {
    OnceCacheStats Total;
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      Total.Hits += S.Stats.Hits;
      Total.Misses += S.Stats.Misses;
      Total.InFlightWaits += S.Stats.InFlightWaits;
    }
    return Total;
  }

private:
  struct Entry {
    std::once_flag Once;
    std::atomic<bool> Done{false}; ///< stats-only: tells a hit from a wait.
    V Value;
  };
  struct Shard {
    std::mutex Mu;
    std::unordered_map<K, std::shared_ptr<Entry>, Hash> Map;
    OnceCacheStats Stats;
  };
  /// A power of two well above the worker counts this codebase runs.
  static constexpr size_t NumShards = 16;

  const size_t MaxPerShard;
  Shard Shards[NumShards];
};

} // namespace bsched

#endif // BALSCHED_SUPPORT_ONCECACHE_H
