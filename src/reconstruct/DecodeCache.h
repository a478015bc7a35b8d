//===- reconstruct/DecodeCache.h - Memoized DAG-path decoding ---*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoizes `decodeDagPath` results across trace records. Real traces
/// are dominated by a small set of hot (DAG, path-bits) pairs — the same
/// redundancy observation that motivates the paper's adjacent-line
/// collapse (section 4.2) — so after first sight a record's block path
/// is a single hash lookup instead of an exhaustive DAG walk.
///
/// Keys are content-addressed: (module checksum low word, DAG relative
/// id, path bits). A checksum identifies the mapfile bytes (section
/// 2.3), so entries stay valid across snaps, buffers and batch runs, and
/// the cache can be shared by concurrent reconstruction workers. Sharded
/// locking keeps contention negligible; values are shared_ptrs so a hit
/// never copies the path. Hits and misses are counted only in the
/// registry the cache is built with ("reconstruct.cache_hits" /
/// "reconstruct.cache_misses"), whose counters shard per thread.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_RECONSTRUCT_DECODECACHE_H
#define TRACEBACK_RECONSTRUCT_DECODECACHE_H

#include "instrument/MapFile.h"
#include "support/FlatMap.h"
#include "support/Metrics.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace traceback {

/// A decoded DAG path, shared between the cache and its users. Empty
/// paths (undecodable bits, i.e. corrupt records) are cached too — a
/// corrupt hot record is as repetitive as a healthy one.
using SharedDagPath = std::shared_ptr<const std::vector<uint16_t>>;

class DagPathCache {
public:
  explicit DagPathCache(MetricsRegistry &Reg)
      : Hits(Reg.counter("reconstruct.cache_hits")),
        Misses(Reg.counter("reconstruct.cache_misses")) {}

  /// Returns the decoded path of (\p ModuleKey, \p Dag.RelId, \p
  /// PathBits), decoding and inserting on first sight. Thread-safe.
  SharedDagPath decode(uint64_t ModuleKey, const MapDag &Dag,
                       uint32_t PathBits);

  /// Lookups counted in the registry: every cache built with the same
  /// registry adds to the same two counters.
  uint64_t hits() const { return Hits.value(); }
  uint64_t misses() const { return Misses.value(); }

private:
  struct Key {
    uint64_t ModuleKey = 0;
    uint32_t RelId = 0;
    uint32_t PathBits = 0;
    bool operator==(const Key &O) const {
      return ModuleKey == O.ModuleKey && RelId == O.RelId &&
             PathBits == O.PathBits;
    }
  };
  struct KeyHasher {
    uint64_t operator()(const Key &K) const {
      return hashCombine(hashU64(K.ModuleKey),
                         hashU64((uint64_t(K.RelId) << 32) | K.PathBits));
    }
  };

  static constexpr size_t ShardCount = 16;
  struct Shard {
    std::mutex M;
    FlatMap<Key, SharedDagPath, KeyHasher> Map;
  };
  Shard Shards[ShardCount];
  Counter &Hits;
  Counter &Misses;
};

} // namespace traceback

#endif // TRACEBACK_RECONSTRUCT_DECODECACHE_H
