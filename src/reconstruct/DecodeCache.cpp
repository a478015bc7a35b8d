//===- reconstruct/DecodeCache.cpp - Memoized DAG-path decoding -----------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "reconstruct/DecodeCache.h"

#include "reconstruct/Reconstructor.h"

using namespace traceback;

SharedDagPath DagPathCache::decode(uint64_t ModuleKey, const MapDag &Dag,
                                   uint32_t PathBits) {
  Key K{ModuleKey, Dag.RelId, PathBits};
  Shard &S = Shards[KeyHasher{}(K) % ShardCount];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    if (SharedDagPath *Found = S.Map.find(K)) {
      Hits.add();
      return *Found;
    }
  }
  // Decode outside the lock: decoding is pure, so two threads racing on
  // the same key produce identical paths and either insert wins.
  SharedDagPath Path =
      std::make_shared<std::vector<uint16_t>>(decodeDagPath(Dag, PathBits));
  Misses.add();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Map.insertOrAssign(K, Path);
  return Path;
}
