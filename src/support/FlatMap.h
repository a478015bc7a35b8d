//===- support/FlatMap.h - Open-addressing flat hash map --------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal open-addressing hash map with linear probing and flat
/// (single-allocation) storage. Reconstruction resolves a module and a
/// DAG path for every trace record, so its indices sit on the hot path;
/// node-based `std::map`/`std::unordered_map` pay a pointer chase and an
/// allocation per entry that this map does not.
///
/// Insert-or-assign and find only — no erase (the reconstruction indices
/// are build-once / read-many, and guest memory never unmaps), which keeps
/// probing tombstone-free. Values may be move-only: the VM's page table
/// owns its pages through it.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_SUPPORT_FLATMAP_H
#define TRACEBACK_SUPPORT_FLATMAP_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace traceback {

/// Mixes a 64-bit value into a well-distributed hash (splitmix64 final).
inline uint64_t hashU64(uint64_t X) {
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Combines two hashes (boost-style, 64-bit).
inline uint64_t hashCombine(uint64_t Seed, uint64_t H) {
  return Seed ^ (H + 0x9e3779b97f4a7c15ULL + (Seed << 12) + (Seed >> 4));
}

/// Flat open-addressing map. \p K needs operator==; \p Hasher is a
/// callable uint64_t(const K&). Grows at 7/8 load; capacity is a power
/// of two so probing wraps with a mask.
template <typename K, typename V, typename Hasher> class FlatMap {
public:
  FlatMap() = default;

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  void clear() {
    Slots.clear();
    Count = 0;
  }

  void reserve(size_t N) {
    // Target ≤ 7/8 load after N inserts.
    size_t Need = N + N / 4 + 8;
    size_t Cap = 16;
    while (Cap < Need)
      Cap <<= 1;
    if (Cap > Slots.size())
      rehash(Cap);
  }

  /// Inserts or overwrites. Returns true when the key was new.
  bool insertOrAssign(const K &Key, V Value) {
    if (Slots.empty() || (Count + 1) * 8 > Slots.size() * 7)
      rehash(Slots.empty() ? 16 : Slots.size() * 2);
    size_t I = probe(Key);
    if (Slots[I].Used) {
      Slots[I].Value = std::move(Value);
      return false;
    }
    Slots[I].Used = true;
    Slots[I].Key = Key;
    Slots[I].Value = std::move(Value);
    ++Count;
    return true;
  }

  /// Visits every occupied slot as Fn(key, value). Iteration order is
  /// the probe-table order — callers that need a deterministic order
  /// collect and sort. Values whose type reserves a tombstone sentinel
  /// (the snap store's dedup index stores 0 for "erased") are visited
  /// too; the caller filters.
  template <typename F> void forEach(F Fn) const {
    for (const Slot &S : Slots)
      if (S.Used)
        Fn(S.Key, S.Value);
  }

  /// Pointer to the value for \p Key, or nullptr. Invalidated by any
  /// insert that triggers growth.
  V *find(const K &Key) {
    if (Slots.empty())
      return nullptr;
    size_t I = probe(Key);
    return Slots[I].Used ? &Slots[I].Value : nullptr;
  }
  const V *find(const K &Key) const {
    return const_cast<FlatMap *>(this)->find(Key);
  }

private:
  struct Slot {
    bool Used = false;
    K Key{};
    V Value{};
  };

  /// First slot holding \p Key, or the empty slot where it would go.
  size_t probe(const K &Key) const {
    size_t Mask = Slots.size() - 1;
    size_t I = static_cast<size_t>(Hasher{}(Key)) & Mask;
    while (Slots[I].Used && !(Slots[I].Key == Key))
      I = (I + 1) & Mask;
    return I;
  }

  void rehash(size_t NewCap) {
    std::vector<Slot> Old = std::move(Slots);
    Slots = std::vector<Slot>(NewCap);
    Count = 0;
    for (Slot &S : Old)
      if (S.Used)
        insertOrAssign(S.Key, std::move(S.Value));
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

struct U64Hasher {
  uint64_t operator()(uint64_t X) const { return hashU64(X); }
};

/// The common case: 64-bit keys (checksum low words, DAG ids).
template <typename V> using FlatMap64 = FlatMap<uint64_t, V, U64Hasher>;

} // namespace traceback

#endif // TRACEBACK_SUPPORT_FLATMAP_H
