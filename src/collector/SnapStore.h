//===- collector/SnapStore.h - Indexed, queryable snap store ----*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet collector's persistent snap store: the thing an engineer
/// queries at first-fault time instead of a directory of files loaded
/// whole into memory. A store is a directory of
///
///   shard-NN.tbar   sharded append-only TBAR archives (the payloads)
///   index.tbx       the index journal: a TBAR record log
///   index.tbx2      the paged index checkpoint (optional accelerator)
///
/// The journal is append-only: an Add record holds one ingested snap's
/// index entry (shard/offset/size of the payload plus every queryable
/// key — module checksums and names, fault kind, triage signature
/// fingerprint, machine, time), a Ref record bumps a dedup refcount and
/// an Evict record tombstones a retention victim. Both index files and
/// their shared entry codec live in collector/PagedIndex.h. The journal
/// is the complete, crash-consistent history; a torn final record from a
/// crashed collector is dropped, exactly like a torn TBAR tail, and a
/// writable open cuts it off before appending.
///
/// Opening a store replays the journal — unless a valid checkpoint is
/// present, in which case open validates the checkpoint's page checksums
/// with one streaming pass and replays only the journal tail appended
/// after it. Checkpoint entries are then read on demand through a
/// bounded LRU page cache, so resident index memory stays flat however
/// large the store grows. A corrupt, torn or stale checkpoint is ignored
/// and open degrades to full journal replay — never to wrong results.
/// close() and compact() write a fresh checkpoint.
///
/// Every read walks the two representations, the paged checkpoint and
/// the in-memory tail, one of two ways: in (Timestamp, Id) order or
/// id -> entry. Each walk is written once; cursors, retention and entry()
/// share them.
///
/// Query evaluation is index-only: each predicate dimension keeps a
/// posting list (sorted entry ids per key), the planner starts from the
/// smallest applicable list and filters the residual predicates per
/// entry. Results stream through a cursor in ascending id order —
/// payloads are point-read from their shard on demand and the store is
/// never materialized in memory. scan() runs the same predicates over a
/// full linear walk of the index; the chaos sweeps assert both paths
/// return byte-identical results. timeQuery() streams matches in
/// (Timestamp, Id) order — the per-store leg of tbtool's multi-store
/// fan-in merge.
///
/// Dedup: an image whose (signature fingerprint, payload hash) pair was
/// seen before is stored once and refcounted. Retention: byte and age
/// caps evict live entries in deterministic order — oldest timestamp
/// first, lowest id on ties — so two stores fed the same stream evict
/// the same victims.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_COLLECTOR_SNAPSTORE_H
#define TRACEBACK_COLLECTOR_SNAPSTORE_H

#include "runtime/Snap.h"
#include "support/FlatMap.h"
#include "support/Metrics.h"

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace traceback {

class PagedIndexReader;
class SnapArchiveWriter;

/// One indexed snap: everything a query can match on, plus where the
/// payload lives. This is index metadata only — the image itself stays
/// on disk until loadImage()/loadSnap() point-reads it.
struct SnapStoreEntry {
  uint64_t Id = 0;         ///< Monotonic; stable across compaction.
  uint32_t Shard = 0;      ///< Which shard-NN.tbar holds the payload.
  uint64_t Offset = 0;     ///< Frame offset within the shard.
  uint64_t ImageBytes = 0; ///< Serialized image size.
  /// XXH64 (seed 0) of the image bytes: with Fingerprint the dedup key,
  /// and the shard choice. Entries of stores written before the key
  /// became XXH64 keep their FNV-1a 64 value; no load path checks it.
  uint64_t PayloadHash = 0;
  uint64_t Fingerprint = 0; ///< Header-level triage signature fingerprint.
  std::string Kind;         ///< Signature kind ("fault:<code>@<mod>", ...).
  std::string MachineName;  ///< Producing machine (from the snap header).
  uint64_t MachineId = 0;   ///< Transport source machine id (0 = direct).
  std::string ProcessName;
  uint64_t Pid = 0;
  uint64_t Timestamp = 0;   ///< Capture time (simulated cycles).
  uint16_t Reason = 0;      ///< SnapReason as stored.
  /// Module names, checksum keys (low 64 bits) and instrumented flags,
  /// aligned. All modules are indexed; the instrumented subset rebuilds
  /// the triage signature for query reports.
  std::vector<std::string> ModuleNames;
  std::vector<uint64_t> ModuleKeys;
  std::vector<uint8_t> ModuleInstrumented;
  /// Degradation markers of the header-level signature.
  std::vector<std::string> Markers;
  uint64_t RefCount = 1;    ///< Dedup occurrences folded into this entry.
  bool Dead = false;        ///< Evicted; payload reclaimed at compact().
};

/// Composable query predicates. Every unset dimension matches anything;
/// set dimensions AND together.
struct SnapQuery {
  /// Module predicate: a checksum key (low 64 of the MD5) or a name hash
  /// (signatureHash of the name) — setModule() accepts either spelling.
  bool HasModule = false;
  uint64_t ModuleKey = 0;
  /// Fault-kind predicate (exact signature kind string).
  std::string Kind;
  /// Signature fingerprint predicate.
  bool HasFingerprint = false;
  uint64_t Fingerprint = 0;
  /// Machine predicate: name hash or raw machine id (setMachine()).
  bool HasMachine = false;
  uint64_t MachineKey = 0;
  /// Time window [Since, Until], inclusive, on Timestamp.
  uint64_t Since = 0;
  uint64_t Until = UINT64_MAX;
  /// Stop after this many matches (0 = unlimited).
  size_t Top = 0;

  /// \p NameOrHex: a module name, or a 16-hex-digit checksum key.
  SnapQuery &setModule(const std::string &NameOrHex);
  SnapQuery &setKind(const std::string &K) { Kind = K; return *this; }
  SnapQuery &setFingerprint(uint64_t FP) {
    HasFingerprint = true;
    Fingerprint = FP;
    return *this;
  }
  /// \p NameOrId: a machine name, or a decimal machine id.
  SnapQuery &setMachine(const std::string &NameOrId);
  SnapQuery &setWindow(uint64_t S, uint64_t U) {
    Since = S;
    Until = U;
    return *this;
  }
};

/// Store tuning. Retention caps are enforced at append time.
struct SnapStoreOptions {
  /// Payload shard count; an entry lands in shard (PayloadHash % Shards).
  unsigned Shards = 4;
  /// Live payload byte cap (0 = unbounded). Exceeding it evicts the
  /// oldest live entries until the cap holds again.
  uint64_t MaxBytes = 0;
  /// Age cap in timestamp units relative to the newest live entry
  /// (0 = unbounded): entries older than Newest - MaxAge are evicted.
  uint64_t MaxAge = 0;
  /// Open for query only: the journal is never written or cut, appends
  /// fail, and close() writes no checkpoint.
  bool ReadOnly = false;
  /// Checkpoint page-cache cap in bytes (the resident-memory bound of a
  /// paged store's index). Clamped to at least two pages.
  size_t PageCacheBytes = 2u << 20;
  /// Destination of the "collector.store." instrument family
  /// (null = the process-global registry).
  MetricsRegistry *Metrics = nullptr;
};

/// The indexed, queryable snap store.
class SnapStore {
  /// A position in the (Timestamp, Id) order over checkpoint + tail: the
  /// rows consumed of the checkpoint's time table and of the tail's
  /// ByTime, each counted from the end the walk starts at.
  struct TimePos {
    uint64_t Ck = 0;
    size_t Tail = 0;
  };

public:
  SnapStore();
  ~SnapStore();
  SnapStore(const SnapStore &) = delete;
  SnapStore &operator=(const SnapStore &) = delete;

  /// Opens the store directory and loads the index — checkpoint +
  /// journal tail when a valid checkpoint is present, full journal replay
  /// otherwise. A writable open creates the directory if needed; a
  /// read-only open writes nothing and fails when it is missing (an
  /// existing directory with no journal is a valid empty store). Returns
  /// false with \p Error set on a missing read-only directory, malformed
  /// index data or I/O failure.
  bool open(const std::string &Dir, const SnapStoreOptions &O,
            std::string &Error);
  bool isOpen() const { return Open; }
  const std::string &directory() const { return Dir; }
  /// True when this open used a valid checkpoint (index entries are paged
  /// from disk on demand).
  bool openedPaged() const { return Ck != nullptr; }
  /// Writes a fresh checkpoint (writable, dirty stores), flushes and
  /// closes; the store can be reopened.
  void close();

  /// What one append did.
  struct AppendResult {
    uint64_t Id = 0;     ///< The entry appended to or refcounted.
    bool Deduped = false;
    size_t Evicted = 0;  ///< Entries retention evicted as a consequence.
  };

  /// Ingests one serialized snap image. Parses the header, extracts the
  /// header-level triage signature (the fingerprint index key), dedups,
  /// appends the payload to its shard, journals the index record and
  /// enforces retention. \p SrcMachineId is the transport source (0 when
  /// the snap arrived by direct delivery). Returns false on I/O failure
  /// or an unparsable image.
  bool append(const std::vector<uint8_t> &Image, uint64_t SrcMachineId,
              AppendResult &Out, std::string *Error = nullptr);

  /// Serializes \p Snap (current format) and appends it.
  bool appendSnap(const SnapFile &Snap, uint64_t SrcMachineId,
                  AppendResult &Out, std::string *Error = nullptr);

  // --- Query ---------------------------------------------------------------

  /// Streams matching entries in ascending id order without ever
  /// materializing the store: next() returns index metadata; payloads
  /// are fetched per entry via loadImage()/loadSnap().
  class Cursor {
  public:
    /// The next live matching entry, or null when exhausted (or the
    /// query's Top cap is reached). On paged stores the pointer may
    /// reference cursor-owned scratch storage: it stays valid until the
    /// following next() call.
    const SnapStoreEntry *next();

  private:
    friend class SnapStore;
    /// A scan cursor: every checkpoint entry, then every tail entry.
    Cursor(const SnapStore &S, SnapQuery Q)
        : S(S), Q(std::move(Q)), CkStage(S.Ck != nullptr) {}
    const SnapStore &S;
    SnapQuery Q;
    /// Stage 1 (paged stores): checkpoint entries — either one posting
    /// list (byte offset + id count into the checkpoint) or a full
    /// directory walk. Checkpoint ids all precede tail ids, so the two
    /// stages concatenate into ascending id order.
    bool CkStage = false;
    bool CkPosting = false;
    uint64_t CkPostOff = 0, CkPostCount = 0;
    uint64_t CkPos = 0;
    /// Stage 2: the in-memory tail. Null posting = walk every entry.
    const std::vector<uint64_t> *Posting = nullptr;
    size_t Pos = 0;
    /// Decode target for checkpoint entries.
    SnapStoreEntry Scratch;
    size_t Returned = 0;
  };

  /// Indexed query: starts from the smallest applicable posting list.
  Cursor query(const SnapQuery &Q) const;
  /// Full linear scan with identical predicate semantics — the oracle
  /// the sweeps compare query() against.
  Cursor scan(const SnapQuery &Q) const;

  /// Streams matching entries in global (Timestamp, Id) ascending order
  /// by merging the checkpoint's time table with the tail's — the
  /// per-store leg of a multi-store fan-in merge.
  class TimeCursor {
  public:
    /// Next match in (Timestamp, Id) order; pointer valid until the
    /// following next() call.
    const SnapStoreEntry *next();

  private:
    friend class SnapStore;
    TimeCursor(const SnapStore &S, SnapQuery Q) : S(S), Q(std::move(Q)) {}
    const SnapStore &S;
    SnapQuery Q;
    TimePos Pos;
    SnapStoreEntry Scratch;
    size_t Returned = 0;
  };
  TimeCursor timeQuery(const SnapQuery &Q) const;

  /// Copies entry \p Id into \p Out; false when the id is unknown. Dead
  /// entries are still returned — callers filter on Dead when they care.
  bool entry(uint64_t Id, SnapStoreEntry &Out) const;

  /// Point-reads one payload image from its shard.
  bool loadImage(const SnapStoreEntry &E, std::vector<uint8_t> &Out) const;
  /// loadImage + deserialize.
  bool loadSnap(const SnapStoreEntry &E, SnapFile &Out) const;

  // --- Maintenance ---------------------------------------------------------

  /// Rewrites every shard without dead entries, replaces the journal
  /// with a clean snapshot and writes a fresh checkpoint. Ids, order and
  /// live contents are preserved, so two stores with equal live state
  /// compact to identical bytes. Paged stores materialize the checkpoint
  /// into memory first (compaction is the O(n) maintenance operation).
  /// Returns false with \p Error on I/O failure.
  bool compact(std::string *Error = nullptr);

  // --- Stats ---------------------------------------------------------------

  size_t totalEntries() const;
  size_t liveEntries() const { return LiveCount; }
  uint64_t liveBytes() const { return LiveBytes; }
  uint64_t totalRefs() const;
  uint64_t dedupHits() const { return DedupHitCount; }
  uint64_t evictions() const { return EvictionCount; }
  unsigned shardCount() const { return Opt.Shards; }
  /// Bytes the checkpoint page cache holds right now (0 when unpaged) —
  /// the index's resident footprint, bounded by PageCacheBytes.
  size_t pageCacheResidentBytes() const;

private:
  struct Shard;

  std::string shardPath(uint32_t Index) const;
  std::string indexPath() const;
  std::string checkpointPath() const;
  /// Replays the journal (the tail past the checkpoint, when there is
  /// one); a writable open then cuts a torn final record off.
  bool replayJournal(std::string &Error);
  /// Applies one journal record body; false when it is malformed.
  bool replayRecord(const std::vector<uint8_t> &Body);
  /// Appends and flushes one journal record body.
  bool journalRecord(const std::vector<uint8_t> &Body);
  void indexEntry(const SnapStoreEntry &E);
  /// Rebuilds ById, the postings, ByTime, the dedup map and the live
  /// totals from Entries alone (no entries: empties them).
  void reindex();
  /// Folds one more occurrence into entry \p Id (tail or checkpoint;
  /// \p Live: the entry is live).
  void addRef(uint64_t Id, bool Live);
  /// Marks \p E, as resolve() returned it, dead wherever it lives.
  void markDead(const SnapStoreEntry &E);
  /// Tombstones the dedup mapping for \p Key when it points at the dying
  /// entry — including a mapping only the checkpoint's table knows.
  void dedupTombstone(uint64_t Fp, uint64_t Ph, uint64_t DyingId);
  /// Folds the tail's refcount deltas and eviction tombstones into a
  /// decoded checkpoint entry.
  void applyCkAdjust(SnapStoreEntry &E) const;
  bool readCkEntryAt(uint64_t Idx, SnapStoreEntry &Out) const;
  /// Id -> entry: the tail slot, or the checkpoint entry decoded into
  /// \p Scratch with the tail's adjustments. Null when the id is unknown.
  const SnapStoreEntry *resolve(uint64_t Id, SnapStoreEntry &Scratch) const;
  /// Steps \p P one row along the (Timestamp, Id) order over checkpoint +
  /// tail, from the oldest or (\p Backward) from the newest, and sets
  /// \p Row to that row. False when both sides are exhausted.
  bool stepTime(TimePos &P, bool Backward,
                std::pair<uint64_t, uint64_t> &Row) const;
  /// Folds checkpoint + tail into plain in-memory state (paged stores
  /// only) — the first step of compact().
  bool materializeFromCheckpoint(std::string *Error);
  /// Writes a fresh checkpoint covering the current journal.
  bool writeCheckpoint();
  /// Evicts until the byte/age caps hold. Returns how many were evicted.
  size_t enforceRetention();
  /// True when \p E matches every predicate of \p Q.
  static bool matches(const SnapStoreEntry &E, const SnapQuery &Q);

  std::string Dir;
  SnapStoreOptions Opt;
  bool Open = false;

  // The in-memory index. In unpaged mode this is the whole store; in
  // paged mode it is only the tail — entries appended after the
  // checkpoint (their ids all exceed the checkpoint's).
  std::vector<SnapStoreEntry> Entries; ///< Ascending id.
  std::map<uint64_t, size_t> ById;     ///< Id -> slot in Entries.
  uint64_t NextId = 1;

  // Posting lists (sorted ascending entry ids per key), one map per
  // TbixDim under the checkpoint's keys (forEachPostingKey). Dead entries
  // stay listed; cursors filter them — eviction is O(1) and compaction
  // rebuilds everything anyway.
  std::map<uint64_t, std::vector<uint64_t>> Postings[4];
  /// (Timestamp, Id), sorted — the age-cap walk and pure-time queries.
  std::vector<std::pair<uint64_t, uint64_t>> ByTime;

  /// (Fingerprint, PayloadHash) -> live entry id, open-addressed. Ids
  /// start at 1, so value 0 is the erase tombstone (FlatMap has no
  /// erase) — and in paged mode a tombstone also shadows the checkpoint
  /// dedup table, recording "this key's holder died after checkpoint".
  struct DedupKey {
    uint64_t Fp = 0, Ph = 0;
    bool operator==(const DedupKey &O) const {
      return Fp == O.Fp && Ph == O.Ph;
    }
  };
  struct DedupKeyHasher {
    uint64_t operator()(const DedupKey &K) const {
      return hashCombine(hashU64(K.Fp), hashU64(K.Ph));
    }
  };
  FlatMap<DedupKey, uint64_t, DedupKeyHasher> DedupByKey;

  // Paged-mode state: the validated checkpoint reader plus the deltas
  // the journal tail applied on top of it.
  std::unique_ptr<PagedIndexReader> Ck;
  std::set<uint64_t> DeadCk;                ///< Ck entries evicted post-ck.
  std::map<uint64_t, uint64_t> RefDeltaCk;  ///< Post-ck refcount bumps.
  uint64_t CkRefsLive = 0; ///< Live refs held by checkpoint entries.
  /// Anything journaled since open (close() skips the checkpoint
  /// rewrite when the existing one is still current).
  bool Dirty = false;

  std::vector<std::unique_ptr<Shard>> Shards;
  std::unique_ptr<SnapArchiveWriter> Journal; ///< Writable stores only.

  size_t LiveCount = 0;
  uint64_t LiveBytes = 0;
  uint64_t DedupHitCount = 0;
  uint64_t EvictionCount = 0;

  struct Instruments {
    Counter *Appends = nullptr;
    Counter *DedupHits = nullptr;
    Counter *Evictions = nullptr;
    Counter *Queries = nullptr;
    Counter *PointReads = nullptr;
    Gauge *LiveEntriesG = nullptr;
    Gauge *LiveBytesG = nullptr;
  };
  Instruments SM;
};

} // namespace traceback

#endif // TRACEBACK_COLLECTOR_SNAPSTORE_H
