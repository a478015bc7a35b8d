//===- collector/PagedIndex.h - Snap index journal + checkpoint -*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snap store's on-disk index formats, both built on one entry
/// codec: encodeStoreEntry() writes every SnapStoreEntry field, strings
/// and vectors prefixed by varint lengths and counts, and
/// decodeStoreEntry() accepts only an input it consumes exactly.
///
/// The journal (`index.tbx`) is the store's crash-consistent write-ahead
/// record: a TBAR file (distributed/SnapArchive.h) whose frames hold one
/// record each — a JournalRecord kind byte, then the encoded entry (Add)
/// or an entry id varint (Ref, Evict). A crash tears at most the final
/// frame; replay drops it, and a writable open cuts it off before
/// appending, the torn-tail rule of every TBAR file.
///
/// The checkpoint (`index.tbx2`, TBX2 version 4) is a binary,
/// page-structured snapshot of the index that makes open O(tail) instead
/// of O(history). It is a pure accelerator written at close() and
/// compact() time; the journal stays the complete history. Opening a
/// store with a valid checkpoint loads a 4 KiB header, verifies every
/// page's checksum with one sequential streaming pass (no decode, no
/// resident state), and then replays only the journal frames appended
/// after it. A corrupt, torn, or stale checkpoint is simply ignored —
/// open degrades to full journal replay, never to wrong results.
///
/// Checkpoint layout (header and entries little-endian; the fixed-width
/// table rows are host-order words):
///
///   page 0        header: magic "TBX2", version, page size, file size,
///                 entry/live/ref counts, next id, journal coverage
///                 (byte length + FNV of the covered prefix's first and
///                 last 4 KiB), one (offset, length) pair per region,
///                 checksum-table location/hash, header FNV.
///   entry blob    encoded entries, ascending id.
///   entry dir     (id, blob offset, length) triples, ascending id —
///                 binary-searchable through the page cache.
///   key tables    per dimension (module / kind-hash / fingerprint /
///    + postings   machine): sorted (key, posting offset, count) rows,
///                 then the posting ids (ascending entry id) per key.
///   time table    (timestamp, id) pairs sorted ascending — retention
///                 walks and the fan-in time cursor.
///   dedup table   (fingerprint, payload hash, id) rows sorted by key —
///                 the append path's dedup probe, O(log n) page reads.
///   page sums     one 64-bit word-wise checksum per data page (pages
///                 1..tableStart-1; its lane step rotates since version
///                 4); the table itself is covered by an FNV hash in the
///                 header.
///
/// Readers never materialize a region: every access goes through a
/// bounded LRU page cache (instrumented as store.page.{hits,misses,
/// evictions} and the store.bytes_resident gauge), so resident memory
/// is flat in store size.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_COLLECTOR_PAGEDINDEX_H
#define TRACEBACK_COLLECTOR_PAGEDINDEX_H

#include "collector/SnapStore.h"
#include "support/Metrics.h"
#include "triage/Signature.h"

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace traceback {

//===----------------------------------------------------------------------===//
// Entry codec and journal records
//===----------------------------------------------------------------------===//

/// Appends \p E's encoding to \p Out. The checkpoint's entry blob and the
/// journal's Add records hold exactly this.
void encodeStoreEntry(const SnapStoreEntry &E, std::vector<uint8_t> &Out);

/// Decodes an entry that fills exactly \p Len bytes at \p Data.
bool decodeStoreEntry(const uint8_t *Data, size_t Len, SnapStoreEntry &E);

/// The kind byte that opens every journal record.
enum class JournalRecord : uint8_t { Add = 1, Ref = 2, Evict = 3 };

/// One journal frame body: an Add record carrying \p E.
std::vector<uint8_t> journalAddRecord(const SnapStoreEntry &E);

/// One journal frame body: a Ref or Evict record naming entry \p Id.
std::vector<uint8_t> journalIdRecord(JournalRecord Kind, uint64_t Id);

/// Decodes one journal frame body. \p Id is the named entry (the new
/// entry's id for Add); \p E is filled only for Add.
bool decodeJournalRecord(const std::vector<uint8_t> &Body,
                         JournalRecord &Kind, uint64_t &Id,
                         SnapStoreEntry &E);

/// Writes a journal of one Add record per entry to \p Path + ".tmp" and
/// renames it into place. \p NextEntry yields the entries in ascending id
/// order (returning false when exhausted), as for writePagedIndex.
bool writeIndexJournal(const std::string &Path,
                       const std::function<bool(SnapStoreEntry &)> &NextEntry,
                       std::string &Error);

//===----------------------------------------------------------------------===//
// Checkpoint writer
//===----------------------------------------------------------------------===//

/// The checkpoint's fixed page size.
constexpr size_t TbixPageSize = 4096;

/// Posting dimensions a checkpoint indexes, and the indexes of the
/// store's in-memory posting maps. Kind keys are signatureHash(kind) —
/// the residual predicate re-checks the exact string, so a hash collision
/// only widens the candidate list, never the result.
enum class TbixDim : unsigned { Module = 0, Kind = 1, Fingerprint = 2,
                                Machine = 3 };

/// Calls \p Fn(dimension, key) for each posting \p E is listed under:
/// each module's checksum key and name hash, the kind hash, the
/// fingerprint, and the machine id and name hash. The checkpoint's key
/// tables and the store's in-memory postings both derive from it.
template <typename FnT>
void forEachPostingKey(const SnapStoreEntry &E, FnT &&Fn) {
  for (size_t I = 0; I < E.ModuleKeys.size(); ++I) {
    Fn(TbixDim::Module, E.ModuleKeys[I]);
    uint64_t NameKey = signatureHash(E.ModuleNames[I]);
    if (NameKey != E.ModuleKeys[I])
      Fn(TbixDim::Module, NameKey);
  }
  Fn(TbixDim::Kind, signatureHash(E.Kind));
  Fn(TbixDim::Fingerprint, E.Fingerprint);
  Fn(TbixDim::Machine, E.MachineId);
  uint64_t MachKey = signatureHash(E.MachineName);
  if (MachKey != E.MachineId)
    Fn(TbixDim::Machine, MachKey);
}

/// Everything a checkpoint records beyond the entries themselves.
struct PagedIndexHeaderInfo {
  uint64_t NextId = 1;
  uint64_t LiveCount = 0;
  uint64_t LiveBytes = 0;
  uint64_t LiveRefs = 0;     ///< Sum of live entries' refcounts.
  uint64_t JournalBytes = 0; ///< Journal length this checkpoint covers.
  uint64_t JournalHeadHash = 0; ///< FNV of the prefix's first 4 KiB.
  uint64_t JournalTailHash = 0; ///< FNV of the prefix's last 4 KiB.
};

/// One dedup-table row: the live (fingerprint, payload hash) -> id
/// mapping exactly as the store's in-memory probe would answer it. At
/// most one live entry exists per key (dedup folds repeats into a
/// refcount), so the table is derived from the live entries themselves.
struct TbixDedupRow {
  uint64_t Fp = 0, Ph = 0, Id = 0;
};

/// Streams a checkpoint to \p Path + ".tmp" and renames it into place.
/// \p NextEntry yields entries in ascending id order (returning false
/// when exhausted). Posting, time and dedup tables are accumulated
/// during the streaming pass (O(entries) transient memory —
/// checkpointing is a maintenance operation; *opening* one is what
/// stays flat).
bool writePagedIndex(const std::string &Path, const PagedIndexHeaderInfo &H,
                     const std::function<bool(SnapStoreEntry &)> &NextEntry,
                     std::string &Error);

//===----------------------------------------------------------------------===//
// Checkpoint reader
//===----------------------------------------------------------------------===//

/// Instrument sinks the page cache reports into (owned by the store).
struct PageCacheInstruments {
  Counter *Hits = nullptr;
  Counter *Misses = nullptr;
  Counter *Evictions = nullptr;
  Gauge *Resident = nullptr; ///< store.bytes_resident contribution.
};

/// A validated, lazily-read checkpoint. Thread-safe: all page access is
/// serialized through the cache mutex, so const queries of one store may
/// run on several threads at once.
class PagedIndexReader {
public:
  ~PagedIndexReader();

  /// Opens and fully validates \p Path (header hash, checksum-table
  /// hash, every data page's checksum — one streaming pass — and the
  /// journal-coverage hashes against \p JournalPath). Returns null with
  /// \p Why set when anything fails; the caller falls back to full
  /// journal replay.
  static std::unique_ptr<PagedIndexReader>
  open(const std::string &Path, const std::string &JournalPath,
       size_t CacheBytes, const PageCacheInstruments &PI, std::string &Why);

  // Header facts.
  uint64_t entryCount() const { return EntryCount; }
  uint64_t nextId() const { return HdrNextId; }
  uint64_t liveCount() const { return HdrLiveCount; }
  uint64_t liveBytes() const { return HdrLiveBytes; }
  uint64_t liveRefs() const { return HdrLiveRefs; }
  uint64_t journalBytes() const { return HdrJournalBytes; }

  /// Decodes the \p Idx-th entry (directory order = ascending id).
  bool entryByIndex(uint64_t Idx, SnapStoreEntry &Out) const;
  /// Binary-searches the directory for \p Id.
  bool entryById(uint64_t Id, SnapStoreEntry &Out) const;

  /// A located posting list (byte offset of its id array + id count).
  struct PostingRef {
    uint64_t Off = 0;
    uint64_t Count = 0;
  };
  /// Finds \p Key's posting list in dimension \p D. False = no such key
  /// (which proves no checkpoint entry matches it).
  bool findPosting(TbixDim D, uint64_t Key, PostingRef &Out) const;
  uint64_t postingIdAt(const PostingRef &P, uint64_t I) const;

  /// Time table: (timestamp, id) pairs ascending.
  uint64_t timeCount() const { return TimeRows; }
  void timeAt(uint64_t I, uint64_t &Ts, uint64_t &Id) const;

  /// Dedup probe: the checkpoint-time live mapping for (Fp, Ph).
  bool findDedup(uint64_t Fp, uint64_t Ph, uint64_t &IdOut) const;

  /// Bytes currently held by the page cache (≤ the configured cap).
  size_t residentBytes() const;

private:
  PagedIndexReader() = default;

  struct Region {
    uint64_t Off = 0, Len = 0;
  };

  /// Copies [Off, Off+Len) out of the file through the page cache.
  bool read(uint64_t Off, size_t Len, void *Out) const;
  uint64_t readU64(uint64_t Off) const;
  const Region &keyTable(TbixDim D) const;
  const Region &postingRegion(TbixDim D) const;

  std::string Path;
  void *File = nullptr; ///< FILE*, shared under CacheMutex.
  uint64_t FileBytes = 0;

  uint64_t EntryCount = 0, HdrNextId = 1, HdrLiveCount = 0,
           HdrLiveBytes = 0, HdrLiveRefs = 0, HdrJournalBytes = 0;
  uint64_t TimeRows = 0, DedupRows = 0;
  Region EntryBlob, EntryDir, Time, Dedup;
  Region KeyTables[4], Postings[4];

  // Bounded LRU page cache. Pages are raw 4 KiB file chunks; decoded
  // values are never cached (decoding from a resident page is cheap and
  // keeps the bound exact).
  mutable std::mutex CacheMutex;
  struct Page {
    std::vector<uint8_t> Bytes;
    std::list<uint64_t>::iterator LruIt;
  };
  mutable std::unordered_map<uint64_t, Page> Pages;
  mutable std::list<uint64_t> Lru; ///< Front = most recent.
  mutable size_t CachedBytes = 0;
  size_t CacheCap = 0;
  PageCacheInstruments PI;

  const uint8_t *pageLocked(uint64_t PageIdx) const;
};

} // namespace traceback

#endif // TRACEBACK_COLLECTOR_PAGEDINDEX_H
