//===- collector/SnapStore.cpp - Indexed, queryable snap store ------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "collector/SnapStore.h"

#include "collector/PagedIndex.h"
#include "distributed/SnapArchive.h"
#include "support/Hash.h"
#include "triage/Signature.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>

using namespace traceback;
namespace fs = std::filesystem;

/// True when all of \p S spells one unsigned integer in \p Base.
static bool parseWhole(const std::string &S, uint64_t &Out, int Base) {
  const char *End = S.data() + S.size();
  std::from_chars_result R = std::from_chars(S.data(), End, Out, Base);
  return R.ec == std::errc() && R.ptr == End;
}

//===----------------------------------------------------------------------===//
// SnapQuery
//===----------------------------------------------------------------------===//

SnapQuery &SnapQuery::setModule(const std::string &NameOrHex) {
  HasModule = true;
  uint64_t Key = 0;
  if (NameOrHex.size() == 16 && parseWhole(NameOrHex, Key, 16))
    ModuleKey = Key; // A checksum key spelled as 16 hex digits.
  else
    ModuleKey = signatureHash(NameOrHex);
  return *this;
}

SnapQuery &SnapQuery::setMachine(const std::string &NameOrId) {
  HasMachine = true;
  uint64_t Id = 0;
  if (parseWhole(NameOrId, Id, 10))
    MachineKey = Id; // A raw transport machine id.
  else
    MachineKey = signatureHash(NameOrId);
  return *this;
}

//===----------------------------------------------------------------------===//
// SnapStore
//===----------------------------------------------------------------------===//

struct SnapStore::Shard {
  SnapArchiveWriter W;
};

SnapStore::SnapStore() = default;
SnapStore::~SnapStore() { close(); }

std::string SnapStore::shardPath(uint32_t Index) const {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "/shard-%02u.tbar", Index);
  return Dir + Buf;
}

std::string SnapStore::indexPath() const { return Dir + "/index.tbx"; }

std::string SnapStore::checkpointPath() const { return Dir + "/index.tbx2"; }

bool SnapStore::open(const std::string &Directory, const SnapStoreOptions &O,
                     std::string &Error) {
  close();
  Dir = Directory;
  Opt = O;
  if (Opt.Shards == 0)
    Opt.Shards = 1;

  // A read-only open writes nothing, not even the directory.
  std::error_code EC;
  if (Opt.ReadOnly) {
    if (!fs::is_directory(Dir, EC)) {
      Error = "no such store directory: " + Dir;
      return false;
    }
  } else {
    fs::create_directories(Dir, EC);
    if (EC) {
      Error = "cannot create store directory: " + Dir;
      return false;
    }
  }

  MetricsRegistry &R = Opt.Metrics ? *Opt.Metrics : MetricsRegistry::global();
  SM.Appends = &R.counter("collector.store.appends");
  SM.DedupHits = &R.counter("collector.store.dedup_hits");
  SM.Evictions = &R.counter("collector.store.evictions");
  SM.Queries = &R.counter("collector.store.queries");
  SM.PointReads = &R.counter("collector.store.point_reads");
  SM.LiveEntriesG = &R.gauge("collector.store.live_entries");
  SM.LiveBytesG = &R.gauge("collector.store.live_bytes");

  // Try the checkpoint first. Any validation failure returns null and we
  // fall back to replaying the whole journal — the journal is the
  // complete history, so the fallback is always correct.
  PageCacheInstruments PCI;
  PCI.Hits = &R.counter("collector.store.page.hits");
  PCI.Misses = &R.counter("collector.store.page.misses");
  PCI.Evictions = &R.counter("collector.store.page.evictions");
  PCI.Resident = &R.gauge("store.bytes_resident");
  std::string Why;
  Ck = PagedIndexReader::open(checkpointPath(), indexPath(),
                              Opt.PageCacheBytes, PCI, Why);
  if (Ck) {
    NextId = Ck->nextId();
    LiveCount = static_cast<size_t>(Ck->liveCount());
    LiveBytes = Ck->liveBytes();
    CkRefsLive = Ck->liveRefs();
  }

  if (!replayJournal(Error)) {
    close();
    return false;
  }

  // An open that could not use a checkpoint is dirty by definition: a
  // close() should leave one behind for the next open. A paged open is
  // clean until something is journaled.
  Dirty = Ck == nullptr;

  if (!Opt.ReadOnly) {
    for (unsigned I = 0; I < Opt.Shards; ++I) {
      auto S = std::make_unique<Shard>();
      if (!S->W.open(shardPath(I))) {
        Error = "cannot open shard: " + shardPath(I);
        close();
        return false;
      }
      Shards.push_back(std::move(S));
    }
    // A fresh journal starts with the TBAR file header.
    Journal = std::make_unique<SnapArchiveWriter>();
    if (!Journal->open(indexPath())) {
      Error = "cannot open index journal: " + indexPath();
      close();
      return false;
    }
  }

  Open = true;
  SM.LiveEntriesG->set(static_cast<int64_t>(LiveCount));
  SM.LiveBytesG->set(static_cast<int64_t>(LiveBytes));
  return true;
}

void SnapStore::close() {
  if (Open && !Opt.ReadOnly && Dirty) {
    Journal->flush();
    writeCheckpoint();
  }
  Journal.reset();
  Shards.clear(); // Writer destructors close the files.
  Entries.clear();
  reindex();
  Ck.reset();
  DeadCk.clear();
  RefDeltaCk.clear();
  CkRefsLive = 0;
  Dirty = false;
  NextId = 1;
  DedupHitCount = 0;
  EvictionCount = 0;
  Open = false;
}

bool SnapStore::replayJournal(std::string &Error) {
  std::error_code EC;
  if (!fs::exists(indexPath(), EC))
    return true; // A store with no index yet is a valid empty store.

  // Stream the records: the journal is replayed without ever holding the
  // whole file. A paged open starts at the first record the checkpoint
  // does not cover; the reader checks the file header either way.
  SnapArchiveReader R;
  if (R.open(indexPath(), Ck ? Ck->journalBytes() : 0)) {
    std::vector<uint8_t> Body;
    uint64_t Frame = 0;
    while (R.next(Frame, &Body)) {
      if (!replayRecord(Body)) {
        Error = "malformed index journal record at byte " +
                std::to_string(Frame) + ": " + indexPath();
        return false;
      }
    }
    if (R.end() == SnapArchiveReader::End::Corrupt) {
      Error = "malformed index journal at byte " +
              std::to_string(R.intactEnd()) + ": " + indexPath();
      return false;
    }
  } else if (R.end() != SnapArchiveReader::End::TornTail) {
    Error = "index journal is not a TBAR record log (TBIX v1 text journals "
            "are not read): " + indexPath();
    return false;
  }

  // A torn final record (or a header whose first write never completed)
  // is a crashed collector's tail: replay dropped it, and a writable
  // open cuts it off so the next record starts where the last intact one
  // ended.
  if (R.end() == SnapArchiveReader::End::TornTail && !Opt.ReadOnly) {
    fs::resize_file(indexPath(), R.intactEnd(), EC);
    if (EC) {
      Error = "cannot cut the torn index journal tail: " + indexPath();
      return false;
    }
  }
  return true;
}

bool SnapStore::replayRecord(const std::vector<uint8_t> &Body) {
  JournalRecord Kind = JournalRecord::Add;
  uint64_t Id = 0;
  SnapStoreEntry E;
  if (!decodeJournalRecord(Body, Kind, Id, E))
    return false;
  if (Kind == JournalRecord::Add) {
    // Ids ascend through the journal, past every checkpoint id.
    if (Id < NextId)
      return false;
    NextId = Id + 1;
    ById[Id] = Entries.size();
    Entries.push_back(std::move(E));
    indexEntry(Entries.back());
    return true;
  }
  // A Ref or Evict record names a tail entry or a checkpoint entry.
  const SnapStoreEntry *Target = resolve(Id, E);
  if (!Target)
    return false;
  if (Kind == JournalRecord::Ref)
    addRef(Id, !Target->Dead);
  else
    markDead(*Target);
  return true;
}

bool SnapStore::journalRecord(const std::vector<uint8_t> &Body) {
  if (!Journal || !Journal->append(Body) || !Journal->flush())
    return false;
  Dirty = true;
  return true;
}

void SnapStore::indexEntry(const SnapStoreEntry &E) {
  uint64_t Id = E.Id;
  forEachPostingKey(E, [this, Id](TbixDim D, uint64_t Key) {
    Postings[static_cast<unsigned>(D)][Key].push_back(Id);
  });
  auto At = std::upper_bound(ByTime.begin(), ByTime.end(),
                             std::make_pair(E.Timestamp, E.Id));
  ByTime.insert(At, {E.Timestamp, E.Id});
  if (!E.Dead) {
    DedupByKey.insertOrAssign(DedupKey{E.Fingerprint, E.PayloadHash}, E.Id);
    ++LiveCount;
    LiveBytes += E.ImageBytes;
  }
}

void SnapStore::reindex() {
  ById.clear();
  for (auto &P : Postings)
    P.clear();
  ByTime.clear();
  DedupByKey.clear();
  LiveCount = 0;
  LiveBytes = 0;
  for (size_t I = 0; I < Entries.size(); ++I) {
    ById[Entries[I].Id] = I;
    indexEntry(Entries[I]);
  }
}

void SnapStore::addRef(uint64_t Id, bool Live) {
  auto Slot = ById.find(Id);
  if (Slot != ById.end()) {
    ++Entries[Slot->second].RefCount;
    return;
  }
  // A checkpoint entry: record the bump as a delta on top of it.
  ++RefDeltaCk[Id];
  if (Live)
    ++CkRefsLive;
}

void SnapStore::markDead(const SnapStoreEntry &E) {
  if (E.Dead)
    return;
  auto Slot = ById.find(E.Id);
  if (Slot != ById.end()) {
    Entries[Slot->second].Dead = true;
  } else {
    DeadCk.insert(E.Id);
    CkRefsLive -= E.RefCount; // E is adjusted: deltas already folded in.
  }
  --LiveCount;
  LiveBytes -= E.ImageBytes;
  dedupTombstone(E.Fingerprint, E.PayloadHash, E.Id);
}

void SnapStore::dedupTombstone(uint64_t Fp, uint64_t Ph, uint64_t DyingId) {
  DedupKey K{Fp, Ph};
  if (uint64_t *V = DedupByKey.find(K)) {
    if (*V == DyingId)
      *V = 0; // Tombstone: FlatMap has no erase; 0 is never a valid id.
    return;
  }
  // No tail mapping: the dying entry may still be reachable through the
  // checkpoint's dedup table. A tombstone in the tail map shadows it.
  if (Ck) {
    uint64_t CkId = 0;
    if (Ck->findDedup(Fp, Ph, CkId) && CkId == DyingId)
      DedupByKey.insertOrAssign(K, 0);
  }
}

void SnapStore::applyCkAdjust(SnapStoreEntry &E) const {
  auto It = RefDeltaCk.find(E.Id);
  if (It != RefDeltaCk.end())
    E.RefCount += It->second;
  if (DeadCk.count(E.Id))
    E.Dead = true;
}

bool SnapStore::readCkEntryAt(uint64_t Idx, SnapStoreEntry &Out) const {
  if (!Ck || !Ck->entryByIndex(Idx, Out))
    return false;
  applyCkAdjust(Out);
  return true;
}

const SnapStoreEntry *SnapStore::resolve(uint64_t Id,
                                         SnapStoreEntry &Scratch) const {
  // Checkpoint ids all precede the tail's, which start at its NextId.
  if (Ck && Id < Ck->nextId()) {
    if (!Ck->entryById(Id, Scratch))
      return nullptr;
    applyCkAdjust(Scratch);
    return &Scratch;
  }
  auto Slot = ById.find(Id);
  return Slot == ById.end() ? nullptr : &Entries[Slot->second];
}

bool SnapStore::stepTime(TimePos &P, bool Backward,
                         std::pair<uint64_t, uint64_t> &Row) const {
  // The checkpoint's time table and the tail's ByTime are each sorted by
  // (timestamp, id) and hold disjoint ids; a two-pointer merge walks the
  // union in exactly the order an unpaged store's ByTime holds it.
  uint64_t CkN = Ck ? Ck->timeCount() : 0;
  size_t TailN = ByTime.size();
  bool HaveCk = P.Ck < CkN, HaveTail = P.Tail < TailN;
  if (!HaveCk && !HaveTail)
    return false;
  std::pair<uint64_t, uint64_t> CkRow, TailRow;
  if (HaveCk)
    Ck->timeAt(Backward ? CkN - 1 - P.Ck : P.Ck, CkRow.first, CkRow.second);
  if (HaveTail)
    TailRow = ByTime[Backward ? TailN - 1 - P.Tail : P.Tail];
  bool TakeCk = HaveCk && (!HaveTail || (Backward ? TailRow < CkRow
                                                  : CkRow < TailRow));
  if (TakeCk) {
    Row = CkRow;
    ++P.Ck;
  } else {
    Row = TailRow;
    ++P.Tail;
  }
  return true;
}

size_t SnapStore::enforceRetention() {
  if (Opt.MaxBytes == 0 && Opt.MaxAge == 0)
    return 0;
  SnapStoreEntry Scratch;
  std::pair<uint64_t, uint64_t> Row;
  uint64_t NewestTs = 0;
  if (Opt.MaxAge != 0) {
    // Newest live timestamp anchors the age horizon; the newest end may
    // be dead, so walk backwards to the first live entry.
    TimePos P;
    while (stepTime(P, /*Backward=*/true, Row)) {
      const SnapStoreEntry *E = resolve(Row.second, Scratch);
      if (E && !E->Dead) {
        NewestTs = Row.first;
        break;
      }
    }
  }
  size_t Evicted = 0;
  // Deterministic victim order: oldest timestamp first, lowest id on
  // ties — the merged (timestamp, id) order, front to back.
  TimePos P;
  while (stepTime(P, /*Backward=*/false, Row)) {
    bool OverBytes = Opt.MaxBytes != 0 && LiveBytes > Opt.MaxBytes;
    bool OverAge = Opt.MaxAge != 0 && NewestTs > Opt.MaxAge &&
                   Row.first < NewestTs - Opt.MaxAge;
    if (!OverBytes && !OverAge)
      break;
    if (DeadCk.count(Row.second))
      continue; // An evicted checkpoint entry: skip its decode.
    const SnapStoreEntry *E = resolve(Row.second, Scratch);
    if (!E || E->Dead)
      continue;
    markDead(*E);
    journalRecord(journalIdRecord(JournalRecord::Evict, Row.second));
    ++Evicted;
  }
  if (Evicted) {
    EvictionCount += Evicted;
    SM.Evictions->add(Evicted);
  }
  return Evicted;
}

bool SnapStore::append(const std::vector<uint8_t> &Image,
                       uint64_t SrcMachineId, AppendResult &Out,
                       std::string *Error) {
  Out = AppendResult();
  if (!Open || Opt.ReadOnly) {
    if (Error)
      *Error = "store is not open for writing";
    return false;
  }

  SnapFile Header;
  if (!SnapFile::deserializeHeader(Image, Header)) {
    if (Error)
      *Error = "unparsable snap image";
    return false;
  }
  FaultSignature Sig = extractSignature(Header);

  uint64_t PH = hash64(Image.data(), Image.size(), 0);
  uint64_t FP = Sig.fingerprint();

  SM.Appends->add();

  // Dedup: same fingerprint + same payload bytes → refcount the entry we
  // already stored. The tail map answers first (a 0 tombstone means the
  // key's holder died — including a holder only the checkpoint's table
  // knows about); otherwise the checkpoint's dedup table is probed.
  DedupKey K{FP, PH};
  uint64_t HitId = 0;
  if (const uint64_t *V = DedupByKey.find(K)) {
    HitId = *V;
  } else if (Ck) {
    uint64_t CkId = 0;
    if (Ck->findDedup(FP, PH, CkId) && !DeadCk.count(CkId))
      HitId = CkId;
  }
  if (HitId != 0) {
    addRef(HitId, /*Live=*/true);
    ++DedupHitCount;
    SM.DedupHits->add();
    if (!journalRecord(journalIdRecord(JournalRecord::Ref, HitId))) {
      if (Error)
        *Error = "index journal write failed";
      return false;
    }
    Out.Id = HitId;
    Out.Deduped = true;
    return true;
  }

  SnapStoreEntry E;
  E.Id = NextId++;
  E.Shard = static_cast<uint32_t>(PH % Opt.Shards);
  E.ImageBytes = Image.size();
  E.PayloadHash = PH;
  E.Fingerprint = FP;
  E.Kind = Sig.Kind;
  E.MachineName = Header.MachineName;
  E.MachineId = SrcMachineId;
  E.ProcessName = Header.ProcessName;
  E.Pid = Header.Pid;
  E.Timestamp = Header.Timestamp;
  E.Reason = static_cast<uint16_t>(Header.Reason);
  for (const SnapModuleInfo &M : Header.Modules) {
    E.ModuleNames.push_back(M.Name);
    E.ModuleKeys.push_back(M.Checksum.low64());
    E.ModuleInstrumented.push_back(M.Instrumented);
  }
  E.Markers = Sig.Markers;

  Shard &S = *Shards[E.Shard];
  E.Offset = S.W.tell();
  if (!S.W.append(Image) || !S.W.flush()) {
    if (Error)
      *Error = "shard append failed: " + shardPath(E.Shard);
    return false;
  }
  if (!journalRecord(journalAddRecord(E))) {
    if (Error)
      *Error = "index journal write failed";
    return false;
  }

  ById[E.Id] = Entries.size();
  Entries.push_back(std::move(E));
  indexEntry(Entries.back());
  Out.Id = Entries.back().Id;

  Out.Evicted = enforceRetention();
  SM.LiveEntriesG->set(static_cast<int64_t>(LiveCount));
  SM.LiveBytesG->set(static_cast<int64_t>(LiveBytes));
  return true;
}

bool SnapStore::appendSnap(const SnapFile &Snap, uint64_t SrcMachineId,
                           AppendResult &Out, std::string *Error) {
  return append(Snap.serialize(), SrcMachineId, Out, Error);
}

//===----------------------------------------------------------------------===//
// Query
//===----------------------------------------------------------------------===//

bool SnapStore::matches(const SnapStoreEntry &E, const SnapQuery &Q) {
  if (E.Dead)
    return false;
  if (Q.HasModule) {
    bool Any = false;
    for (size_t I = 0; I < E.ModuleKeys.size() && !Any; ++I)
      Any = E.ModuleKeys[I] == Q.ModuleKey ||
            signatureHash(E.ModuleNames[I]) == Q.ModuleKey;
    if (!Any)
      return false;
  }
  if (!Q.Kind.empty() && E.Kind != Q.Kind)
    return false;
  if (Q.HasFingerprint && E.Fingerprint != Q.Fingerprint)
    return false;
  if (Q.HasMachine && E.MachineId != Q.MachineKey &&
      signatureHash(E.MachineName) != Q.MachineKey)
    return false;
  if (E.Timestamp < Q.Since || E.Timestamp > Q.Until)
    return false;
  return true;
}

SnapStore::Cursor SnapStore::query(const SnapQuery &Q) const {
  SM.Queries->add();
  Cursor C(*this, Q);
  // Each set dimension offers its checkpoint + tail posting pair; the
  // smallest candidate total wins, the first dimension on ties. A key
  // that half (checkpoint or tail) never indexed proves it empty. With no
  // set dimension the cursor stays a scan.
  static const std::vector<uint64_t> Empty;
  struct DimKey {
    bool Set;
    TbixDim D;
    uint64_t Key;
  };
  const DimKey Dims[] = {
      {Q.HasFingerprint, TbixDim::Fingerprint, Q.Fingerprint},
      {Q.HasModule, TbixDim::Module, Q.ModuleKey},
      {Q.HasMachine, TbixDim::Machine, Q.MachineKey},
      {!Q.Kind.empty(), TbixDim::Kind, signatureHash(Q.Kind)}};
  bool Planned = false;
  uint64_t BestTotal = 0;
  for (const DimKey &DK : Dims) {
    if (!DK.Set)
      continue;
    const auto &Map = Postings[static_cast<unsigned>(DK.D)];
    auto It = Map.find(DK.Key);
    const std::vector<uint64_t> *Tail = It == Map.end() ? &Empty : &It->second;
    PagedIndexReader::PostingRef PR;
    bool HasCk = Ck && Ck->findPosting(DK.D, DK.Key, PR);
    uint64_t Total = (HasCk ? PR.Count : 0) + Tail->size();
    if (Planned && Total >= BestTotal)
      continue;
    Planned = true;
    BestTotal = Total;
    C.CkStage = HasCk;
    C.CkPosting = true;
    C.CkPostOff = HasCk ? PR.Off : 0;
    C.CkPostCount = HasCk ? PR.Count : 0;
    C.Posting = Tail;
  }
  return C;
}

SnapStore::Cursor SnapStore::scan(const SnapQuery &Q) const {
  SM.Queries->add();
  return Cursor(*this, Q);
}

const SnapStoreEntry *SnapStore::Cursor::next() {
  if (Q.Top != 0 && Returned >= Q.Top)
    return nullptr;
  while (CkStage) {
    const SnapStoreEntry *E = nullptr;
    if (CkPosting) {
      if (CkPos >= CkPostCount) {
        CkStage = false;
        break;
      }
      PagedIndexReader::PostingRef PR{CkPostOff, CkPostCount};
      E = S.resolve(S.Ck->postingIdAt(PR, CkPos++), Scratch);
    } else {
      if (CkPos >= S.Ck->entryCount()) {
        CkStage = false;
        break;
      }
      if (S.readCkEntryAt(CkPos++, Scratch))
        E = &Scratch;
    }
    if (E && SnapStore::matches(*E, Q)) {
      ++Returned;
      return E;
    }
  }
  if (Posting) {
    while (Pos < Posting->size()) {
      const SnapStoreEntry *E = S.resolve((*Posting)[Pos++], Scratch);
      if (E && SnapStore::matches(*E, Q)) {
        ++Returned;
        return E;
      }
    }
    return nullptr;
  }
  while (Pos < S.Entries.size()) {
    const SnapStoreEntry *E = &S.Entries[Pos++];
    if (SnapStore::matches(*E, Q)) {
      ++Returned;
      return E;
    }
  }
  return nullptr;
}

SnapStore::TimeCursor SnapStore::timeQuery(const SnapQuery &Q) const {
  SM.Queries->add();
  return TimeCursor(*this, Q);
}

const SnapStoreEntry *SnapStore::TimeCursor::next() {
  if (Q.Top != 0 && Returned >= Q.Top)
    return nullptr;
  std::pair<uint64_t, uint64_t> Row;
  while (S.stepTime(Pos, /*Backward=*/false, Row)) {
    const SnapStoreEntry *E = S.resolve(Row.second, Scratch);
    if (E && SnapStore::matches(*E, Q)) {
      ++Returned;
      return E;
    }
  }
  return nullptr;
}

bool SnapStore::entry(uint64_t Id, SnapStoreEntry &Out) const {
  const SnapStoreEntry *E = resolve(Id, Out);
  if (E && E != &Out)
    Out = *E;
  return E != nullptr;
}

bool SnapStore::loadImage(const SnapStoreEntry &E,
                          std::vector<uint8_t> &Out) const {
  SM.PointReads->add();
  return SnapArchive::readImageAt(shardPath(E.Shard), E.Offset, E.ImageBytes,
                                  Out);
}

bool SnapStore::loadSnap(const SnapStoreEntry &E, SnapFile &Out) const {
  std::vector<uint8_t> Image;
  return loadImage(E, Image) && SnapFile::deserialize(Image, Out);
}

//===----------------------------------------------------------------------===//
// Compaction and checkpointing
//===----------------------------------------------------------------------===//

bool SnapStore::materializeFromCheckpoint(std::string *Error) {
  if (!Ck)
    return true;
  std::vector<SnapStoreEntry> All;
  All.reserve(static_cast<size_t>(Ck->entryCount()) + Entries.size());
  for (uint64_t I = 0, N = Ck->entryCount(); I < N; ++I) {
    SnapStoreEntry E;
    if (!readCkEntryAt(I, E)) {
      if (Error)
        *Error = "checkpoint entry read failed";
      return false;
    }
    All.push_back(std::move(E));
  }
  for (SnapStoreEntry &E : Entries)
    All.push_back(std::move(E));
  Entries = std::move(All);
  Ck.reset();
  DeadCk.clear();
  RefDeltaCk.clear();
  CkRefsLive = 0;
  reindex();
  return true;
}

bool SnapStore::writeCheckpoint() {
  if (Opt.ReadOnly)
    return false;
  PagedIndexHeaderInfo H;
  H.NextId = NextId;
  H.LiveCount = LiveCount;
  H.LiveBytes = LiveBytes;
  H.LiveRefs = totalRefs();

  // Journal coverage: the checkpoint names the journal prefix it folds
  // in — its length plus FNV windows over the first and last 4 KiB. A
  // journal that later shrinks or diverges (compact crash, truncation)
  // fails these checks at open and the checkpoint is ignored.
  {
    std::FILE *J = std::fopen(indexPath().c_str(), "rb");
    if (!J)
      return false;
    bool JOk = std::fseek(J, 0, SEEK_END) == 0;
    long Sz = JOk ? std::ftell(J) : -1;
    JOk = JOk && Sz >= 0;
    if (JOk) {
      H.JournalBytes = static_cast<uint64_t>(Sz);
      size_t WLen =
          static_cast<size_t>(std::min<uint64_t>(H.JournalBytes, TbixPageSize));
      if (WLen) {
        std::vector<uint8_t> WBuf(WLen);
        JOk = std::fseek(J, 0, SEEK_SET) == 0 &&
              std::fread(WBuf.data(), 1, WLen, J) == WLen;
        if (JOk)
          H.JournalHeadHash = fnv1a64(WBuf.data(), WLen, Fnv1a64ShortBasis);
        if (JOk) {
          JOk = std::fseek(J, static_cast<long>(H.JournalBytes - WLen),
                           SEEK_SET) == 0 &&
                std::fread(WBuf.data(), 1, WLen, J) == WLen;
          if (JOk)
            H.JournalTailHash =
                fnv1a64(WBuf.data(), WLen, Fnv1a64ShortBasis);
        }
      }
    }
    std::fclose(J);
    if (!JOk)
      return false;
  }

  // Stream entries in ascending id order: checkpoint entries (with the
  // tail's refcount/eviction deltas folded in) first, then the tail.
  uint64_t CkN = Ck ? Ck->entryCount() : 0;
  uint64_t CkI = 0;
  size_t TailI = 0;
  bool ReadFail = false;
  auto NextE = [&](SnapStoreEntry &Out) -> bool {
    if (CkI < CkN) {
      if (!readCkEntryAt(CkI++, Out)) {
        ReadFail = true;
        return false;
      }
      return true;
    }
    if (TailI < Entries.size()) {
      Out = Entries[TailI++];
      return true;
    }
    return false;
  };
  std::string CkErr;
  bool Ok = writePagedIndex(checkpointPath(), H, NextE, CkErr) && !ReadFail;
  if (!Ok)
    std::remove(checkpointPath().c_str());
  return Ok;
}

bool SnapStore::compact(std::string *Error) {
  if (!Open || Opt.ReadOnly) {
    if (Error)
      *Error = "store is not open for writing";
    return false;
  }

  // Compaction is the O(n) maintenance pass: fold the checkpoint into
  // memory first so the rewrite below sees plain in-memory state.
  if (Ck && !materializeFromCheckpoint(Error))
    return false;
  // The journal is about to be replaced; any existing checkpoint goes
  // stale either way.
  Dirty = true;

  // Quiesce the writers so the rewrite reads fully-flushed shards.
  for (auto &S : Shards)
    S->W.close();

  // Rewrite each shard with only the live entries, in id order (Entries
  // is ascending by id), into a temp file swapped in atomically. Live
  // state in = identical bytes out, whatever dead entries sat between.
  bool Ok = true;
  std::vector<std::pair<uint64_t, uint64_t>> NewPlacement; // id -> offset
  for (unsigned SI = 0; SI < Opt.Shards && Ok; ++SI) {
    std::string Old = shardPath(SI), Tmp = Old + ".tmp";
    std::remove(Tmp.c_str());
    SnapArchiveWriter W;
    Ok = W.open(Tmp);
    for (const SnapStoreEntry &E : Entries) {
      if (!Ok)
        break;
      if (E.Dead || E.Shard != SI)
        continue;
      std::vector<uint8_t> Image;
      Ok = SnapArchive::readImageAt(Old, E.Offset, E.ImageBytes, Image);
      if (Ok) {
        NewPlacement.push_back({E.Id, W.tell()});
        Ok = W.append(Image);
      }
    }
    Ok = W.close() && Ok;
    if (Ok)
      Ok = std::rename(Tmp.c_str(), Old.c_str()) == 0;
  }
  if (!Ok) {
    if (Error)
      *Error = "shard rewrite failed";
    // Reopen writers on the (possibly partially rewritten but always
    // internally consistent) shards so the store stays usable.
  }

  if (Ok) {
    for (const auto &IdOff : NewPlacement) {
      auto Slot = ById.find(IdOff.first);
      if (Slot != ById.end())
        Entries[Slot->second].Offset = IdOff.second;
    }

    // Drop dead entries from memory and rebuild the derived indexes.
    std::vector<SnapStoreEntry> Live;
    Live.reserve(LiveCount);
    for (SnapStoreEntry &E : Entries)
      if (!E.Dead)
        Live.push_back(std::move(E));
    Entries = std::move(Live);
    reindex();

    // Replace the journal with a clean snapshot of the live state.
    Journal->close();
    size_t Next = 0;
    std::string JournalErr;
    Ok = writeIndexJournal(
        indexPath(),
        [&](SnapStoreEntry &Out) {
          if (Next == Entries.size())
            return false;
          Out = Entries[Next++];
          return true;
        },
        JournalErr);
    if (!Ok && Error)
      *Error = JournalErr;
  }

  // Reattach the appenders (the journal appends to the snapshot).
  for (unsigned SI = 0; SI < Opt.Shards; ++SI)
    if (!Shards[SI]->W.open(shardPath(SI)))
      Ok = false;
  if (!Journal->isOpen() && !Journal->open(indexPath()))
    Ok = false;

  // A fresh checkpoint over the compacted journal; failure just leaves
  // the store dirty so close() retries (the checkpoint is an
  // accelerator — a paged open without one falls back to replay).
  if (Ok && writeCheckpoint())
    Dirty = false;

  SM.LiveEntriesG->set(static_cast<int64_t>(LiveCount));
  SM.LiveBytesG->set(static_cast<int64_t>(LiveBytes));
  return Ok;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

size_t SnapStore::totalEntries() const {
  return (Ck ? static_cast<size_t>(Ck->entryCount()) : 0) + Entries.size();
}

uint64_t SnapStore::totalRefs() const {
  uint64_t Sum = CkRefsLive;
  for (const SnapStoreEntry &E : Entries)
    if (!E.Dead)
      Sum += E.RefCount;
  return Sum;
}

size_t SnapStore::pageCacheResidentBytes() const {
  return Ck ? Ck->residentBytes() : 0;
}
