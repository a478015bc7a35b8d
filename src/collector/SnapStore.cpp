//===- collector/SnapStore.cpp - Indexed, queryable snap store ------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "collector/SnapStore.h"

#include "collector/PagedIndex.h"
#include "distributed/SnapArchive.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"
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

  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC) {
    Error = "cannot create store directory: " + Dir;
    return false;
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
  ById.clear();
  ByModule.clear();
  ByKind.clear();
  ByFingerprint.clear();
  ByMachine.clear();
  ByTime.clear();
  DedupByKey.clear();
  Ck.reset();
  DeadCk.clear();
  RefDeltaCk.clear();
  CkRefsLive = 0;
  CkEntryCache.clear();
  CkEntryCacheOrder.clear();
  Dirty = false;
  NextId = 1;
  LiveCount = 0;
  LiveBytes = 0;
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
  auto It = ById.find(Id);
  if (It == ById.end()) {
    // Not a tail entry — a checkpoint entry the tail mutated.
    return Ck && (Kind == JournalRecord::Ref ? ckApplyRef(Id)
                                             : ckApplyEvict(Id));
  }
  SnapStoreEntry &Target = Entries[It->second];
  if (Kind == JournalRecord::Ref)
    ++Target.RefCount;
  else
    markDead(Target);
  return true;
}

bool SnapStore::journalRecord(const std::vector<uint8_t> &Body) {
  if (!Journal || !Journal->append(Body) || !Journal->flush())
    return false;
  Dirty = true;
  return true;
}

void SnapStore::indexEntry(const SnapStoreEntry &E) {
  for (size_t I = 0; I < E.ModuleKeys.size(); ++I) {
    ByModule[E.ModuleKeys[I]].push_back(E.Id);
    uint64_t NameKey = signatureHash(E.ModuleNames[I]);
    if (NameKey != E.ModuleKeys[I])
      ByModule[NameKey].push_back(E.Id);
  }
  ByKind[E.Kind].push_back(E.Id);
  ByFingerprint[E.Fingerprint].push_back(E.Id);
  ByMachine[E.MachineId].push_back(E.Id);
  uint64_t MachKey = signatureHash(E.MachineName);
  if (MachKey != E.MachineId)
    ByMachine[MachKey].push_back(E.Id);
  auto At = std::upper_bound(ByTime.begin(), ByTime.end(),
                             std::make_pair(E.Timestamp, E.Id));
  ByTime.insert(At, {E.Timestamp, E.Id});
  if (!E.Dead) {
    DedupByKey.insertOrAssign(DedupKey{E.Fingerprint, E.PayloadHash}, E.Id);
    ++LiveCount;
    LiveBytes += E.ImageBytes;
  }
}

void SnapStore::markDead(SnapStoreEntry &E) {
  if (E.Dead)
    return;
  E.Dead = true;
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

bool SnapStore::readCkEntry(uint64_t Id, SnapStoreEntry &Out) const {
  if (!Ck || !Ck->entryById(Id, Out))
    return false;
  applyCkAdjust(Out);
  return true;
}

bool SnapStore::readCkEntryAt(uint64_t Idx, SnapStoreEntry &Out) const {
  if (!Ck || !Ck->entryByIndex(Idx, Out))
    return false;
  applyCkAdjust(Out);
  return true;
}

void SnapStore::ckMarkDead(const SnapStoreEntry &E) {
  if (E.Dead || DeadCk.count(E.Id))
    return;
  DeadCk.insert(E.Id);
  --LiveCount;
  LiveBytes -= E.ImageBytes;
  CkRefsLive -= E.RefCount; // E is adjusted: deltas already folded in.
  dedupTombstone(E.Fingerprint, E.PayloadHash, E.Id);
  CkEntryCache.erase(E.Id);
}

bool SnapStore::ckApplyRef(uint64_t Id) {
  SnapStoreEntry E;
  if (!readCkEntry(Id, E))
    return false;
  ++RefDeltaCk[Id];
  if (!E.Dead)
    ++CkRefsLive;
  CkEntryCache.erase(Id);
  return true;
}

bool SnapStore::ckApplyEvict(uint64_t Id) {
  SnapStoreEntry E;
  if (!readCkEntry(Id, E))
    return false;
  if (!E.Dead)
    ckMarkDead(E);
  return true;
}

size_t SnapStore::enforceRetention() {
  if (Opt.MaxBytes == 0 && Opt.MaxAge == 0)
    return 0;
  // The checkpoint's time table and the tail's ByTime are each sorted by
  // (timestamp, id); a two-pointer merge walks the union in exactly the
  // order the unpaged store would, so victims come out identical.
  uint64_t CkN = Ck ? Ck->timeCount() : 0;
  auto ckTime = [&](uint64_t I) {
    uint64_t Ts = 0, Id = 0;
    Ck->timeAt(I, Ts, Id);
    return std::make_pair(Ts, Id);
  };
  SnapStoreEntry Tmp;
  uint64_t NewestTs = 0;
  if (Opt.MaxAge != 0) {
    // Newest live timestamp anchors the age horizon; the newest end may
    // be dead, so walk backwards to the first live entry.
    size_t TI = ByTime.size();
    uint64_t CI = CkN;
    while (TI > 0 || CI > 0) {
      bool TakeTail = TI > 0 && (CI == 0 || ByTime[TI - 1] >= ckTime(CI - 1));
      if (TakeTail) {
        --TI;
        auto Slot = ById.find(ByTime[TI].second);
        if (Slot != ById.end() && !Entries[Slot->second].Dead) {
          NewestTs = ByTime[TI].first;
          break;
        }
      } else {
        --CI;
        auto P = ckTime(CI);
        if (readCkEntry(P.second, Tmp) && !Tmp.Dead) {
          NewestTs = P.first;
          break;
        }
      }
    }
  }
  size_t Evicted = 0;
  // Deterministic victim order: oldest timestamp first, lowest id on
  // ties — the merged (timestamp, id) order, front to back.
  size_t TI = 0;
  uint64_t CI = 0;
  while (TI < ByTime.size() || CI < CkN) {
    bool TakeTail = TI < ByTime.size() && (CI >= CkN || ByTime[TI] < ckTime(CI));
    std::pair<uint64_t, uint64_t> TsId = TakeTail ? ByTime[TI] : ckTime(CI);
    bool OverBytes = Opt.MaxBytes != 0 && LiveBytes > Opt.MaxBytes;
    bool OverAge = Opt.MaxAge != 0 && NewestTs > Opt.MaxAge &&
                   TsId.first < NewestTs - Opt.MaxAge;
    if (!OverBytes && !OverAge)
      break;
    if (TakeTail) {
      ++TI;
      auto Slot = ById.find(TsId.second);
      if (Slot == ById.end() || Entries[Slot->second].Dead)
        continue;
      SnapStoreEntry &E = Entries[Slot->second];
      markDead(E);
      journalRecord(journalIdRecord(JournalRecord::Evict, E.Id));
      ++Evicted;
    } else {
      ++CI;
      if (DeadCk.count(TsId.second) || !readCkEntry(TsId.second, Tmp) ||
          Tmp.Dead)
        continue;
      ckMarkDead(Tmp);
      journalRecord(journalIdRecord(JournalRecord::Evict, Tmp.Id));
      ++Evicted;
    }
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
    auto Slot = ById.find(HitId);
    if (Slot != ById.end()) {
      ++Entries[Slot->second].RefCount;
    } else {
      // A checkpoint entry: record the bump as a delta on top of it.
      ++RefDeltaCk[HitId];
      ++CkRefsLive;
      CkEntryCache.erase(HitId);
    }
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

SnapStore::QueryPlan SnapStore::planQuery(const SnapQuery &Q) const {
  // A set predicate whose key was never indexed proves the result empty
  // for that half (checkpoint or tail). Candidate count = checkpoint
  // posting + tail posting; the smallest total wins, first dimension on
  // ties — the same deterministic choice order as the tail-only planner.
  static const std::vector<uint64_t> Empty;
  QueryPlan Best;
  uint64_t BestTotal = 0;
  auto offer = [&](bool HasCk, uint64_t CkOff, uint64_t CkCount,
                   const std::vector<uint64_t> *Tail) {
    uint64_t Total = CkCount + Tail->size();
    if (!Best.Planned || Total < BestTotal) {
      Best.Planned = true;
      Best.HasCkPost = HasCk;
      Best.CkPostOff = CkOff;
      Best.CkPostCount = CkCount;
      Best.Tail = Tail;
      BestTotal = Total;
    }
  };
  auto dim = [&](TbixDim D, uint64_t Key, const std::vector<uint64_t> *Tail) {
    bool HasCk = false;
    uint64_t Off = 0, Count = 0;
    if (Ck) {
      PagedIndexReader::PostingRef PR;
      if (Ck->findPosting(D, Key, PR)) {
        HasCk = true;
        Off = PR.Off;
        Count = PR.Count;
      }
    }
    offer(HasCk, Off, Count, Tail);
  };
  if (Q.HasFingerprint) {
    auto It = ByFingerprint.find(Q.Fingerprint);
    dim(TbixDim::Fingerprint, Q.Fingerprint,
        It == ByFingerprint.end() ? &Empty : &It->second);
  }
  if (Q.HasModule) {
    auto It = ByModule.find(Q.ModuleKey);
    dim(TbixDim::Module, Q.ModuleKey,
        It == ByModule.end() ? &Empty : &It->second);
  }
  if (Q.HasMachine) {
    auto It = ByMachine.find(Q.MachineKey);
    dim(TbixDim::Machine, Q.MachineKey,
        It == ByMachine.end() ? &Empty : &It->second);
  }
  if (!Q.Kind.empty()) {
    auto It = ByKind.find(Q.Kind);
    dim(TbixDim::Kind, signatureHash(Q.Kind),
        It == ByKind.end() ? &Empty : &It->second);
  }
  return Best;
}

SnapStore::Cursor SnapStore::query(const SnapQuery &Q) const {
  SM.Queries->add();
  Cursor C(*this, Q);
  QueryPlan P = planQuery(Q);
  if (P.Planned) {
    C.CkStage = P.HasCkPost;
    C.CkPosting = true;
    C.CkPostOff = P.CkPostOff;
    C.CkPostCount = P.CkPostCount;
    C.Posting = P.Tail;
  } else {
    C.CkStage = Ck != nullptr;
    C.Posting = nullptr;
  }
  return C;
}

SnapStore::Cursor SnapStore::scan(const SnapQuery &Q) const {
  SM.Queries->add();
  Cursor C(*this, Q);
  C.CkStage = Ck != nullptr;
  C.Posting = nullptr;
  return C;
}

std::vector<uint64_t> SnapStore::queryIds(const SnapQuery &Q,
                                          ThreadPool *Pool) const {
  SM.Queries->add();
  QueryPlan P = planQuery(Q);

  // Candidate ids, ascending: checkpoint ids all precede tail ids.
  std::vector<uint64_t> Cand;
  if (P.Planned) {
    Cand.reserve(P.CkPostCount + P.Tail->size());
    if (P.HasCkPost) {
      PagedIndexReader::PostingRef PR{P.CkPostOff, P.CkPostCount};
      for (uint64_t I = 0; I < P.CkPostCount; ++I)
        Cand.push_back(Ck->postingIdAt(PR, I));
    }
    Cand.insert(Cand.end(), P.Tail->begin(), P.Tail->end());
  } else {
    uint64_t CkN = Ck ? Ck->entryCount() : 0;
    Cand.reserve(CkN + Entries.size());
    for (uint64_t I = 0; I < CkN; ++I)
      Cand.push_back(Ck->entryIdAt(I));
    for (const SnapStoreEntry &E : Entries)
      Cand.push_back(E.Id);
  }

  // Shard the residual filter; per-chunk results concatenate in chunk
  // order, so the output is the candidate order regardless of how the
  // pool schedules the chunks.
  const size_t ChunkSize = 2048;
  size_t NChunks = (Cand.size() + ChunkSize - 1) / ChunkSize;
  std::vector<std::vector<uint64_t>> Parts(NChunks);
  parallelForIndex(Pool, NChunks, [&](size_t CI) {
    SnapStoreEntry Scratch;
    size_t Begin = CI * ChunkSize;
    size_t End = std::min(Begin + ChunkSize, Cand.size());
    std::vector<uint64_t> &Hits = Parts[CI];
    for (size_t I = Begin; I < End; ++I) {
      uint64_t Id = Cand[I];
      const SnapStoreEntry *E = nullptr;
      auto It = ById.find(Id);
      if (It != ById.end())
        E = &Entries[It->second];
      else if (readCkEntry(Id, Scratch))
        E = &Scratch;
      if (E && matches(*E, Q))
        Hits.push_back(Id);
    }
  });

  std::vector<uint64_t> Ids;
  for (const std::vector<uint64_t> &Part : Parts)
    Ids.insert(Ids.end(), Part.begin(), Part.end());
  if (Q.Top != 0 && Ids.size() > Q.Top)
    Ids.resize(Q.Top);
  return Ids;
}

SnapStore::Cursor SnapStore::query(const SnapQuery &Q, ThreadPool *Pool) const {
  Cursor C(*this, Q);
  C.UseOwned = true;
  C.Owned = queryIds(Q, Pool);
  return C;
}

const SnapStoreEntry *SnapStore::Cursor::next() {
  if (Q.Top != 0 && Returned >= Q.Top)
    return nullptr;
  if (UseOwned) {
    // Ids were pre-filtered by queryIds(); just resolve each to storage.
    while (OwnedPos < Owned.size()) {
      uint64_t Id = Owned[OwnedPos++];
      const SnapStoreEntry *E = nullptr;
      auto It = S.ById.find(Id);
      if (It != S.ById.end())
        E = &S.Entries[It->second];
      else if (S.readCkEntry(Id, Scratch))
        E = &Scratch;
      if (E) {
        ++Returned;
        return E;
      }
    }
    return nullptr;
  }
  while (CkStage) {
    bool Have = false;
    if (CkPosting) {
      if (CkPos >= CkPostCount) {
        CkStage = false;
        break;
      }
      PagedIndexReader::PostingRef PR{CkPostOff, CkPostCount};
      Have = S.readCkEntry(S.Ck->postingIdAt(PR, CkPos++), Scratch);
    } else {
      if (CkPos >= S.Ck->entryCount()) {
        CkStage = false;
        break;
      }
      Have = S.readCkEntryAt(CkPos++, Scratch);
    }
    if (Have && SnapStore::matches(Scratch, Q)) {
      ++Returned;
      return &Scratch;
    }
  }
  if (Posting) {
    while (Pos < Posting->size()) {
      const SnapStoreEntry *E = S.entry((*Posting)[Pos++]);
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
  uint64_t CkN = S.Ck ? S.Ck->timeCount() : 0;
  while (CkPos < CkN || TailPos < S.ByTime.size()) {
    // Two-pointer merge of the checkpoint time table and the tail's
    // ByTime — both sorted by (timestamp, id), ids disjoint.
    bool TakeCk = false;
    uint64_t CTs = 0, CId = 0;
    if (CkPos < CkN) {
      S.Ck->timeAt(CkPos, CTs, CId);
      TakeCk = TailPos >= S.ByTime.size() ||
               std::make_pair(CTs, CId) < S.ByTime[TailPos];
    }
    const SnapStoreEntry *E = nullptr;
    if (TakeCk) {
      ++CkPos;
      if (S.readCkEntry(CId, Scratch))
        E = &Scratch;
    } else {
      uint64_t Id = S.ByTime[TailPos++].second;
      auto It = S.ById.find(Id);
      if (It != S.ById.end())
        E = &S.Entries[It->second];
    }
    if (E && SnapStore::matches(*E, Q)) {
      ++Returned;
      return E;
    }
  }
  return nullptr;
}

const SnapStoreEntry *SnapStore::entry(uint64_t Id) const {
  auto It = ById.find(Id);
  if (It != ById.end())
    return &Entries[It->second];
  if (!Ck)
    return nullptr;
  auto CIt = CkEntryCache.find(Id);
  if (CIt != CkEntryCache.end())
    return CIt->second.get();
  auto E = std::make_unique<SnapStoreEntry>();
  if (!readCkEntry(Id, *E))
    return nullptr;
  // Bounded FIFO: entry() pointers stay valid for ~64 further lookups.
  if (CkEntryCacheOrder.size() >= 64) {
    CkEntryCache.erase(CkEntryCacheOrder.front());
    CkEntryCacheOrder.erase(CkEntryCacheOrder.begin());
  }
  const SnapStoreEntry *Ret = E.get();
  CkEntryCacheOrder.push_back(Id);
  CkEntryCache[Id] = std::move(E);
  return Ret;
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
  CkEntryCache.clear();
  CkEntryCacheOrder.clear();
  ById.clear();
  ByModule.clear();
  ByKind.clear();
  ByFingerprint.clear();
  ByMachine.clear();
  ByTime.clear();
  DedupByKey.clear();
  LiveCount = 0;
  LiveBytes = 0;
  for (size_t I = 0; I < Entries.size(); ++I) {
    ById[Entries[I].Id] = I;
    indexEntry(Entries[I]);
  }
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
    ById.clear();
    ByModule.clear();
    ByKind.clear();
    ByFingerprint.clear();
    ByMachine.clear();
    ByTime.clear();
    DedupByKey.clear();
    LiveCount = 0;
    LiveBytes = 0;
    for (size_t I = 0; I < Entries.size(); ++I) {
      ById[Entries[I].Id] = I;
      indexEntry(Entries[I]);
    }

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
