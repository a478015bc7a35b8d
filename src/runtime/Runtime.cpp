//===- runtime/Runtime.cpp - The TraceBack runtime library ----------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "runtime/RuntimeABI.h"
#include "support/MD5.h"
#include "support/SnapCodec.h"
#include "support/Text.h"
#include "vm/FaultInjector.h"
#include "vm/Machine.h"
#include "vm/Scribe.h"
#include "vm/World.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace traceback;

// Guest-side buffer header layout (32 bytes, little endian):
//   +0  u32 magic 'TBUF'
//   +4  u32 buffer index
//   +8  u32 sub-buffer words (incl. sentinel)
//   +12 u32 sub-buffer count
//   +16 u32 committed sub-buffer index (~0 none)
//   +20 u32 flags (1 = desperation, 2 = probation)
//   +24 u64 owner thread id
// Records follow. Keeping the header in guest memory matters: the service
// process reads it out of the (possibly dead) process image, exactly like
// the paper's memory-mapped files.
static constexpr uint64_t BufHeaderBytes = 32;
static constexpr uint32_t BufMagic = 0x46554254;

/// Exception records mark signals by setting this bit in the inline code.
static constexpr uint16_t ExcInlineSignalFlag = 0x8000;

TracebackRuntime::TracebackRuntime(Process &P, Technology Tech,
                                   const RtPolicy &Policy, SnapSink *Sink,
                                   const DagBaseFile *BaseFile,
                                   MetricsRegistry *Metrics)
    : P(P), Tech(Tech), Policy(Policy), Sink(Sink),
      Reg(Metrics ? *Metrics : MetricsRegistry::global()),
      BaseFile(BaseFile) {
  M.WordsAppended = &Reg.counter("runtime.words_appended");
  M.BufferWraps = &Reg.counter("runtime.buffer_wraps");
  M.FullBufferWraps = &Reg.counter("runtime.full_buffer_wraps");
  M.SubBufferCommits = &Reg.counter("runtime.subbuffer_commits");
  M.ProbationExits = &Reg.counter("runtime.probation_exits");
  M.DesperationAssignments = &Reg.counter("runtime.desperation_assignments");
  M.SnapsTaken = &Reg.counter("runtime.snaps_taken");
  M.SnapsSuppressed = &Reg.counter("runtime.snaps_suppressed");
  M.ThreadsScavenged = &Reg.counter("runtime.threads_scavenged");
  M.ModulesRebased = &Reg.counter("runtime.modules_rebased");
  M.ModulesBadDag = &Reg.counter("runtime.modules_bad_dag");
  M.BuffersOwned = &Reg.gauge("runtime.buffers_owned");
  M.SnapLatencyUs = &Reg.histogram("runtime.snap_latency_us");

  // A unique, deterministic runtime id ("created when initialized, using a
  // standard generation technique", section 5.1).
  MD5 H;
  H.update(P.Host->Name);
  H.update(P.Name);
  H.update(&P.Pid, sizeof(P.Pid));
  uint8_t TechByte = static_cast<uint8_t>(Tech);
  H.update(&TechByte, 1);
  RuntimeId = H.final().low64() | 1; // Never zero.

  // Reserve a TLS slot; if the preferred one is taken (another runtime in
  // this process), probes get rebased to the one we actually got.
  uint16_t Slot = DefaultTlsSlot;
  while (P.TlsReserved.count(Slot))
    ++Slot;
  P.TlsReserved.insert(Slot);
  TlsSlot = Slot;

  // Allocate and initialize buffers in guest memory. Sub-buffers are
  // rounded up to a power-of-two byte size and laid out so each
  // sub-buffer's sentinel slot — and only it — sits at an address that is
  // 0 mod SubBytes. Wrap detection then needs no load-and-compare: the
  // probe helper ANDs the advanced cursor against SubBytes-1 (patched in
  // via the module's sub-mask fixups). The in-memory sentinel words are
  // still written, so torn-buffer recovery and older sentinel-compare
  // helpers keep working.
  uint32_t RecordWords = std::max<uint32_t>(Policy.BufferBytes / 4,
                                            Policy.SubBufferCount * 2);
  uint32_t SubWords = std::max<uint32_t>(RecordWords / Policy.SubBufferCount,
                                         2);
  uint32_t Pow2 = 2;
  while (Pow2 < SubWords)
    Pow2 <<= 1;
  SubWords = Pow2;
  SubBytes = SubWords * 4ull;

  // Records start Lead bytes into each buffer slot: Lead is 4 mod
  // SubBytes (so the k-th sub-buffer's last word lands on a SubBytes
  // boundary) and leaves room for the 32-byte guest header just below.
  uint64_t Lead = 4;
  while (Lead < BufHeaderBytes + 4)
    Lead += SubBytes;
  uint64_t PerBuffer = (Lead - 4) + SubBytes * (Policy.SubBufferCount + 1);
  uint64_t ProbationBytes = SubBytes + BufHeaderBytes + 16;
  uint64_t Total =
      SubBytes + PerBuffer * (Policy.BufferCount + 1) + ProbationBytes;
  uint64_t Alloc = P.allocRuntimeRegion(Total);
  RegionBase = (Alloc + SubBytes - 1) & ~(SubBytes - 1);
  BufferStrideBytes = PerBuffer;

  uint64_t Cursor = RegionBase;
  for (uint32_t I = 0; I < Policy.BufferCount; ++I) {
    RtBuffer B;
    B.Index = I;
    B.SubWords = SubWords;
    B.SubCount = Policy.SubBufferCount;
    B.RecordsBase = Cursor + Lead;
    B.LastPtr = B.RecordsBase - 4;
    Buffers.push_back(B);
    initBuffer(Buffers.back());
    Cursor += PerBuffer;
  }

  Desperation.Index = Policy.BufferCount;
  Desperation.SubWords = SubWords;
  Desperation.SubCount = Policy.SubBufferCount;
  Desperation.RecordsBase = Cursor + Lead;
  Desperation.LastPtr = Desperation.RecordsBase - 4;
  Desperation.Desperation = true;
  initBuffer(Desperation);
  Cursor += PerBuffer;

  // The probation buffer contains only a sentinel: the first heavyweight
  // probe of any thread immediately traps to buffer_wrap (section 3.1).
  // Its sentinel must satisfy the same alignment rule, so its records
  // start 4 bytes *before* a SubBytes boundary.
  Probation.Index = Policy.BufferCount + 1;
  Probation.SubWords = 2;
  Probation.SubCount = 1;
  Probation.RecordsBase =
      ((Cursor + BufHeaderBytes + 4 + SubBytes - 1) & ~(SubBytes - 1)) - 4;
  Probation.LastPtr = Probation.RecordsBase - 4;
  P.Mem.write32(Probation.RecordsBase, InvalidRecord);
  P.Mem.write32(Probation.RecordsBase + 4, SentinelRecord);

  // Thread discovery for late attachment (section 3.7.1): arm every
  // already-running thread with the probation cursor.
  for (auto &T : P.Threads)
    if (!T->exited())
      T->Tls[TlsSlot] = Probation.RecordsBase;
}

void TracebackRuntime::initBuffer(RtBuffer &B) {
  uint64_t HeaderBase = B.RecordsBase - BufHeaderBytes;
  P.Mem.write32(HeaderBase + 0, BufMagic);
  P.Mem.write32(HeaderBase + 4, B.Index);
  P.Mem.write32(HeaderBase + 8, B.SubWords);
  P.Mem.write32(HeaderBase + 12, B.SubCount);
  P.Mem.write32(HeaderBase + 16, UINT32_MAX);
  P.Mem.write32(HeaderBase + 20, B.Desperation ? 1 : 0);
  P.Mem.write64(HeaderBase + 24, 0);
  // Zero all records, then drop a sentinel at the end of each sub-buffer.
  P.Mem.fill(B.RecordsBase, 0, B.totalWords() * 4ull);
  for (uint32_t S = 0; S < B.SubCount; ++S)
    P.Mem.write32(B.RecordsBase + (static_cast<uint64_t>(S + 1) * B.SubWords -
                                   1) * 4,
                  SentinelRecord);
}

TracebackRuntime::RtBuffer *TracebackRuntime::bufferContaining(uint64_t A) {
  // This runs on every wrap trap, so it must not scan: the buffer slots
  // (including desperation) sit contiguously from RegionBase at a fixed
  // stride, making the owning slot a single division.
  if (A >= RegionBase && BufferStrideBytes != 0) {
    uint64_t Slot = (A - RegionBase) / BufferStrideBytes;
    if (Slot < Buffers.size()) {
      RtBuffer &B = Buffers[Slot];
      return B.contains(A) ? &B : nullptr;
    }
    if (Slot == Buffers.size() && Desperation.contains(A))
      return &Desperation;
  }
  if (A >= Probation.RecordsBase && A < Probation.RecordsBase + 8)
    return &Probation;
  return nullptr;
}

uint64_t TracebackRuntime::rotateSubBuffer(RtBuffer &B,
                                           uint64_t SentinelAddr) {
  uint64_t Offset = SentinelAddr - B.RecordsBase;
  uint32_t SubIdx = static_cast<uint32_t>(Offset / (B.SubWords * 4ull));
  // Commit the just-filled sub-buffer by writing its index into the
  // buffer header (section 3.2).
  B.Committed = SubIdx;
  P.Mem.write32(B.RecordsBase - BufHeaderBytes + 16, SubIdx);
  M.SubBufferCommits->add();
  // Probe words are stored by inline guest code the runtime never sees
  // (the whole point of 2-instruction probes), so per-word counting is
  // impossible without taxing the probe path. Account for them here at
  // commit granularity: the sub-buffer just filled holds SubWords - 1
  // data words. The counter therefore trails the cursor by at most one
  // sub-buffer and slightly double-counts runtime-written ext records.
  M.WordsAppended->add(B.SubWords - 1);

  uint32_t Next = (SubIdx + 1) % B.SubCount;
  if (Next == 0)
    M.FullBufferWraps->add();
  // Zero the next sub-buffer (except its sentinel) so the thread's
  // progress can be found as the last non-zero entry.
  uint64_t NextBase = B.RecordsBase + static_cast<uint64_t>(Next) *
                                          B.SubWords * 4;
  P.Mem.fill(NextBase, 0, (B.SubWords - 1) * 4ull);
  return NextBase;
}

uint64_t TracebackRuntime::assignBuffer(Thread &T) {
  // First-come allocation of an unused main buffer (section 3.1.1). The
  // buffer keeps the previous occupant's records and cursor; they are
  // gradually overwritten (section 3.1.2).
  for (RtBuffer &B : Buffers) {
    if (B.OwnerThread != 0)
      continue;
    B.OwnerThread = T.Id;
    M.ProbationExits->add();
    P.Mem.write64(B.RecordsBase - BufHeaderBytes + 24, T.Id);
    T.Tls[TlsSlot] = B.LastPtr;
    appendExtRecord(T, {ExtType::ThreadStart, 0, {T.Id, machineNow()}});
    // Reserve the slot the pending DAG record will be stored into. The
    // layout guarantees the sentinel slots are exactly the SubBytes-
    // aligned ones, so no guest read is needed.
    uint64_t Cur = T.Tls[TlsSlot];
    uint64_t Cand = Cur + 4;
    if ((Cand & (SubBytes - 1)) == 0)
      Cand = rotateSubBuffer(B, Cand);
    B.LastPtr = Cand;
    T.Tls[TlsSlot] = Cand;
    return Cand;
  }
  // Out of buffers: the shared desperation buffer (section 3.1). Many
  // threads write here unsynchronized; the data is sacrificial.
  M.DesperationAssignments->add();
  uint64_t Cand = Desperation.LastPtr + 4;
  if ((Cand & (SubBytes - 1)) == 0)
    Cand = rotateSubBuffer(Desperation, Cand);
  Desperation.LastPtr = Cand;
  T.Tls[TlsSlot] = Cand;
  return Cand;
}

uint64_t TracebackRuntime::handleWrap(Thread &T, uint64_t SentinelAddr) {
  M.BufferWraps->add();
  // Periodic dead-thread scavenging piggybacks on wraps (section 3.1.2).
  if (++Wraps % 16 == 0)
    scavengeDeadThreads();

  RtBuffer *B = bufferContaining(SentinelAddr);
  if (!B || B == &Probation)
    return assignBuffer(T);
  // Desperation-buffer residents retry allocation at every wrap so they
  // can leave when resources become available (section 3.1).
  if (B->Desperation)
    return assignBuffer(T);
  uint64_t Slot = rotateSubBuffer(*B, SentinelAddr);
  B->LastPtr = Slot;
  return Slot;
}

void TracebackRuntime::appendWord(Thread &T, uint32_t Word) {
  uint64_t Cur = T.Tls[TlsSlot];
  uint64_t Cand = Cur + 4;
  bool Ok = true;
  P.Mem.read32(Cand, Ok);
  if (!Ok)
    return; // Cursor is garbage; drop the record.
  // Same branchless wrap test the guest probe helper uses: the layout
  // puts sentinel slots — and only them — at SubBytes-aligned addresses.
  if ((Cand & (SubBytes - 1)) == 0)
    Cand = handleWrap(T, Cand);
  P.Mem.write32(Cand, Word);
  T.Tls[TlsSlot] = Cand;
  M.WordsAppended->add();
}

bool TracebackRuntime::threadHasRealBuffer(const Thread &T) const {
  uint64_t Cur = T.Tls[TlsSlot];
  if (Cur == 0)
    return false;
  if (Cur >= Probation.RecordsBase - 4 &&
      Cur < Probation.RecordsBase + 8)
    return false;
  for (const RtBuffer &B : Buffers)
    if (B.contains(Cur))
      return true;
  return Desperation.contains(Cur);
}

void TracebackRuntime::appendExtRecord(Thread &T, const ExtRecord &Rec,
                                       bool Force) {
  // Never force a buffer onto a thread that has not run instrumented code
  // — bookkeeping alone must not defeat probation. (ThreadStart is written
  // from assignBuffer after the cursor moved to a real buffer.) SYNC
  // records are the exception: logical-thread binding happens at the call
  // boundary, before the callee's first probe.
  if (!threadHasRealBuffer(T)) {
    if (!Force)
      return;
    assignBuffer(T);
  }
  for (uint32_t W : encodeExtRecord(Rec))
    appendWord(T, W);
  // The thread's cursor now points at our record's last word; a
  // lightweight probe may OR path bits into it before the next heavyweight
  // probe runs. Terminate with a pad whose low bits are don't-care.
  if (Rec.Type != ExtType::Pad)
    appendWord(T, encodeExtRecord({ExtType::Pad, 0, {}})[0]);
}

void TracebackRuntime::scavengeDeadThreads() {
  for (RtBuffer &B : Buffers) {
    if (B.OwnerThread == 0)
      continue;
    Thread *T = P.findThread(B.OwnerThread);
    if (T && !T->exited())
      continue;
    // The owner died without telling us. Write the termination record at
    // the buffer's (possibly slightly stale) cursor and free the buffer.
    uint64_t Cursor = B.LastPtr;
    std::vector<uint32_t> Words = encodeExtRecord(
        {ExtType::ThreadEnd, 0, {B.OwnerThread, machineNow()}});
    Words.push_back(encodeExtRecord({ExtType::Pad, 0, {}})[0]);
    for (uint32_t W : Words) {
      uint64_t Cand = Cursor + 4;
      if ((Cand & (SubBytes - 1)) == 0)
        Cand = rotateSubBuffer(B, Cand);
      P.Mem.write32(Cand, W);
      Cursor = Cand;
    }
    B.LastPtr = Cursor;
    PendingTs.erase(B.OwnerThread);
    B.OwnerThread = 0;
    P.Mem.write64(B.RecordsBase - BufHeaderBytes + 24, 0);
    M.ThreadsScavenged->add();
  }
}

uint64_t TracebackRuntime::machineNow() const {
  // Platforms without a cheap high-resolution clock fall back to a
  // logical clock that increments on each important event (section 3.5).
  // It orders events within this runtime but cannot interleave across
  // processes.
  if (Policy.UseLogicalClock)
    return ++LogicalClockValue;
  return P.Host->nowGlobal();
}

// ----------------------------------------------------------------------------
// Module registration and rebasing (section 2.3).
// ----------------------------------------------------------------------------

namespace {
uint32_t readLE32(const std::vector<uint8_t> &Code, uint32_t Off) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(Code[Off + I]) << (I * 8);
  return V;
}

void writeLE32(std::vector<uint8_t> &Code, uint32_t Off, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Code[Off + I] = static_cast<uint8_t>(V >> (I * 8));
}

void writeLE16(std::vector<uint8_t> &Code, uint32_t Off, uint16_t V) {
  Code[Off] = static_cast<uint8_t>(V);
  Code[Off + 1] = static_cast<uint8_t>(V >> 8);
}
} // namespace

void TracebackRuntime::onModuleRebase(Process &, LoadedModule &LM) {
  if (!LM.Mod.Instrumented || LM.Mod.Tech != Tech)
    return;

  uint64_t Key = LM.key();
  uint32_t Count = LM.Mod.DagIdCount;

  // 1. A module we have seen before gets its old range back, so the id
  //    space does not leak across unload/reload cycles.
  ModuleReg *Reuse = nullptr;
  for (ModuleReg &Reg : ModRegs)
    if (Reg.Key == Key && Reg.Count == Count && !Reg.Live)
      Reuse = &Reg;

  uint32_t Desired;
  bool BadDag = false;
  if (Reuse && !Reuse->BadDag) {
    Desired = Reuse->Base;
  } else {
    Desired = BaseFile ? BaseFile->baseFor(LM.Mod.Name) : 0;
    if (Desired == 0)
      Desired = LM.Mod.DagIdBase;
    // Collision check against every registered range (live or reserved).
    auto Conflicts = [&](uint32_t Base) {
      if (Base == 0 || Base + Count > MaxDagId + 1)
        return true;
      for (const ModuleReg &Reg : ModRegs) {
        if (Reg.BadDag || (Reuse && &Reg == Reuse))
          continue;
        if (Base < Reg.Base + Reg.Count && Reg.Base < Base + Count)
          return true;
      }
      return false;
    };
    if (Conflicts(Desired)) {
      // First-fit scan after the existing ranges.
      std::vector<std::pair<uint32_t, uint32_t>> Ranges;
      for (const ModuleReg &Reg : ModRegs)
        if (!Reg.BadDag)
          Ranges.push_back({Reg.Base, Reg.Base + Reg.Count});
      std::sort(Ranges.begin(), Ranges.end());
      uint32_t Cand = 1;
      bool Found = false;
      for (const auto &[Lo, Hi] : Ranges) {
        if (Cand + Count <= Lo) {
          Found = true;
          break;
        }
        Cand = std::max(Cand, Hi);
      }
      if (!Found && Cand + Count <= MaxDagId + 1)
        Found = true;
      if (Found) {
        Desired = Cand;
        M.ModulesRebased->add();
      } else {
        BadDag = true; // Id space exhausted (section 2.3).
      }
    }
  }

  if (BadDag) {
    for (uint32_t Off : LM.Mod.DagRecordFixups)
      writeLE32(LM.Mod.Code, Off, makeDagRecord(BadDagId));
    // Clearing the lightweight masks keeps bad-DAG records distinct from
    // the all-ones sentinel.
    for (uint32_t Off : LM.Mod.LightMaskFixups)
      writeLE32(LM.Mod.Code, Off, 0);
    LM.Mod.DagIdBase = BadDagId;
    LM.Mod.DagIdCount = 0;
    M.ModulesBadDag->add();
  } else if (Desired != LM.Mod.DagIdBase) {
    uint32_t OldBase = LM.Mod.DagIdBase;
    for (uint32_t Off : LM.Mod.DagRecordFixups) {
      uint32_t Word = readLE32(LM.Mod.Code, Off);
      uint32_t Rel = dagIdOfRecord(Word) - OldBase;
      writeLE32(LM.Mod.Code, Off, makeDagRecord(Desired + Rel));
    }
    LM.Mod.DagIdBase = Desired;
  }

  // TLS slot rebasing (section 2.5).
  if (LM.Mod.TlsSlot != TlsSlot) {
    for (uint32_t Off : LM.Mod.TlsSlotFixups)
      writeLE16(LM.Mod.Code, Off, TlsSlot);
    LM.Mod.TlsSlot = TlsSlot;
  }

  // Patch the probe helper's wrap mask to this runtime's sub-buffer size.
  // The instrumenter emits 0 (always-wrap: lossy but never corrupting),
  // so an unpatched module still works, just slowly.
  for (uint32_t Off : LM.Mod.SubMaskFixups)
    writeLE32(LM.Mod.Code, Off, static_cast<uint32_t>(SubBytes - 1));

  // Register (or re-register) the module.
  if (Reuse) {
    Reuse->Live = true;
    Reuse->Base = LM.Mod.DagIdBase;
    Reuse->BadDag = BadDag;
  } else {
    ModRegs.push_back(
        {Key, LM.Mod.Name, LM.Mod.DagIdBase, Count, true, BadDag});
  }
}

void TracebackRuntime::onModuleUnloaded(Process &, LoadedModule &LM) {
  if (!LM.Mod.Instrumented || LM.Mod.Tech != Tech)
    return;
  for (ModuleReg &Reg : ModRegs)
    if (Reg.Key == LM.key() && Reg.Live)
      Reg.Live = false;
}

// ----------------------------------------------------------------------------
// Thread lifetime.
// ----------------------------------------------------------------------------

void TracebackRuntime::onThreadStart(Process &, Thread &T) {
  // Every thread starts on the probation buffer: the first probe it
  // executes traps, and only then does it get a real buffer.
  T.Tls[TlsSlot] = Probation.RecordsBase;
}

void TracebackRuntime::onThreadExit(Process &, Thread &T) {
  if (!threadHasRealBuffer(T))
    return;
  flushTimestamps(T);
  appendExtRecord(T, {ExtType::ThreadEnd, 0, {T.Id, machineNow()}});
  uint64_t Cur = T.Tls[TlsSlot];
  if (RtBuffer *B = bufferContaining(Cur); B && !B->Desperation) {
    B->LastPtr = Cur;
    B->OwnerThread = 0;
    P.Mem.write64(B->RecordsBase - BufHeaderBytes + 24, 0);
  }
}

void TracebackRuntime::onProcessExit(Process &) {
  for (auto &T : P.Threads)
    if (!T->exited() && threadHasRealBuffer(*T)) {
      flushTimestamps(*T);
      appendExtRecord(*T, {ExtType::ThreadEnd, 0, {T->Id, machineNow()}});
    }
  if (Policy.SnapOnExit)
    takeSnap(SnapReason::ProcessExit, 0);
}

// ----------------------------------------------------------------------------
// Probe trap and timestamps.
// ----------------------------------------------------------------------------

void TracebackRuntime::onRtCall(Process &, Thread &T, uint16_t Entry) {
  if (Entry != static_cast<uint16_t>(RtEntry::BufferWrap))
    return;
  // R10 holds the sentinel slot the probe helper hit.
  uint64_t Slot = handleWrap(T, T.Regs[ProbeReg0]);
  T.Regs[ProbeReg0] = Slot;
  T.Tls[TlsSlot] = Slot;
}

void TracebackRuntime::onSyscall(Process &, Thread &T, uint16_t) {
  if (Policy.TimestampInterval == 0)
    return;
  uint32_t &Count = SyscallCountByThread[T.Id];
  if (++Count % Policy.TimestampInterval != 0)
    return;
  if (Policy.TimestampBatch == 0) {
    appendExtRecord(T, {ExtType::Timestamp, 0, {machineNow()}});
    return;
  }
  // Batched mode: accumulate host-side, emit one TimestampBatch record
  // per full batch. Sampling without a buffer would leak samples into
  // probation threads; mirror appendExtRecord's gate.
  if (!threadHasRealBuffer(T))
    return;
  std::vector<uint64_t> &Pending = PendingTs[T.Id];
  Pending.push_back(machineNow());
  if (Pending.size() >= Policy.TimestampBatch)
    flushTimestamps(T);
}

void TracebackRuntime::flushTimestamps(Thread &T) {
  auto It = PendingTs.find(T.Id);
  if (It == PendingTs.end() || It->second.empty())
    return;
  appendExtRecord(T, {ExtType::TimestampBatch,
                      static_cast<uint16_t>(It->second.size()),
                      std::move(It->second)});
  PendingTs.erase(It);
}

// ----------------------------------------------------------------------------
// Exceptions, signals, snaps.
// ----------------------------------------------------------------------------

void TracebackRuntime::maybeSnapForFault(Process &, Thread &T,
                                         const GuestFault &F,
                                         SnapReason Reason) {
  uint16_t Code = static_cast<uint16_t>(F.Code);
  bool Triggered = Policy.SnapOnAnyException;
  if (!Triggered &&
      Code >= static_cast<uint16_t>(FaultCode::UserTrapBase) &&
      Policy.SnapOnTrapCodes.count(
          Code - static_cast<uint16_t>(FaultCode::UserTrapBase)))
    Triggered = true;
  if (!Triggered)
    return;

  // Redundant-trigger suppression (section 3.6.2).
  auto SiteKey = std::make_tuple(F.ModuleKey, F.ModuleOffset, Code);
  uint32_t &Count = SnapCounts[SiteKey];
  if (++Count > Policy.SuppressRepeats) {
    M.SnapsSuppressed->add();
    return;
  }
  takeSnap(Reason, Code);
}

void TracebackRuntime::onException(Process &P2, Thread &T,
                                   const GuestFault &F) {
  appendExtRecord(T, {ExtType::Exception, static_cast<uint16_t>(F.Code),
                      {F.ModuleKey, F.ModuleOffset, machineNow()}});
  LastFaultSeen = F;
  LastFaultThread = T.Id;
  maybeSnapForFault(P2, T, F, SnapReason::Exception);
}

void TracebackRuntime::onExceptionHandled(Process &, Thread &T,
                                          const GuestFault &F) {
  // Marks where control resumed after the exception (the "exception end"
  // record of section 3.7.3).
  appendExtRecord(T, {ExtType::ExceptionEnd, static_cast<uint16_t>(F.Code),
                      {machineNow()}});
}

void TracebackRuntime::onUnhandledException(Process &, Thread &T,
                                            const GuestFault &F) {
  LastFaultSeen = F;
  LastFaultThread = T.Id;
  if (Policy.SnapOnUnhandled)
    takeSnap(SnapReason::Unhandled, static_cast<uint16_t>(F.Code));
}

void TracebackRuntime::onSignal(Process &, Thread &T, int Sig,
                                bool HasGuestHandler, bool Fatal) {
  appendExtRecord(
      T, {ExtType::Exception,
          static_cast<uint16_t>(ExcInlineSignalFlag | (Sig & 0xFFF)),
          {0, 0, machineNow()}});
  if (Policy.SnapOnSignals.count(Sig) || (Fatal && Policy.SnapOnUnhandled))
    takeSnap(SnapReason::Signal, static_cast<uint16_t>(Sig));
}

void TracebackRuntime::onSignalHandlerDone(Process &, Thread &T, int Sig) {
  appendExtRecord(
      T, {ExtType::ExceptionEnd,
          static_cast<uint16_t>(ExcInlineSignalFlag | (Sig & 0xFFF)),
          {machineNow()}});
}

void TracebackRuntime::onSnapRequest(Process &, Thread *T, uint16_t Reason) {
  if (!Policy.SnapOnApi)
    return;
  takeSnap(T ? SnapReason::Api : SnapReason::External, Reason);
}

std::shared_ptr<const SnapFile>
TracebackRuntime::takeSnap(SnapReason Reason, uint16_t Detail) {
  // In the real system the runtime suspends all threads here; our VM is
  // cooperative, so the world is already still while host code runs.
  auto SnapStart = std::chrono::steady_clock::now();
  // Pending timestamp batches must land in the captured buffers, not sit
  // host-side where the snap cannot see them.
  if (Policy.TimestampBatch)
    for (auto &T : P.Threads)
      if (!T->exited() && threadHasRealBuffer(*T))
        flushTimestamps(*T);
  auto SP = std::make_shared<SnapFile>();
  SnapFile &S = *SP;
  S.Reason = Reason;
  S.ReasonDetail = Detail;
  S.ProcessName = P.Name;
  S.Pid = P.Pid;
  S.MachineName = P.Host->Name;
  S.OsName = P.Host->OsName;
  S.RuntimeId = RuntimeId;
  S.Tech = Tech;
  S.Timestamp = machineNow();
  S.BufferRegionBase = RegionBase;

  if (Reason == SnapReason::Exception || Reason == SnapReason::Unhandled ||
      Reason == SnapReason::Signal) {
    S.FaultThread = LastFaultThread;
    S.FaultModuleKey = LastFaultSeen.ModuleKey;
    S.FaultOffset = LastFaultSeen.ModuleOffset;
    S.FaultCodeValue = static_cast<uint16_t>(LastFaultSeen.Code);
  }

  for (const auto &LM : P.Modules) {
    SnapModuleInfo MI;
    MI.Name = LM->Mod.Name;
    MI.Checksum = LM->Mod.Checksum;
    MI.DagIdBase = LM->Mod.DagIdBase;
    MI.DagIdCount = LM->Mod.DagIdCount;
    MI.Tech = LM->Mod.Tech;
    MI.Instrumented = LM->Mod.Instrumented;
    MI.Unloaded = LM->Unloaded;
    MI.CodeBase = LM->CodeBase;
    S.Modules.push_back(std::move(MI));
  }

  std::vector<ZeroRange> NeverWritten;
  auto CaptureBuffer = [&](const RtBuffer &B) {
    SnapBufferImage Img;
    Img.Index = B.Index;
    Img.SubBufferWords = B.SubWords;
    Img.SubBufferCount = B.SubCount;
    Img.Desperation = B.Desperation;
    Img.RecordsBase = B.RecordsBase;
    // Read header and records from guest memory — the authoritative copy,
    // still present even after kill -9.
    bool Ok = true;
    Img.CommittedSubBuffer =
        P.Mem.read32(B.RecordsBase - BufHeaderBytes + 16, Ok);
    Img.OwnerThread = P.Mem.read64(B.RecordsBase - BufHeaderBytes + 24, Ok);
    // readInto touches each captured byte once (no resize zero-fill) and
    // appends pages nothing has written without reading them: this copy
    // runs once per buffer per group-snap member, and most of a ring is
    // space the thread has not reached.
    P.Mem.readInto(B.RecordsBase, B.totalWords() * 4, Img.Raw, &NeverWritten);
    // Pre-encode while the bytes are cache-hot and the page table still
    // says which of them were never written: the daemon's network push
    // and the store serialize this snap after capture, when re-reading
    // the raw words would miss. The encoder steps over those ranges instead of
    // scanning them, and writes the stream an unhinted encode would.
    snapEncodeTo(Img.Raw.data(), Img.Raw.size(), Img.Encoded, NeverWritten);
    S.Buffers.push_back(std::move(Img));
  };
  for (const RtBuffer &B : Buffers)
    CaptureBuffer(B);
  CaptureBuffer(Desperation);

  for (const auto &T : P.Threads) {
    SnapThreadInfo TI;
    TI.ThreadId = T->Id;
    TI.Alive = !T->exited();
    TI.ExitedAbruptly = T->ExitedAbruptly;
    uint64_t Cur = T->Tls[TlsSlot];
    TI.Cursor = (Cur != 0 && !T->ExitedAbruptly) ? Cur : 0;
    S.Threads.push_back(TI);
  }

  if (Policy.CaptureMemory) {
    // A bounded memory dump (section 3.6): the top of each live thread's
    // stack plus the neighborhood of the faulting address.
    auto Capture = [&](uint64_t Base, uint64_t Len, std::string Label) {
      SnapMemoryRegion Region;
      Region.Base = Base;
      Region.Label = std::move(Label);
      if (P.Mem.readInto(Base, Len, Region.Bytes))
        S.Memory.push_back(std::move(Region));
    };
    for (const auto &T : P.Threads) {
      if (T->exited())
        continue;
      uint64_t Sp = T->sp();
      if (Sp >= T->StackBase && Sp < T->StackBase + T->StackSize) {
        uint64_t Len =
            std::min<uint64_t>(512, T->StackBase + T->StackSize - Sp);
        Capture(Sp, Len, formatv("stack t%llu",
                                 static_cast<unsigned long long>(T->Id)));
      }
    }
    if (LastFaultSeen.Addr != 0) {
      uint64_t Base = LastFaultSeen.Addr & ~63ull;
      Capture(Base, 128, "fault addr neighborhood");
    }
  }

  // An attached fault injector may damage the captured image before it
  // reaches any sink — modeling disk corruption between capture and read.
  // It clears Encoded on every buffer it damages, so serialization
  // re-encodes those from the damaged Raw, unhinted: a hint never
  // describes bytes the injector changed.
  if (FaultInjector *FI = P.Host->Owner->Injector)
    FI->onSnapCapture(S);

  M.SnapsTaken->add();
  uint64_t Owned = 0;
  for (const RtBuffer &B : Buffers)
    Owned += B.OwnerThread != 0;
  M.BuffersOwned->set(static_cast<int64_t>(Owned));
  M.SnapLatencyUs->observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - SnapStart)
          .count()));

  // Embed the tracer's own health into the snap as TELEMETRY records, so
  // reconstruction can report it alongside the source trace. The telemetry
  // stream is separate from every trace buffer, so this cannot perturb
  // recovered traces; it is embedded after injector damage so a corrupted
  // snap still carries intact self-diagnostics.
  S.setTelemetry(Reg);

  // Anchor this capture in the execution record and, when recording is
  // on, embed the log so the snap becomes a re-executable test case. The
  // anchor entry is appended before serialization, so the embedded log
  // ends at exactly this capture point.
  if (ExecutionScribe *Sc = P.Host->Owner->Scribe)
    Sc->onSnapAnchor(P.Pid, static_cast<uint8_t>(Reason), Detail,
                     P.Host->Owner->slices(),
                     Policy.RecordExecution ? &S.ExecLog : nullptr);

  if (Sink)
    Sink->onSnap(SP);
  return SP;
}

// ----------------------------------------------------------------------------
// Distributed tracing: logical threads and SYNC records (section 5).
// ----------------------------------------------------------------------------

uint64_t TracebackRuntime::logicalThreadFor(Thread &T) {
  Binding &B = Bindings[T.Id];
  if (B.LogicalId == 0) {
    uint64_t Serial = NextLogicalSerial++;
    MD5 H;
    H.update(&RuntimeId, sizeof(RuntimeId));
    H.update(&Serial, sizeof(Serial));
    B.LogicalId = H.final().low64() | 1;
    B.Seq = 0;
  }
  return B.LogicalId;
}

void TracebackRuntime::writeSync(Thread &T, SyncKind Kind,
                                 uint64_t PeerRuntime, uint64_t LogicalId,
                                 uint64_t Seq) {
  appendExtRecord(T,
                  {ExtType::Sync, static_cast<uint16_t>(Kind),
                   {LogicalId, Seq, PeerRuntime, machineNow()}},
                  /*Force=*/true);
}

void TracebackRuntime::onRpcClientCall(Process &, Thread &T, RpcWire &Wire) {
  uint64_t LogicalId = logicalThreadFor(T);
  Binding &B = Bindings[T.Id];
  ++B.Seq;
  Wire.Present = true;
  Wire.RuntimeId = RuntimeId;
  Wire.LogicalThreadId = LogicalId;
  Wire.Sequence = B.Seq;
  writeSync(T, SyncKind::CallSend, 0, LogicalId, B.Seq);
}

void TracebackRuntime::onRpcServerRecv(Process &, Thread &T,
                                       const RpcWire &Wire) {
  if (!Wire.Present)
    return;
  // Learn about new partner runtimes (the runtime partner list).
  PartnerRuntimes.emplace(Wire.RuntimeId, machineNow());
  Binding &B = Bindings[T.Id];
  B.LogicalId = Wire.LogicalThreadId;
  B.Seq = Wire.Sequence + 1;
  writeSync(T, SyncKind::CallRecv, Wire.RuntimeId, B.LogicalId, B.Seq);
}

void TracebackRuntime::onRpcServerReply(Process &, Thread &T,
                                        RpcWire &Wire) {
  auto It = Bindings.find(T.Id);
  if (It == Bindings.end() || It->second.LogicalId == 0)
    return;
  Binding &B = It->second;
  ++B.Seq;
  writeSync(T, SyncKind::ReplySend, 0, B.LogicalId, B.Seq);
  Wire.Present = true;
  Wire.RuntimeId = RuntimeId;
  Wire.LogicalThreadId = B.LogicalId;
  Wire.Sequence = B.Seq;
}

void TracebackRuntime::onRpcClientReturn(Process &, Thread &T,
                                         const RpcWire &Wire) {
  if (!Wire.Present)
    return;
  PartnerRuntimes.emplace(Wire.RuntimeId, machineNow());
  Binding &B = Bindings[T.Id];
  B.LogicalId = Wire.LogicalThreadId;
  B.Seq = Wire.Sequence + 1;
  writeSync(T, SyncKind::ReplyRecv, Wire.RuntimeId, B.LogicalId, B.Seq);
}

// ----------------------------------------------------------------------------
// Cross-technology transitions within one process (section 3.3): treated
// as a simple form of distributed tracing, with the triple passed through
// the thread's out-of-band slot instead of a marshaled payload.
// ----------------------------------------------------------------------------

void TracebackRuntime::onTechTransition(Process &, Thread &T,
                                        Technology From, Technology To,
                                        bool IsCall) {
  if (IsCall && Tech == From) {
    uint64_t LogicalId = logicalThreadFor(T);
    Binding &B = Bindings[T.Id];
    ++B.Seq;
    T.TechWire = {RuntimeId, LogicalId, B.Seq, true};
    writeSync(T, SyncKind::CallSend, 0, LogicalId, B.Seq);
  } else if (IsCall && Tech == To) {
    if (!T.TechWire.Present)
      return;
    PartnerRuntimes.emplace(T.TechWire.RuntimeId, machineNow());
    Binding &B = Bindings[T.Id];
    B.LogicalId = T.TechWire.LogicalThreadId;
    B.Seq = T.TechWire.Sequence + 1;
    writeSync(T, SyncKind::CallRecv, T.TechWire.RuntimeId, B.LogicalId,
              B.Seq);
  } else if (!IsCall && Tech == From) {
    auto It = Bindings.find(T.Id);
    if (It == Bindings.end() || It->second.LogicalId == 0)
      return;
    Binding &B = It->second;
    ++B.Seq;
    T.TechWire = {RuntimeId, B.LogicalId, B.Seq, true};
    writeSync(T, SyncKind::ReplySend, 0, B.LogicalId, B.Seq);
  } else if (!IsCall && Tech == To) {
    if (!T.TechWire.Present)
      return;
    Binding &B = Bindings[T.Id];
    B.LogicalId = T.TechWire.LogicalThreadId;
    B.Seq = T.TechWire.Sequence + 1;
    writeSync(T, SyncKind::ReplyRecv, T.TechWire.RuntimeId, B.LogicalId,
              B.Seq);
  }
}
