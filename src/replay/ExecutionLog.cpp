//===- replay/ExecutionLog.cpp - Recorded nondeterminism (.tblog) ---------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "replay/ExecutionLog.h"

#include "support/ByteStream.h"
#include "support/Hash.h"

using namespace traceback;

static const uint32_t LogMagic = 0x474C4254; // 'TBLG'
static const uint32_t LogVersion = 1;

namespace {

enum LogSection : uint8_t {
  SecMeta = 1,
  SecGenesis = 2,
  SecEvents = 3,
  SecEnd = 4,
};

void patchU32At(std::vector<uint8_t> &Out, size_t Offset, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out[Offset + I] = static_cast<uint8_t>(V >> (I * 8));
}

/// Begins a [u8 id][u32 size] section; returns the size-patch offset.
size_t beginLogSection(std::vector<uint8_t> &Out, uint8_t Id) {
  Out.push_back(Id);
  size_t At = Out.size();
  Out.insert(Out.end(), 4, 0);
  return At;
}

void endLogSection(std::vector<uint8_t> &Out, size_t At) {
  patchU32At(Out, At, static_cast<uint32_t>(Out.size() - (At + 4)));
}

/// Reads one entry; false when the stream ends first (partial entry).
bool readEntry(ByteReader &R, LogEntry &E) {
  E.Kind = static_cast<LogEntryKind>(R.readU8());
  E.Ordinal = R.readVarU64();
  E.A = R.readVarU64();
  E.B = R.readVarU64();
  E.C = R.readVarU64();
  E.D = R.readVarU64();
  E.E = R.readVarU64();
  E.Note = R.readString();
  return !R.failed();
}

void writeMeta(ByteWriter &W, const ExecutionLog &L) {
  W.writeString(L.PolicyText);
  W.writeString(L.PlanText);
  W.writeU32(L.Quantum);
  W.writeU8(L.NetEnabled ? 1 : 0);
  W.writeU32(L.WindowCap);
  W.writeU64(L.DroppedHead);
}

bool readMeta(ByteReader &R, ExecutionLog &L) {
  L.PolicyText = R.readString();
  L.PlanText = R.readString();
  L.Quantum = R.readU32();
  L.NetEnabled = R.readU8() != 0;
  L.WindowCap = R.readU32();
  L.DroppedHead = R.readU64();
  return !R.failed();
}

void writeGenesis(ByteWriter &W, const ExecutionLog &L) {
  W.writeVarU64(L.Machines.size());
  for (const LogMachine &M : L.Machines) {
    W.writeString(M.Name);
    W.writeString(M.OsName);
    W.writeI64(M.ClockOffset);
    W.writeVarU64(M.RateNum);
    W.writeVarU64(M.RateDen);
    W.writeU8(M.IsCollector ? 1 : 0);
  }
  W.writeVarU64(L.Processes.size());
  for (const LogProcess &P : L.Processes) {
    W.writeU32(P.MachineIndex);
    W.writeString(P.Name);
    W.writeVarU64(P.Pid);
  }
  W.writeVarU64(L.Services.size());
  for (const LogService &S : L.Services) {
    W.writeU32(S.Service);
    W.writeVarU64(S.Pid);
  }
  W.writeVarU64(L.Deploys.size());
  for (const LogDeploy &D : L.Deploys) {
    W.writeVarU64(D.Pid);
    W.writeU8(D.Instrument ? 1 : 0);
    W.writeBlob(D.Image);
    W.writeU32(D.TilePathBits);
    W.writeU8((D.TileHeadersAtCallReturns ? 1 : 0) |
              (D.TileEveryBlockIsHeader ? 2 : 0) |
              (D.TileMergeCallReturnHeaders ? 4 : 0) |
              (D.LineBoundaryBlocks ? 8 : 0) | (D.ElideImpliedBits ? 16 : 0));
    W.writeU32(D.DagIdBase);
    W.writeU16(D.TlsSlot);
  }
  W.writeVarU64(L.Threads.size());
  for (const LogThread &T : L.Threads) {
    W.writeVarU64(T.Pid);
    W.writeVarU64(T.Tid);
    W.writeU64(T.EntryPC);
    W.writeU64(T.Arg);
  }
}

bool readGenesis(ByteReader &R, ExecutionLog &L) {
  uint64_t N = R.readVarU64();
  for (uint64_t I = 0; I < N && !R.failed(); ++I) {
    LogMachine M;
    M.Name = R.readString();
    M.OsName = R.readString();
    M.ClockOffset = R.readI64();
    M.RateNum = R.readVarU64();
    M.RateDen = R.readVarU64();
    M.IsCollector = R.readU8() != 0;
    L.Machines.push_back(std::move(M));
  }
  N = R.readVarU64();
  for (uint64_t I = 0; I < N && !R.failed(); ++I) {
    LogProcess P;
    P.MachineIndex = R.readU32();
    P.Name = R.readString();
    P.Pid = R.readVarU64();
    L.Processes.push_back(std::move(P));
  }
  N = R.readVarU64();
  for (uint64_t I = 0; I < N && !R.failed(); ++I) {
    LogService S;
    S.Service = R.readU32();
    S.Pid = R.readVarU64();
    L.Services.push_back(S);
  }
  N = R.readVarU64();
  for (uint64_t I = 0; I < N && !R.failed(); ++I) {
    LogDeploy D;
    D.Pid = R.readVarU64();
    D.Instrument = R.readU8() != 0;
    D.Image = R.readBlob();
    D.TilePathBits = R.readU32();
    uint8_t Flags = R.readU8();
    D.TileHeadersAtCallReturns = Flags & 1;
    D.TileEveryBlockIsHeader = Flags & 2;
    D.TileMergeCallReturnHeaders = Flags & 4;
    D.LineBoundaryBlocks = Flags & 8;
    D.ElideImpliedBits = Flags & 16;
    D.DagIdBase = R.readU32();
    D.TlsSlot = R.readU16();
    L.Deploys.push_back(std::move(D));
  }
  N = R.readVarU64();
  for (uint64_t I = 0; I < N && !R.failed(); ++I) {
    LogThread T;
    T.Pid = R.readVarU64();
    T.Tid = R.readVarU64();
    T.EntryPC = R.readU64();
    T.Arg = R.readU64();
    L.Threads.push_back(T);
  }
  return !R.failed();
}

} // namespace

const char *traceback::logEntryKindName(LogEntryKind K) {
  switch (K) {
  case LogEntryKind::Sched:
    return "sched";
  case LogEntryKind::Rand:
    return "rand";
  case LogEntryKind::Wire:
    return "wire";
  case LogEntryKind::Net:
    return "net";
  case LogEntryKind::Anchor:
    return "anchor";
  case LogEntryKind::Fired:
    return "fired";
  }
  return "unknown";
}

namespace {

/// Writes the header, META and GENESIS of \p L, then opens EVENTS and
/// writes its entry count. Returns the EVENTS size-patch offset.
size_t beginLog(std::vector<uint8_t> &Out, const ExecutionLog &L,
                uint64_t Count) {
  ByteWriter W(Out);
  W.writeU32(LogMagic);
  W.writeU32(LogVersion);

  size_t At = beginLogSection(Out, SecMeta);
  writeMeta(W, L);
  endLogSection(Out, At);

  At = beginLogSection(Out, SecGenesis);
  writeGenesis(W, L);
  endLogSection(Out, At);

  // The event stream is appended chronologically with self-delimiting
  // entries: truncating the byte stream anywhere in here loses exactly a
  // suffix of the recorded history.
  At = beginLogSection(Out, SecEvents);
  W.writeVarU64(Count);
  return At;
}

/// Closes the EVENTS section opened at \p EventsAt and appends END.
void endLog(std::vector<uint8_t> &Out, size_t EventsAt) {
  endLogSection(Out, EventsAt);
  size_t At = beginLogSection(Out, SecEnd);
  // The END checksum covers everything before SecEnd's id.
  ByteWriter(Out).writeU64(fnv1a64(Out.data(), At - 1, Fnv1a64Basis));
  endLogSection(Out, At);
}

} // namespace

std::vector<uint8_t> ExecutionLog::serialize() const {
  std::vector<uint8_t> Out;
  size_t At = beginLog(Out, *this, Entries.size());
  size_t Max = 0;
  for (const LogEntry &E : Entries)
    Max += maxLogEntrySize(E.Note.size());
  size_t Start = Out.size();
  Out.resize(Start + Max);
  uint8_t *P = Out.data() + Start;
  for (const LogEntry &E : Entries)
    P = putLogEntry(P, E.Kind, E.Ordinal, E.A, E.B, E.C, E.D, E.E, E.Note);
  Out.resize(static_cast<size_t>(P - Out.data()));
  endLog(Out, At);
  return Out;
}

std::vector<uint8_t> ExecutionLog::serializeEncoded(const uint8_t *Events,
                                                    size_t Size,
                                                    uint64_t Count) const {
  // Out grows from empty on purpose: reserving it, exactly or for META
  // and GENESIS only, changed how the heap was reused and took a recorded
  // bench_replay run from ~13 to 43-57 page faults.
  std::vector<uint8_t> Out;
  size_t At = beginLog(Out, *this, Count);
  Out.insert(Out.end(), Events, Events + Size);
  endLog(Out, At);
  return Out;
}

bool ExecutionLog::deserialize(const std::vector<uint8_t> &Bytes,
                               ExecutionLog &Out) {
  Out = ExecutionLog();
  ByteReader R(Bytes);
  if (R.readU32() != LogMagic || R.readU32() != LogVersion || R.failed())
    return false;

  // Until proven intact by a checksummed END section, the log counts as
  // truncated — the crash-consistency contract.
  Out.Truncated = true;
  bool SawMeta = false, SawGenesis = false;

  while (!R.atEnd()) {
    size_t SecIdAt = R.position();
    uint8_t Id = R.readU8();
    uint32_t Size = R.readU32();
    if (R.failed() || R.remaining() < Size) {
      // The section header or body was cut off. Tolerable only once the
      // world-rebuild sections are in hand — and a cut EVENTS body still
      // yields every complete entry it managed to flush.
      if (!SawMeta || !SawGenesis)
        return false;
      if (!R.failed() && Id == SecEvents && R.remaining() > 0) {
        ByteReader SR(Bytes.data() + R.position(), R.remaining());
        uint64_t Declared = SR.readVarU64();
        for (uint64_t I = 0; I < Declared && !SR.failed(); ++I) {
          LogEntry E;
          if (!readEntry(SR, E))
            break;
          Out.Entries.push_back(std::move(E));
        }
      }
      return true;
    }
    ByteReader SR(Bytes.data() + R.position(), Size);
    switch (Id) {
    case SecMeta:
      if (!readMeta(SR, Out))
        return false;
      SawMeta = true;
      break;
    case SecGenesis:
      if (!readGenesis(SR, Out))
        return false;
      SawGenesis = true;
      break;
    case SecEvents: {
      // Greedy entry recovery: keep every complete entry, drop a trailing
      // partial one. The declared count is written before the entries, so
      // a cut stream may declare more than it holds — trust the entries.
      uint64_t Declared = SR.readVarU64();
      for (uint64_t I = 0; I < Declared; ++I) {
        LogEntry E;
        if (!readEntry(SR, E))
          break;
        Out.Entries.push_back(std::move(E));
      }
      break;
    }
    case SecEnd: {
      uint64_t Want = SR.readU64();
      if (!SR.failed() && SawMeta && SawGenesis &&
          Want == fnv1a64(Bytes.data(), SecIdAt, Fnv1a64Basis))
        Out.Truncated = false;
      break;
    }
    default:
      break; // Unknown section: skip (forward compat).
    }
    R.skip(Size);
  }
  return SawMeta && SawGenesis;
}
