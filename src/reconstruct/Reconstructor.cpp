//===- reconstruct/Reconstructor.cpp - Trace reconstruction ---------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "reconstruct/Reconstructor.h"

#include "reconstruct/RecordRecovery.h"
#include "support/Metrics.h"
#include "support/Text.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>

using namespace traceback;

namespace {

/// Estimated heap bytes of one registered mapfile: the container
/// payloads that dominate a parsed map. Deliberately an estimate — the
/// gauge answers "roughly how much memory do resident stores hold", not
/// an allocator audit.
uint64_t mapResidentBytes(const MapFile &M) {
  uint64_t B = sizeof(MapFile) + M.ModuleName.size();
  for (const std::string &F : M.Files)
    B += sizeof(std::string) + F.size();
  for (const MapDag &D : M.Dags) {
    B += sizeof(MapDag);
    for (const MapBlock &Blk : D.Blocks)
      B += sizeof(MapBlock) + Blk.Succs.size() * sizeof(uint16_t) +
           Blk.Lines.size() * sizeof(MapLine) + Blk.Function.size();
  }
  return B;
}

} // namespace

bool MapFileStore::add(MapFile Map, std::string *Warning) {
  uint64_t Key = Map.Checksum.low64();
  Resident.add(static_cast<int64_t>(mapResidentBytes(Map)));
  if (size_t *Slot = Index.find(Key)) {
    // Last add wins: overwrite the existing slot instead of leaving the
    // index pointing at a stale mapfile.
    if (Warning)
      *Warning = formatv("mapfile for checksum %s registered twice "
                         "(module %s replaces %s); keeping the newest",
                         Map.Checksum.toHex().c_str(),
                         Map.ModuleName.c_str(),
                         Maps[*Slot].ModuleName.c_str());
    Resident.add(-static_cast<int64_t>(mapResidentBytes(Maps[*Slot])));
    Maps[*Slot] = std::move(Map);
    return false;
  }
  Index.insertOrAssign(Key, Maps.size());
  Maps.push_back(std::move(Map));
  return true;
}

bool MapFileStore::addFromFile(const std::string &Path,
                               std::string *Warning) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  // Exact-size buffer, one read: the transient footprint of a bulk load
  // is one file, not the directory.
  bool Ok = std::fseek(F, 0, SEEK_END) == 0;
  long Size = Ok ? std::ftell(F) : -1;
  Ok = Ok && Size >= 0 && std::fseek(F, 0, SEEK_SET) == 0;
  std::vector<uint8_t> Bytes;
  if (Ok) {
    Bytes.resize(static_cast<size_t>(Size));
    Ok = Bytes.empty() ||
         std::fread(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  }
  std::fclose(F);
  MapFile Map;
  if (!Ok || !MapFile::deserialize(Bytes, Map))
    return false;
  add(std::move(Map), Warning);
  return true;
}

const MapFile *MapFileStore::byChecksum(const MD5Digest &Digest) const {
  return byKey(Digest.low64());
}

const MapFile *MapFileStore::byKey(uint64_t ChecksumLow64) const {
  const size_t *Slot = Index.find(ChecksumLow64);
  return Slot ? &Maps[*Slot] : nullptr;
}

// ----------------------------------------------------------------------------
// DAG path decoding.
// ----------------------------------------------------------------------------

std::vector<uint16_t> traceback::decodeDagPath(const MapDag &Dag,
                                               uint32_t PathBits) {
  if (Dag.Blocks.empty())
    return {};

  const size_t BlockCount = Dag.Blocks.size();

  // Elision expansion: a v3 mapfile built with probe elision keeps every
  // path bit allocated but emits no probe for bits the placement pass
  // proved implied. Reinsert them before the path search — a block elided
  // as always-executed (ElidedBy -1) contributes its bit unconditionally,
  // and a block elided under a dominating implier contributes its bit
  // whenever the implier's recorded bit is present. Impliers are never
  // themselves elided, so a single pass over the raw bits suffices.
  uint32_t Expanded = PathBits;
  for (const MapBlock &B : Dag.Blocks) {
    if (B.BitIndex < 0 || B.ElidedBy == static_cast<int8_t>(-2))
      continue;
    if (B.ElidedBy == static_cast<int8_t>(-1) ||
        (PathBits & (1u << B.ElidedBy)))
      Expanded |= 1u << B.BitIndex;
  }

  // Depth-first search for the root path whose bit-set equals Target,
  // with an explicit frame stack: DAGs from healthy mapfiles are tiny,
  // but fuzzed/corrupt ones can chain implied blocks arbitrarily deep,
  // and recursion depth must not be attacker-controlled. Returns false on
  // bit-sets inconsistent with the DAG shape; an empty Path signals
  // cyclic (corrupt) map data the caller must not retry.
  auto Search = [&](uint32_t Target, std::vector<uint16_t> &Path) {
    struct Frame {
      uint16_t Cur;
      uint32_t Used;
      uint32_t NextSucc;
    };
    std::vector<Frame> Frames;
    Path.assign(1, 0);
    Frames.push_back({0, 0, 0});

    while (!Frames.empty()) {
      // First visit of a node: success test.
      if (Frames.back().NextSucc == 0 && Frames.back().Used == Target)
        return true;
      const MapBlock &B = Dag.Blocks[Frames.back().Cur];
      const uint32_t Used = Frames.back().Used;
      bool Descended = false;
      while (Frames.back().NextSucc < B.Succs.size()) {
        uint16_t S = B.Succs[Frames.back().NextSucc++];
        if (S >= BlockCount)
          continue; // Corrupt successor index: ignore the edge.
        const MapBlock &SB = Dag.Blocks[S];
        uint32_t ChildUsed;
        if (SB.BitIndex >= 0) {
          uint32_t Bit = 1u << SB.BitIndex;
          if (!(Target & Bit) || (Used & Bit))
            continue;
          ChildUsed = Used | Bit;
        } else if (B.Succs.size() == 1) {
          // Implied block: execution is certain if the predecessor ran.
          ChildUsed = Used;
        } else {
          continue;
        }
        // A simple path through an acyclic graph can't exceed the block
        // count; longer means cyclic (corrupt) map data — fail the
        // decode rather than walking it forever.
        if (Path.size() >= BlockCount) {
          Path.clear();
          return false;
        }
        Path.push_back(S);
        Frames.push_back({S, ChildUsed, 0});
        Descended = true;
        break;
      }
      if (Descended)
        continue;
      Frames.pop_back();
      if (!Frames.empty())
        Path.pop_back(); // The root's slot in Path stays.
    }
    return false;
  };

  std::vector<uint16_t> Path;
  bool Found = Search(Expanded, Path);
  // A torn record's surviving bits can make the expansion inconsistent
  // (an implier bit present, the actual path absent). Retry with the raw
  // recorded bits before giving up — never after a cyclic-map abort.
  if (!Found && Expanded != PathBits && !Path.empty())
    Found = Search(PathBits, Path);
  if (!Found)
    return {}; // Bits inconsistent with the DAG shape: corrupted record.

  // Extend through forced single-successor no-bit chains: those blocks ran
  // if control left the last bit block normally. The visited bitmap
  // guards against malformed cyclic map data (stop at the first revisit,
  // in linear time even for very long chains).
  std::vector<bool> OnPath(BlockCount, false);
  for (uint16_t BI : Path)
    OnPath[BI] = true;
  for (;;) {
    const MapBlock &Last = Dag.Blocks[Path.back()];
    if (Last.Succs.size() != 1 || Last.Succs[0] >= BlockCount)
      break;
    const MapBlock &Next = Dag.Blocks[Last.Succs[0]];
    if (Next.BitIndex >= 0)
      break; // Unset bit: execution stopped or left the DAG here.
    if (OnPath[Last.Succs[0]])
      break;
    OnPath[Last.Succs[0]] = true;
    Path.push_back(Last.Succs[0]);
  }
  return Path;
}

// ----------------------------------------------------------------------------
// Event emission.
// ----------------------------------------------------------------------------

namespace {

/// Builder state for one thread's events. With \p Legacy set it
/// reproduces the original per-record resolution and decoding exactly
/// (the benchmark baseline); otherwise module/mapfile/DAG resolution is
/// memoized per DAG id and decoding goes through the shared cache when
/// one is supplied.
class ThreadBuilder {
public:
  ThreadBuilder(const SnapFile &Snap, const MapFileStore &Maps,
                std::vector<std::string> &Warnings, DagPathCache *Cache,
                bool Legacy)
      : Snap(Snap), Maps(Maps), Warnings(Warnings), Cache(Cache),
        Legacy(Legacy) {}

  std::vector<TraceEvent> build(const ThreadSegment &Segment);

private:
  /// Resolution result for one DAG id, failure diagnostics included.
  struct ResolvedDag {
    const SnapModuleInfo *Mod = nullptr;
    const MapFile *Map = nullptr;
    const MapDag *Dag = nullptr;
    /// Diagnostic re-emitted for every record that hits this DAG id
    /// (empty on success) — memoization must not change the warning
    /// stream the original per-record path produced.
    std::string Warning;
    /// Module label of the Untraced placeholder event on failure.
    std::string UntracedLabel;
    /// Interned names, precomputed once per DAG id so event emission is
    /// pointer stores (memoized mode only; legacy interns per event).
    InternedString ModName;
    std::vector<InternedString> FileNames; ///< By mapfile file index.
    std::vector<InternedString> BlockFuncs; ///< By DAG-local block index.
  };

  ResolvedDag resolveFresh(uint32_t DagId) const;
  const ResolvedDag &resolveMemoized(uint32_t DagId);

  void emitDagRecord(uint32_t Word);
  void emitExt(const ExtRecord &Rec);
  void applyExceptionTrim(const TraceEvent &Exc);
  void collapseRedundancy(std::vector<TraceEvent> &Events,
                          std::vector<uint64_t> &Provenance);

  const SnapModuleInfo *moduleForDagId(uint32_t DagId) const;

  const SnapFile &Snap;
  const MapFileStore &Maps;
  std::vector<std::string> &Warnings;
  DagPathCache *Cache;
  const bool Legacy;

  /// DAG id -> resolution, one entry per distinct id seen in this
  /// segment (snap module tables are per-snap, so the memo cannot
  /// outlive the builder).
  FlatMap64<ResolvedDag> ResolveMemo;

  /// (DAG id << PathBitCount | path bits) -> decoded path. Lock-free
  /// fast path in front of the shared cache: only the first sighting of
  /// a pair in this segment takes the cache's shard mutex (or, with the
  /// cache disabled, runs the DFS). DAG ids are unique across a snap's
  /// modules, so the key cannot collide.
  FlatMap64<SharedDagPath> PathMemo;

  std::vector<TraceEvent> Events;
  /// Per event: (record serial << 32) | block start offset — provenance
  /// for the redundancy-vs-repetition heuristic.
  std::vector<uint64_t> Provenance;

  uint32_t Depth = 0;
  bool PendingCall = false;
  uint64_t LastTs = 0;
  uint64_t RecordSerial = 0;

  /// Info about the most recent DAG record, for exception trimming.
  struct LastDagInfo {
    bool Valid = false;
    uint64_t ModuleKey = 0;
    const MapFile *Map = nullptr;
    const MapDag *Dag = nullptr;
    /// The decoded path. In legacy mode \p Owner holds the record's own
    /// decode; in memoized mode it stays null — the pointee belongs to
    /// PathMemo, which outlives this record.
    const std::vector<uint16_t> *Path = nullptr;
    SharedDagPath Owner;
    /// Index of the record's first event in Events. Trim offsets derive
    /// from it: a path block always appends exactly its line count.
    size_t EventsBase = 0;
    /// For each path position: index of its first Line event in Events.
    /// Built eagerly in legacy mode only (the pre-PR per-record cost);
    /// memoized mode computes trim offsets from EventsBase on demand.
    std::vector<size_t> FirstEvent;
  } LastDag;
};

const SnapModuleInfo *ThreadBuilder::moduleForDagId(uint32_t DagId) const {
  // Prefer live modules; fall back to unloaded ones whose stale records
  // may survive in the ring.
  const SnapModuleInfo *Fallback = nullptr;
  for (const SnapModuleInfo &M : Snap.Modules) {
    if (!M.Instrumented || M.DagIdCount == 0)
      continue;
    if (DagId < M.DagIdBase || DagId >= M.DagIdBase + M.DagIdCount)
      continue;
    if (!M.Unloaded)
      return &M;
    Fallback = &M;
  }
  return Fallback;
}

ThreadBuilder::ResolvedDag ThreadBuilder::resolveFresh(uint32_t DagId) const {
  ResolvedDag R;
  R.Mod = moduleForDagId(DagId);
  if (!R.Mod) {
    R.Warning =
        formatv("dag id %u matches no module in the snap metadata", DagId);
    R.UntracedLabel = "<unknown module>";
    return R;
  }
  R.Map = Maps.byChecksum(R.Mod->Checksum);
  if (!R.Map) {
    R.Warning = formatv("no mapfile for module %s (checksum %s)",
                        R.Mod->Name.c_str(),
                        R.Mod->Checksum.toHex().c_str());
    R.UntracedLabel = "<no mapfile: " + R.Mod->Name + ">";
    return R;
  }
  // The mapfile stores DAGs by instrumentation-time relative id; the snap
  // metadata gives the module's actual (post-rebase) base.
  R.Dag = R.Map->dagByRelId(DagId - R.Mod->DagIdBase);
  if (!R.Dag) {
    R.Warning = formatv("module %s has no dag %u", R.Mod->Name.c_str(),
                        DagId - R.Mod->DagIdBase);
    R.UntracedLabel = "<bad dag id>";
  }
  return R;
}

const ThreadBuilder::ResolvedDag &
ThreadBuilder::resolveMemoized(uint32_t DagId) {
  if (const ResolvedDag *Found = ResolveMemo.find(DagId))
    return *Found;
  ResolvedDag R = resolveFresh(DagId);
  if (R.Dag) {
    // Intern every name the DAG's events can carry, once per id.
    R.ModName = InternedString(R.Mod->Name);
    R.FileNames.reserve(R.Map->Files.size());
    for (const std::string &F : R.Map->Files)
      R.FileNames.push_back(InternedString(F));
    R.BlockFuncs.reserve(R.Dag->Blocks.size());
    for (const MapBlock &B : R.Dag->Blocks)
      R.BlockFuncs.push_back(InternedString(B.Function));
  }
  ResolveMemo.insertOrAssign(DagId, std::move(R));
  return *ResolveMemo.find(DagId);
}

void ThreadBuilder::emitDagRecord(uint32_t Word) {
  ++RecordSerial;
  if (Legacy) {
    LastDag = LastDagInfo(); // Pre-PR behaviour: frees FirstEvent's
                             // buffer on every record.
  } else {
    LastDag.Valid = false;
    LastDag.Path = nullptr;
  }
  uint32_t DagId = dagIdOfRecord(Word);
  uint32_t Bits = pathBitsOfRecord(Word);

  auto EmitUntraced = [&](const std::string &Why) {
    TraceEvent E;
    E.EventKind = TraceEvent::Kind::Untraced;
    E.Module = Why;
    E.Timestamp = LastTs;
    E.Depth = Depth;
    Events.push_back(std::move(E));
    Provenance.push_back(RecordSerial << 32);
    PendingCall = false;
  };

  if (DagId == BadDagId) {
    EmitUntraced("<bad-dag module>");
    return;
  }

  ResolvedDag Fresh;
  const ResolvedDag &R = Legacy ? (Fresh = resolveFresh(DagId))
                                : resolveMemoized(DagId);
  if (!R.Warning.empty())
    Warnings.push_back(R.Warning);
  if (!R.Dag) {
    EmitUntraced(R.UntracedLabel);
    return;
  }
  const SnapModuleInfo *Mod = R.Mod;
  const MapFile *Map = R.Map;
  const MapDag *Dag = R.Dag;

  const std::vector<uint16_t> *Path = nullptr;
  SharedDagPath Owned;
  if (Legacy) {
    Owned = std::make_shared<const std::vector<uint16_t>>(
        decodeDagPath(*Dag, Bits));
    Path = Owned.get();
  } else {
    uint64_t Key = (static_cast<uint64_t>(DagId) << PathBitCount) | Bits;
    if (const SharedDagPath *Found = PathMemo.find(Key)) {
      Path = Found->get();
    } else {
      Owned = Cache ? Cache->decode(Mod->Checksum.low64(), *Dag, Bits)
                    : std::make_shared<const std::vector<uint16_t>>(
                          decodeDagPath(*Dag, Bits));
      PathMemo.insertOrAssign(Key, Owned);
      Path = Owned.get();
    }
  }
  if (Path->empty()) {
    Warnings.push_back(
        formatv("module %s dag %u: path bits 0x%x do not decode",
                Mod->Name.c_str(), DagId - Mod->DagIdBase, Bits));
    EmitUntraced("<undecodable path>");
    return;
  }

  LastDag.Valid = true;
  LastDag.ModuleKey = Mod->Checksum.low64();
  LastDag.Map = Map;
  LastDag.Dag = Dag;
  LastDag.Path = Path;
  LastDag.Owner = std::move(Owned);
  LastDag.EventsBase = Events.size();
  if (Legacy)
    LastDag.FirstEvent.reserve(Path->size());

  for (uint16_t BI : *Path) {
    const MapBlock &B = Dag->Blocks[BI];
    if (Legacy)
      LastDag.FirstEvent.push_back(Events.size());
    if ((B.Flags & MBF_FuncEntry) && PendingCall)
      ++Depth;
    PendingCall = false;
    for (const MapLine &L : B.Lines) {
      TraceEvent E;
      E.EventKind = TraceEvent::Kind::Line;
      if (Legacy) {
        // Per-event interning: the pre-PR cost shape (three per-event
        // string operations), without keeping a second event type.
        E.Module = InternedString(Mod->Name);
        E.File = InternedString(Map->fileName(L.FileIndex));
        E.Function = InternedString(B.Function);
      } else {
        E.Module = R.ModName;
        E.File = L.FileIndex < R.FileNames.size()
                     ? R.FileNames[L.FileIndex]
                     : InternedString(Map->fileName(L.FileIndex));
        E.Function = R.BlockFuncs[BI];
      }
      E.Line = L.Line;
      E.BlockFlags = B.Flags;
      E.Depth = Depth;
      E.Timestamp = LastTs;
      Events.push_back(E);
      Provenance.push_back((RecordSerial << 32) | B.StartOffset);
    }
    if (B.Flags & MBF_EndsInRet) {
      if (Depth > 0)
        --Depth;
    }
    if (B.Flags & MBF_EndsInCall)
      PendingCall = true;
  }
}

void ThreadBuilder::applyExceptionTrim(const TraceEvent &Exc) {
  // Trim the lines of the most recent DAG record using the exception
  // address (section 4.2). An address outside the path's blocks means the
  // fault happened in a callee (possibly uninstrumented); the trace then
  // correctly stops at the block that ends in the call.
  if (!LastDag.Valid || Exc.FaultModuleKey != LastDag.ModuleKey)
    return;
  uint32_t Off = Exc.FaultOffset;
  const std::vector<uint16_t> &Path = *LastDag.Path;
  // Memoized mode does not materialize FirstEvent per record; the
  // running sum recomputes it (a block always appends exactly its line
  // count, so indices are a prefix sum over the path).
  size_t Running = LastDag.EventsBase;
  for (size_t PI = 0; PI < Path.size(); ++PI) {
    const MapBlock &B = LastDag.Dag->Blocks[Path[PI]];
    if (Off < B.StartOffset || Off >= B.EndOffset) {
      Running += B.Lines.size();
      continue;
    }
    bool Eager = !LastDag.FirstEvent.empty();
    // Drop events of later path blocks.
    size_t NextFirst = Eager ? (PI + 1 < LastDag.FirstEvent.size()
                                    ? LastDag.FirstEvent[PI + 1]
                                    : Events.size())
                             : (PI + 1 < Path.size()
                                    ? Running + B.Lines.size()
                                    : Events.size());
    size_t CutFrom = NextFirst;
    // Within the faulting block, drop lines that start after the fault.
    size_t BlockFirst = Eager ? LastDag.FirstEvent[PI] : Running;
    for (size_t EI = BlockFirst; EI < CutFrom; ++EI) {
      // Line events only; provenance low bits hold the block start.
      const MapLine *Found = nullptr;
      for (const MapLine &L : B.Lines)
        if (L.Line == Events[EI].Line && L.StartOffset > Off)
          Found = &L;
      if (Found) {
        CutFrom = EI;
        break;
      }
    }
    if (CutFrom < Events.size()) {
      Events.resize(CutFrom);
      Provenance.resize(CutFrom);
    }
    if (!Events.empty() &&
        Events.back().EventKind == TraceEvent::Kind::Line)
      Events.back().Trimmed = true;
    LastDag.Valid = false;
    return;
  }
}

void ThreadBuilder::emitExt(const ExtRecord &Rec) {
  auto Payload = [&](size_t I) {
    return I < Rec.Payload.size() ? Rec.Payload[I] : 0;
  };
  switch (Rec.Type) {
  case ExtType::Timestamp:
    LastTs = Payload(0);
    return;
  case ExtType::Sync: {
    TraceEvent E;
    E.EventKind = TraceEvent::Kind::Sync;
    E.Sync = static_cast<SyncKind>(Rec.Inline);
    E.LogicalThreadId = Payload(0);
    E.Sequence = Payload(1);
    E.PeerRuntimeId = Payload(2);
    LastTs = Payload(3);
    E.Timestamp = LastTs;
    E.Depth = Depth;
    Events.push_back(std::move(E));
    Provenance.push_back(0);
    return;
  }
  case ExtType::Exception: {
    TraceEvent E;
    E.EventKind = TraceEvent::Kind::Exception;
    E.FaultCodeValue = Rec.Inline;
    E.FaultModuleKey = Payload(0);
    E.FaultOffset = static_cast<uint32_t>(Payload(1));
    LastTs = Payload(2);
    E.Timestamp = LastTs;
    E.Depth = Depth;
    applyExceptionTrim(E);
    Events.push_back(std::move(E));
    Provenance.push_back(0);
    return;
  }
  case ExtType::ExceptionEnd: {
    TraceEvent E;
    E.EventKind = TraceEvent::Kind::ExceptionEnd;
    E.FaultCodeValue = Rec.Inline;
    LastTs = Payload(0);
    E.Timestamp = LastTs;
    E.Depth = Depth;
    Events.push_back(std::move(E));
    Provenance.push_back(0);
    return;
  }
  case ExtType::ThreadStart:
  case ExtType::ThreadEnd: {
    TraceEvent E;
    E.EventKind = Rec.Type == ExtType::ThreadStart
                      ? TraceEvent::Kind::ThreadStart
                      : TraceEvent::Kind::ThreadEnd;
    LastTs = Payload(1);
    E.Timestamp = LastTs;
    Events.push_back(std::move(E));
    Provenance.push_back(0);
    return;
  }
  case ExtType::TimestampBatch:
    // N batched samples, oldest first — equivalent to N sequential
    // Timestamp records at the flush point.
    if (!Rec.Payload.empty())
      LastTs = Rec.Payload.back();
    return;
  case ExtType::SnapMark:
  case ExtType::Pad:
    return; // Pads exist only to absorb stray lightweight OR bits.
  case ExtType::Telemetry:
    // Telemetry lives in the snap's dedicated stream, never in a thread
    // ring buffer; a TELEMETRY record inside one is corruption — skip it.
    return;
  }
}

void ThreadBuilder::collapseRedundancy(std::vector<TraceEvent> &Evs,
                                       std::vector<uint64_t> &Prov) {
  // Adjacent identical lines are either redundant expansions of one
  // expression split across blocks (merge silently) or genuine repeated
  // executions, e.g. a loop body on one line (merge with a repeat count) —
  // the heuristic of section 4.2: a repeat is recognized by control moving
  // backward or a new trace record starting.
  if (!Legacy) {
    // In-place compaction: events are trivially copyable, and most keep
    // their slot, so no second arena and no per-event copy.
    size_t W = 0;
    for (size_t I = 0; I < Evs.size(); ++I) {
      TraceEvent &E = Evs[I];
      if (E.EventKind == TraceEvent::Kind::Line && W > 0) {
        TraceEvent &P = Evs[W - 1];
        if (P.EventKind == TraceEvent::Kind::Line &&
            P.Module == E.Module && P.File == E.File && P.Line == E.Line &&
            P.Depth == E.Depth) {
          uint64_t PrevProv = Prov[W - 1];
          uint64_t CurProv = Prov[I];
          bool NewRecord = (CurProv >> 32) != (PrevProv >> 32);
          bool Backward = (CurProv & 0xFFFFFFFF) <= (PrevProv & 0xFFFFFFFF);
          if (NewRecord || Backward)
            ++P.Repeat;
          P.BlockFlags |= E.BlockFlags;
          P.Trimmed = E.Trimmed;
          Prov[W - 1] = CurProv;
          continue;
        }
      }
      if (W != I) {
        Evs[W] = E;
        Prov[W] = Prov[I];
      }
      ++W;
    }
    Evs.resize(W);
    Prov.resize(W);
    return;
  }

  std::vector<TraceEvent> Out;
  std::vector<uint64_t> OutProv;
  Out.reserve(Evs.size());
  OutProv.reserve(Prov.size());
  for (size_t I = 0; I < Evs.size(); ++I) {
    TraceEvent &E = Evs[I];
    if (E.EventKind == TraceEvent::Kind::Line && !Out.empty()) {
      TraceEvent &P = Out.back();
      if (P.EventKind == TraceEvent::Kind::Line && P.Module == E.Module &&
          P.File == E.File && P.Line == E.Line && P.Depth == E.Depth) {
        uint64_t PrevProv = OutProv.back();
        uint64_t CurProv = Prov[I];
        bool NewRecord = (CurProv >> 32) != (PrevProv >> 32);
        bool Backward = (CurProv & 0xFFFFFFFF) <= (PrevProv & 0xFFFFFFFF);
        if (NewRecord || Backward)
          ++P.Repeat; // Loop-style repetition.
        // Either way the adjacent duplicate is merged; keep the newest
        // flags so call/ret annotations survive.
        P.BlockFlags |= E.BlockFlags;
        P.Trimmed = E.Trimmed;
        OutProv.back() = CurProv;
        continue;
      }
    }
    Out.push_back(std::move(E));
    OutProv.push_back(Prov[I]);
  }
  Evs = std::move(Out);
  Prov = std::move(OutProv);
}

std::vector<TraceEvent> ThreadBuilder::build(const ThreadSegment &Segment) {
  Events.clear();
  Provenance.clear();
  Depth = 0;
  PendingCall = false;
  LastTs = 0;
  RecordSerial = 0;
  LastDag = LastDagInfo();

  if (!Legacy) {
    // Arena-style reservation: a DAG record expands to a handful of line
    // events, so records*6 absorbs nearly every growth-doubling (an
    // over-estimate only costs transient address space; the collapsed
    // output vector is what the caller keeps).
    Events.reserve(Segment.Records.size() * 6);
    Provenance.reserve(Segment.Records.size() * 6);
  }

  for (const ParsedRecord &R : Segment.Records) {
    if (R.RecordKind == ParsedRecord::Kind::Dag)
      emitDagRecord(R.DagWord);
    else
      emitExt(R.Ext);
  }
  collapseRedundancy(Events, Provenance);
  return std::move(Events);
}

} // namespace

// ----------------------------------------------------------------------------
// Reconstructor.
// ----------------------------------------------------------------------------

Reconstructor::Reconstructor(const MapFileStore &Maps,
                             const ReconstructOptions &Opts,
                             MetricsRegistry *Metrics)
    : Maps(Maps), Opts(Opts),
      Cache(Metrics ? *Metrics : MetricsRegistry::global()) {
  MetricsRegistry &Reg = Metrics ? *Metrics : MetricsRegistry::global();
  M.Snaps = &Reg.counter("reconstruct.snaps");
  M.Records = &Reg.counter("reconstruct.records");
  M.SnapUs = &Reg.histogram("reconstruct.snap_us");
  M.PhaseRecoverUs = &Reg.histogram("reconstruct.phase_recover_us");
  M.PhaseBuildUs = &Reg.histogram("reconstruct.phase_build_us");
  M.PhaseMergeUs = &Reg.histogram("reconstruct.phase_merge_us");
}

namespace {
/// Microseconds since \p Since, for the per-phase wall-time histograms.
/// Timing never feeds back into decoding, so metrics cannot perturb the
/// reconstructed bytes.
uint64_t usSince(std::chrono::steady_clock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Since)
          .count());
}
} // namespace

ReconstructedTrace Reconstructor::reconstruct(const SnapFile &Snap,
                                              ThreadPool *Pool) const {
  auto SnapStart = std::chrono::steady_clock::now();
  ReconstructedTrace Result;
  const bool Legacy = Opts.Cache.LegacyUncached;
  DagPathCache *CachePtr =
      (!Legacy && Opts.Cache.Enabled) ? &Cache : nullptr;
  if (Legacy)
    Pool = nullptr; // The baseline is strictly single-threaded.

  M.Snaps->add();
  if (!Snap.Telemetry.empty()) {
    std::string Json;
    if (decodeTelemetryRecords(Snap.Telemetry, Json))
      Result.TelemetryJson = std::move(Json);
    else
      Result.Warnings.push_back("snap telemetry stream is torn; ignored");
  }

  // Phase 1: recover each buffer's per-thread record segments. Buffers
  // are independent; results land in slots indexed by buffer.
  auto PhaseStart = std::chrono::steady_clock::now();
  struct BufferWork {
    std::vector<ThreadSegment> Segments;
    std::vector<std::string> Warnings;
  };
  std::vector<BufferWork> Recovered(Snap.Buffers.size());
  parallelForIndex(Pool, Snap.Buffers.size(), [&](size_t I) {
    Recovered[I].Segments = recoverBufferRecords(
        Snap.Buffers[I], Snap.Threads, Recovered[I].Warnings);
  });
  M.PhaseRecoverUs->observe(usSince(PhaseStart));

  // Phase 2: build each non-empty segment's events. Segments are
  // flattened in (buffer, segment) order so the later merge is a linear
  // walk in that same order.
  PhaseStart = std::chrono::steady_clock::now();
  struct SegmentTask {
    const ThreadSegment *Seg = nullptr;
    ThreadTrace Trace;
    std::vector<std::string> Warnings;
    bool Keep = false;
  };
  std::vector<SegmentTask> Tasks;
  for (BufferWork &B : Recovered)
    for (ThreadSegment &Seg : B.Segments)
      if (!Seg.Records.empty()) {
        SegmentTask T;
        T.Seg = &Seg;
        Tasks.push_back(std::move(T));
      }
  parallelForIndex(Pool, Tasks.size(), [&](size_t I) {
    SegmentTask &T = Tasks[I];
    const ThreadSegment &Seg = *T.Seg;
    ThreadBuilder Builder(Snap, Maps, T.Warnings, CachePtr, Legacy);
    ThreadTrace TT;
    TT.RuntimeId = Snap.RuntimeId;
    TT.ThreadId = Seg.ThreadId;
    TT.ProcessName = Snap.ProcessName;
    TT.MachineName = Snap.MachineName;
    TT.Tech = Snap.Tech;
    TT.Truncated = Seg.Truncated;
    if (Seg.TruncatedAt != SIZE_MAX)
      TT.TruncatedAt = Seg.TruncatedAt;
    TT.Events = Builder.build(Seg);
    // Keep torn-but-empty traces: the TruncatedAt marker itself is the
    // diagnosis ("this thread's history was cut here").
    T.Keep = !TT.Events.empty() || TT.TruncatedAt != UINT64_MAX;
    T.Trace = std::move(TT);
  });
  M.PhaseBuildUs->observe(usSince(PhaseStart));
  uint64_t RecordCount = 0;
  for (const SegmentTask &T : Tasks)
    RecordCount += T.Seg->Records.size();
  M.Records->add(RecordCount);

  // Deterministic merge: warnings and threads in (buffer, segment)
  // order, exactly as the serial single-pass reconstructor emitted them.
  PhaseStart = std::chrono::steady_clock::now();
  size_t NextTask = 0;
  for (BufferWork &B : Recovered) {
    for (std::string &W : B.Warnings)
      Result.Warnings.push_back(std::move(W));
    for (ThreadSegment &Seg : B.Segments) {
      if (Seg.Records.empty())
        continue;
      SegmentTask &T = Tasks[NextTask++];
      assert(T.Seg == &Seg && "merge order out of sync");
      for (std::string &W : T.Warnings)
        Result.Warnings.push_back(std::move(W));
      if (T.Keep)
        Result.Threads.push_back(std::move(T.Trace));
    }
  }
  M.PhaseMergeUs->observe(usSince(PhaseStart));
  M.SnapUs->observe(usSince(SnapStart));
  return Result;
}
