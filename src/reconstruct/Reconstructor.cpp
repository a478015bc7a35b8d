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
#include <deque>
#include <optional>

using namespace traceback;

namespace {

/// Estimated heap bytes of one registered mapfile: the container
/// payloads that dominate a parsed map. Deliberately an estimate — the
/// gauge answers "roughly how much memory do resident stores hold", not
/// an allocator audit.
uint64_t mapResidentBytes(const MapFile &M) {
  uint64_t B = sizeof(MapFile) + sizeof(MapFileNames) + M.ModuleName.size();
  for (const std::string &F : M.Files)
    B += sizeof(std::string) + sizeof(InternedString) + F.size();
  for (const MapDag &D : M.Dags) {
    B += sizeof(MapDag) + sizeof(uint32_t);
    for (const MapBlock &Blk : D.Blocks)
      B += sizeof(MapBlock) + sizeof(InternedString) +
           Blk.Succs.size() * sizeof(uint16_t) +
           Blk.Lines.size() * sizeof(MapLine) + Blk.Function.size();
  }
  return B;
}

MapFileNames internNames(const MapFile &M) {
  MapFileNames N;
  N.Module = InternedString(M.ModuleName);
  N.Files.reserve(M.Files.size());
  for (const std::string &F : M.Files)
    N.Files.emplace_back(F);
  size_t Blocks = 0;
  for (const MapDag &D : M.Dags)
    Blocks += D.Blocks.size();
  N.Functions.reserve(Blocks);
  N.FirstFunction.reserve(M.Dags.size());
  // A function's blocks sit together, so intern each run of equal names
  // once.
  InternedString Function;
  for (const MapDag &D : M.Dags) {
    N.FirstFunction.push_back(static_cast<uint32_t>(N.Functions.size()));
    for (const MapBlock &B : D.Blocks) {
      if (B.Function != Function.str())
        Function = InternedString(B.Function);
      N.Functions.push_back(Function);
    }
  }
  return N;
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
    Names[*Slot] = internNames(Map);
    Maps[*Slot] = std::move(Map);
    return false;
  }
  Index.insertOrAssign(Key, Maps.size());
  Names.push_back(internNames(Map));
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

/// Events an extension record of \p Type adds to a thread's history (see
/// ThreadBuilder::emitExt); exception trimming only ever removes events.
size_t extEventCount(ExtType Type) {
  switch (Type) {
  case ExtType::Sync:
  case ExtType::Exception:
  case ExtType::ExceptionEnd:
  case ExtType::ThreadStart:
  case ExtType::ThreadEnd:
    return 1;
  default:
    return 0;
  }
}

/// The redundancy-vs-repetition rule of section 4.2 for adjacent lines:
/// if \p E is the same line as the kept event \p P, merges it into \p P
/// (provenance: \p PProv and \p EProv, see ThreadBuilder::Provenance) and
/// returns true. Adjacent identical lines are either redundant expansions
/// of one expression split across blocks (merged silently) or genuine
/// repeated executions, e.g. a loop body on one line (merged with a
/// repeat count): a repeat is recognized by control moving backward or a
/// new trace record starting.
bool mergeAdjacentLine(TraceEvent &P, uint64_t &PProv, const TraceEvent &E,
                       uint64_t EProv) {
  if (E.EventKind != TraceEvent::Kind::Line ||
      P.EventKind != TraceEvent::Kind::Line || P.Module != E.Module ||
      P.File != E.File || P.Line != E.Line || P.Depth != E.Depth)
    return false;
  bool NewRecord = (EProv >> 32) != (PProv >> 32);
  bool Backward = (EProv & 0xFFFFFFFF) <= (PProv & 0xFFFFFFFF);
  if (NewRecord || Backward)
    ++P.Repeat; // Loop-style repetition.
  // Either way the adjacent duplicate is merged; keep the newest flags so
  // call/ret annotations survive.
  P.BlockFlags |= E.BlockFlags;
  P.Trimmed = E.Trimmed;
  PProv = EProv;
  return true;
}

/// Builder state for one thread's events. With \p Legacy set it
/// reproduces the original per-record resolution and decoding exactly
/// (the benchmark baseline). Otherwise module/mapfile/DAG resolution is
/// memoized per DAG id, decoding goes through the shared cache when one
/// is supplied, every record is resolved and decoded before the first
/// event is written so the event array is allocated once at its final
/// size, and redundancy collapse runs one record behind emission.
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
    InternedString UntracedLabel;
    /// Names the DAG's events carry, interned once with the mapfile
    /// (memoized mode only; legacy interns per event).
    InternedString ModName;
    const MapFileNames *Names = nullptr;
    const InternedString *BlockFuncs = nullptr; ///< By DAG-local block index.
  };

  /// A decoded path as the segment memo holds it.
  struct MemoPath {
    SharedDagPath Path;
    size_t Lines = 0; ///< Line events the path emits.
  };

  /// What the sizing pass found for one DAG record.
  struct PlannedRecord {
    const ResolvedDag *Resolved = nullptr;       ///< Null for a bad DAG id.
    const std::vector<uint16_t> *Path = nullptr; ///< Null unless resolved.
  };

  ResolvedDag resolveFresh(uint32_t DagId) const;
  const ResolvedDag &resolveMemoized(uint32_t DagId);
  const MemoPath &decodeMemoized(uint32_t DagId, uint32_t Bits,
                                 const ResolvedDag &R);
  size_t plan(const ThreadSegment &Segment);

  void emitDagRecord(uint32_t Word, const PlannedRecord *Planned);
  void emitExt(const ExtRecord &Rec);
  void applyExceptionTrim(const TraceEvent &Exc);
  void collapsePending();
  void collapseLegacy();

  const SnapModuleInfo *moduleForDagId(uint32_t DagId) const;

  const SnapFile &Snap;
  const MapFileStore &Maps;
  std::vector<std::string> &Warnings;
  DagPathCache *Cache;
  const bool Legacy;

  /// One resolution per distinct DAG id seen in this segment (snap module
  /// tables are per-snap, so the memo cannot outlive the builder). A
  /// deque, so the plan may point at its entries.
  std::deque<ResolvedDag> Resolved;
  FlatMap64<const ResolvedDag *> ResolveMemo; ///< DAG id -> its entry.

  /// (DAG id << PathBitCount | path bits) -> decoded path. Lock-free
  /// fast path in front of the shared cache: only the first sighting of
  /// a pair in this segment takes the cache's shard mutex (or, with the
  /// cache disabled, runs the DFS). DAG ids are unique across a snap's
  /// modules, so the key cannot collide.
  FlatMap64<MemoPath> PathMemo;

  /// Memoized mode: each DAG record's resolution and path, in record
  /// order.
  std::vector<PlannedRecord> Plan;

  std::vector<TraceEvent> Events;
  /// Per event not yet collapsed: (record serial << 32) | block start
  /// offset — provenance for the redundancy-vs-repetition rule. Legacy
  /// mode collapses once at the end, so it holds every event's.
  std::vector<uint64_t> Provenance;
  /// Memoized mode: Events[0, PendingFrom) are collapsed; the events from
  /// PendingFrom on (the latest DAG record's and the extension events
  /// after it) wait, because an exception may still trim that record.
  size_t PendingFrom = 0;
  uint64_t KeptProv = 0; ///< Provenance of Events[PendingFrom - 1].

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
  if (const ResolvedDag *const *Found = ResolveMemo.find(DagId))
    return **Found;
  ResolvedDag &R = Resolved.emplace_back(resolveFresh(DagId));
  if (R.Dag) {
    R.Names = &Maps.names(*R.Map);
    R.BlockFuncs = R.Names->functionsOf(*R.Map, *R.Dag);
    // The snap names the module as it was loaded; that is the mapfile's
    // name unless the module was renamed, which alone takes the pool lock.
    R.ModName = R.Mod->Name == R.Names->Module.str()
                    ? R.Names->Module
                    : InternedString(R.Mod->Name);
  }
  ResolveMemo.insertOrAssign(DagId, &R);
  return R;
}

const ThreadBuilder::MemoPath &
ThreadBuilder::decodeMemoized(uint32_t DagId, uint32_t Bits,
                              const ResolvedDag &R) {
  uint64_t Key = (static_cast<uint64_t>(DagId) << PathBitCount) | Bits;
  if (const MemoPath *Found = PathMemo.find(Key))
    return *Found;
  MemoPath M;
  M.Path = Cache ? Cache->decode(R.Mod->Checksum.low64(), *R.Dag, Bits)
                 : std::make_shared<const std::vector<uint16_t>>(
                       decodeDagPath(*R.Dag, Bits));
  for (uint16_t BI : *M.Path)
    M.Lines += R.Dag->Blocks[BI].Lines.size();
  PathMemo.insertOrAssign(Key, std::move(M));
  return *PathMemo.find(Key);
}

size_t ThreadBuilder::plan(const ThreadSegment &Segment) {
  size_t Total = 0;
  Plan.reserve(Segment.Records.size());
  for (const ParsedRecord &Rec : Segment.Records) {
    if (Rec.RecordKind != ParsedRecord::Kind::Dag) {
      Total += extEventCount(Rec.Ext.Type);
      continue;
    }
    PlannedRecord &P = Plan.emplace_back();
    uint32_t DagId = dagIdOfRecord(Rec.DagWord);
    size_t Lines = 1; // The Untraced placeholder, unless the path decodes.
    if (DagId != BadDagId) {
      P.Resolved = &resolveMemoized(DagId);
      if (P.Resolved->Dag) {
        const MemoPath &M = decodeMemoized(
            DagId, pathBitsOfRecord(Rec.DagWord), *P.Resolved);
        P.Path = M.Path.get();
        if (!P.Path->empty())
          Lines = M.Lines;
      }
    }
    Total += Lines;
  }
  return Total;
}

void ThreadBuilder::emitDagRecord(uint32_t Word,
                                  const PlannedRecord *Planned) {
  ++RecordSerial;
  if (Legacy) {
    LastDag = LastDagInfo(); // Pre-PR behaviour: frees FirstEvent's
                             // buffer on every record.
  } else {
    // No exception can trim the previous record any more.
    collapsePending();
    LastDag.Valid = false;
    LastDag.Path = nullptr;
  }
  uint32_t DagId = dagIdOfRecord(Word);
  uint32_t Bits = pathBitsOfRecord(Word);

  auto EmitUntraced = [&](InternedString Why) {
    TraceEvent &E = Events.emplace_back();
    E.EventKind = TraceEvent::Kind::Untraced;
    E.Module = Why;
    E.Timestamp = LastTs;
    E.Depth = Depth;
    Provenance.push_back(RecordSerial << 32);
    PendingCall = false;
  };

  if (DagId == BadDagId) {
    static const InternedString BadDag("<bad-dag module>");
    EmitUntraced(BadDag);
    return;
  }

  // Legacy resolves every record afresh; memoized mode resolved them all
  // while sizing the event array.
  std::optional<ResolvedDag> Fresh;
  const ResolvedDag &R =
      Legacy ? Fresh.emplace(resolveFresh(DagId)) : *Planned->Resolved;
  if (!R.Warning.empty())
    Warnings.push_back(R.Warning);
  if (!R.Dag) {
    EmitUntraced(R.UntracedLabel);
    return;
  }
  const SnapModuleInfo *Mod = R.Mod;
  const MapFile *Map = R.Map;
  const MapDag *Dag = R.Dag;

  const std::vector<uint16_t> *Path = Planned ? Planned->Path : nullptr;
  SharedDagPath Owned;
  if (Legacy) {
    Owned = std::make_shared<const std::vector<uint16_t>>(
        decodeDagPath(*Dag, Bits));
    Path = Owned.get();
  }
  if (Path->empty()) {
    Warnings.push_back(
        formatv("module %s dag %u: path bits 0x%x do not decode",
                Mod->Name.c_str(), DagId - Mod->DagIdBase, Bits));
    static const InternedString Undecodable("<undecodable path>");
    EmitUntraced(Undecodable);
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
    const uint64_t Prov = (RecordSerial << 32) | B.StartOffset;
    if (Legacy) {
      for (const MapLine &L : B.Lines) {
        // Per-event interning and a copy per event: the pre-PR cost
        // shape, without keeping a second event type.
        TraceEvent E;
        E.Module = InternedString(Mod->Name);
        E.File = InternedString(Map->fileName(L.FileIndex));
        E.Function = InternedString(B.Function);
        E.Line = L.Line;
        E.BlockFlags = B.Flags;
        E.Depth = Depth;
        E.Timestamp = LastTs;
        Events.push_back(E);
        Provenance.push_back(Prov);
      }
    } else {
      const std::vector<InternedString> &Files = R.Names->Files;
      const InternedString Function = R.BlockFuncs[BI];
      for (const MapLine &L : B.Lines) {
        TraceEvent &E = Events.emplace_back();
        E.Module = R.ModName;
        // An index past the file table (a corrupt mapfile) names "?".
        E.File = L.FileIndex < Files.size()
                     ? Files[L.FileIndex]
                     : InternedString(Map->fileName(L.FileIndex));
        E.Function = Function;
        E.Line = L.Line;
        E.BlockFlags = B.Flags;
        E.Depth = Depth;
        E.Timestamp = LastTs;
        Provenance.push_back(Prov);
      }
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
      Provenance.resize(CutFrom - PendingFrom);
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

/// Folds the waiting events (from PendingFrom on) into the collapsed
/// prefix.
void ThreadBuilder::collapsePending() {
  // In place: events are trivially copyable and most keep their slot.
  // Collapsing in record-sized steps gives exactly what one pass over the
  // whole array would: the rule only looks at the last kept event.
  size_t W = PendingFrom;
  for (size_t I = PendingFrom; I < Events.size(); ++I) {
    uint64_t Prov = Provenance[I - PendingFrom];
    if (W > 0 && mergeAdjacentLine(Events[W - 1], KeptProv, Events[I], Prov))
      continue;
    if (W != I)
      Events[W] = Events[I];
    KeptProv = Prov;
    ++W;
  }
  Events.resize(W);
  Provenance.clear();
  PendingFrom = W;
}

/// The baseline's collapse: one pass after emission into fresh arrays.
void ThreadBuilder::collapseLegacy() {
  std::vector<TraceEvent> Out;
  std::vector<uint64_t> OutProv;
  Out.reserve(Events.size());
  OutProv.reserve(Provenance.size());
  for (size_t I = 0; I < Events.size(); ++I) {
    if (!Out.empty() &&
        mergeAdjacentLine(Out.back(), OutProv.back(), Events[I], Provenance[I]))
      continue;
    Out.push_back(Events[I]);
    OutProv.push_back(Provenance[I]);
  }
  Events = std::move(Out);
  Provenance = std::move(OutProv);
}

std::vector<TraceEvent> ThreadBuilder::build(const ThreadSegment &Segment) {
  // Resolve and decode every record before writing an event, so the array
  // is allocated once at the size the records expand to and the trace
  // keeps no growth slack.
  if (!Legacy)
    Events.reserve(plan(Segment));
  const TraceEvent *Allocated = Events.data();
  const PlannedRecord *Planned = Plan.data();
  for (const ParsedRecord &R : Segment.Records) {
    if (R.RecordKind == ParsedRecord::Kind::Dag)
      emitDagRecord(R.DagWord, Legacy ? nullptr : Planned++);
    else
      emitExt(R.Ext);
  }
  if (Legacy)
    collapseLegacy();
  else
    collapsePending();
  assert((Legacy || Events.data() == Allocated) &&
         "the event array grew during emission");
  (void)Allocated;
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
