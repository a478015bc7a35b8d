//===- tools/tbtool.cpp - TraceBack command-line driver -------------------===//
//
// Part of the TraceBack reproduction project.
//
// The offline half of the deployment workflow as a CLI, operating on the
// same on-disk artifacts the paper's product used: .tbo modules, .tbmap
// mapfiles (emitted alongside the instrumented executable), .tbsnap snap
// files, and textual policy files.
//
//   tbtool compile <src.ml> <out.tbo> [--managed] [--name NAME]
//   tbtool asm <src.tbasm> <out.tbo>
//   tbtool instrument <in.tbo> <out.tbo> <out.tbmap> [--dag-base N] [--stats] [--no-elide]
//   tbtool disasm <mod.tbo>
//   tbtool mapinfo <map.tbmap>
//   tbtool snapinfo <snap.tbsnap>
//   tbtool info <snap.tbsnap>
//   tbtool archive list <file.tbar>
//   tbtool archive extract <file.tbar> <index> <out.tbsnap>
//   tbtool reconstruct <snap.tbsnap> <map.tbmap>... [--thread N] [--tree]
//                      [--jobs N] [--no-cache]
//   tbtool reconstruct --batch <dir> [--jobs N] [--no-cache] [--render]
//   tbtool metrics <snap.tbsnap> [<map.tbmap>...] [--jobs N] [--json]
//   tbtool run <mod.tbo>... [--entry NAME] [--policy FILE] [--snap-dir D]
//   tbtool inject <mod.tbo>... --seed S [--plan FILE] [--entry NAME]
//                 [--snap-dir DIR]
//   tbtool triage <snap-dir|archive.tbar> [<map.tbmap>...] [--jobs N]
//                 [--top N] [--near D] [--store out.tbsig]
//                 [--diff baseline.tbsig]
//   tbtool serve --store DIR [--machines N] [--rounds N] [--seed S]
//                [--chaos] [--shards N] [--max-bytes B] [--max-age T]
//                [--compact] [--json]
//   tbtool replay <snap.tbsnap> | --store DIR --id N [--log FILE]
//                 [--verify] [--to N]
//   tbtool query <store-dir>... [--store DIR]... [--module M] [--fault KIND]
//                [--sig HEX] [--machine M] [--since T] [--until T]
//                [--top N] [--list] [--count] [--scan] [--json]
//                (--scan, the linear-scan oracle, takes one store)
//   tbtool help [<command>]
//
// Every subcommand is a registration in a declarative CommandRegistry
// (tools/ToolOptions.h): name, synopsis, flag specs, handler. The usage
// listing, per-command `help <cmd>` pages and unknown-flag errors are all
// generated from the same specs, and flag values still parse through the
// shared tool::ArgList — spellings cannot drift, a mistyped --flag is a
// uniform error, and a flag cannot ship undocumented.
//
//===----------------------------------------------------------------------===//

#include "collector/CollectorService.h"
#include "collector/SnapStore.h"
#include "core/DynamicCode.h"
#include "core/FileIO.h"
#include "core/Session.h"
#include "distributed/SnapArchive.h"
#include "support/SnapSource.h"
#include "vm/FaultInjector.h"
#include "isa/Assembler.h"
#include "isa/Disassembler.h"
#include "lang/CodeGen.h"
#include "reconstruct/Views.h"
#include "replay/Recorder.h"
#include "replay/ReplayDriver.h"
#include "support/Metrics.h"
#include "triage/Clusterer.h"
#include "support/Text.h"
#include "vm/Syscalls.h"

#include "ToolOptions.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

using namespace traceback;
using tool::ArgList;
using tool::CommandRegistry;
using tool::CommandSpec;

namespace {

/// The command table — built once, before main dispatches (definition
/// after the handlers below).
CommandRegistry &registry();

int usage() {
  std::fputs(registry().usageText().c_str(), stderr);
  return 2;
}

int flagError(const std::string &Error) {
  std::fprintf(stderr, "tbtool: %s\n", Error.c_str());
  return 2;
}

int cmdCompile(ArgList A) {
  bool Managed = A.flag("--managed");
  std::string Name = A.value("--name");
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.size() != 2)
    return usage();
  if (Name.empty())
    Name = Pos[0].substr(0, Pos[0].find_last_of('.'));
  std::string Source;
  if (!readFileText(Pos[0], Source)) {
    std::fprintf(stderr, "cannot read %s\n", Pos[0].c_str());
    return 1;
  }
  Module M;
  std::string Error;
  if (!minilang::compileMiniLang(
          Source, Pos[0], Name,
          Managed ? Technology::Managed : Technology::Native, M, Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  if (!saveModule(M, Pos[1])) {
    std::fprintf(stderr, "cannot write %s\n", Pos[1].c_str());
    return 1;
  }
  std::printf("compiled %s -> %s (%zu code bytes, %zu functions)\n",
              Pos[0].c_str(), Pos[1].c_str(), M.Code.size(),
              M.Symbols.size());
  return 0;
}

int cmdAsm(ArgList A) {
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.size() != 2)
    return usage();
  std::string Source;
  if (!readFileText(Pos[0], Source)) {
    std::fprintf(stderr, "cannot read %s\n", Pos[0].c_str());
    return 1;
  }
  Assembler Asm(syscallAssemblerConstants());
  Module M;
  std::string Error;
  if (!Asm.assemble(Source, M, Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  if (!saveModule(M, Pos[1])) {
    std::fprintf(stderr, "cannot write %s\n", Pos[1].c_str());
    return 1;
  }
  std::printf("assembled %s -> %s (%zu code bytes)\n", Pos[0].c_str(),
              Pos[1].c_str(), M.Code.size());
  return 0;
}

int cmdInstrument(ArgList A) {
  int64_t Base = A.intValue("--dag-base", 0);
  bool Stats = A.flag("--stats");
  bool NoElide = A.flag("--no-elide");
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.size() != 3)
    return usage();
  Module Orig;
  if (!loadModule(Pos[0], Orig)) {
    std::fprintf(stderr, "cannot load %s\n", Pos[0].c_str());
    return 1;
  }
  InstrumentOptions Opts;
  Opts.DagIdBase = static_cast<uint32_t>(Base);
  Opts.ElideImpliedBits = !NoElide;
  Module Out;
  MapFile Map;
  InstrumentStats St;
  std::string Error;
  if (!instrumentModule(Orig, Opts, Out, Map, &St, Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  if (!saveModule(Out, Pos[1]) || !saveMapFile(Map, Pos[2])) {
    std::fprintf(stderr, "cannot write outputs\n");
    return 1;
  }
  if (Stats) {
    uint32_t PlacedBits = St.NumLightProbes + St.NumElidedProbes;
    std::printf(
        "{\n"
        "  \"module\": \"%s\",\n"
        "  \"checksum\": \"%s\",\n"
        "  \"functions\": %u,\n"
        "  \"blocks\": %u,\n"
        "  \"dags\": %u,\n"
        "  \"heavy_probes\": %u,\n"
        "  \"light_probes\": %u,\n"
        "  \"elided_probes\": %u,\n"
        "  \"elided_percent\": %.2f,\n"
        "  \"merged_headers\": %u,\n"
        "  \"spills\": %u,\n"
        "  \"mov_saves\": %u,\n"
        "  \"orig_code_bytes\": %zu,\n"
        "  \"new_code_bytes\": %zu,\n"
        "  \"text_growth\": %.4f\n"
        "}\n",
        Orig.Name.c_str(), Out.Checksum.toHex().c_str(), St.NumFunctions,
        St.NumBlocks, St.NumDags, St.NumHeavyProbes, St.NumLightProbes,
        St.NumElidedProbes,
        PlacedBits ? 100.0 * St.NumElidedProbes / PlacedBits : 0.0,
        St.NumMergedHeaders, St.NumSpills, St.NumMovSaves,
        St.OrigCodeBytes, St.NewCodeBytes, St.textGrowth());
    return 0;
  }
  std::printf("instrumented %s: %u DAGs, %u heavy + %u light probes "
              "(%u elided), text %+.0f%%, checksum %s\n",
              Orig.Name.c_str(), St.NumDags, St.NumHeavyProbes,
              St.NumLightProbes, St.NumElidedProbes,
              (St.textGrowth() - 1.0) * 100, Out.Checksum.toHex().c_str());
  return 0;
}

int cmdDisasm(ArgList A) {
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.size() != 1)
    return usage();
  Module M;
  if (!loadModule(Pos[0], M)) {
    std::fprintf(stderr, "cannot load %s\n", Pos[0].c_str());
    return 1;
  }
  std::fputs(disassembleModule(M).c_str(), stdout);
  return 0;
}

int cmdMapInfo(ArgList A) {
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.size() != 1)
    return usage();
  MapFile Map;
  if (!loadMapFile(Pos[0], Map)) {
    std::fprintf(stderr, "cannot load %s\n", Pos[0].c_str());
    return 1;
  }
  std::printf("module %s checksum %s dag ids [%u, %u)\n",
              Map.ModuleName.c_str(), Map.Checksum.toHex().c_str(),
              Map.DagIdBase, Map.DagIdBase + Map.DagIdCount);
  size_t Blocks = 0, Bits = 0;
  for (const MapDag &D : Map.Dags) {
    Blocks += D.Blocks.size();
    for (const MapBlock &B : D.Blocks)
      if (B.BitIndex >= 0)
        ++Bits;
  }
  std::printf("%zu DAGs, %zu blocks, %zu path bits\n", Map.Dags.size(),
              Blocks, Bits);
  return 0;
}

int cmdSnapInfo(ArgList A) {
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.size() != 1)
    return usage();
  SnapFile Snap;
  if (!loadSnap(Pos[0], Snap)) {
    std::fprintf(stderr, "cannot load %s\n", Pos[0].c_str());
    return 1;
  }
  std::printf("snap: reason=%s detail=%u\n",
              snapReasonName(Snap.Reason).c_str(), Snap.ReasonDetail);
  if (Snap.Reason == SnapReason::MissingPeer) {
    // The degradation record of a partial group snap carries no buffers;
    // its fields identify who is absent and which group is incomplete.
    std::printf("PARTIAL GROUP SNAP: peer machine '%s' (machine id %u) was "
                "unreachable when group '%s' was snapped; its contribution "
                "is absent\n",
                Snap.MachineName.c_str(), Snap.ReasonDetail,
                Snap.ProcessName.c_str());
    return 0;
  }
  std::printf("process %s (pid %llu) on %s (%s), runtime %llx, tech %s\n",
              Snap.ProcessName.c_str(),
              static_cast<unsigned long long>(Snap.Pid),
              Snap.MachineName.c_str(), Snap.OsName.c_str(),
              static_cast<unsigned long long>(Snap.RuntimeId),
              Snap.Tech == Technology::Native ? "native" : "managed");
  std::printf("%zu modules:\n", Snap.Modules.size());
  for (const SnapModuleInfo &M : Snap.Modules)
    std::printf("  %-20s %s dag [%u, %u)%s%s\n", M.Name.c_str(),
                M.Checksum.toHex().c_str(), M.DagIdBase,
                M.DagIdBase + M.DagIdCount,
                M.Instrumented ? "" : " (uninstrumented)",
                M.Unloaded ? " (unloaded)" : "");
  std::printf("%zu buffers, %zu threads, %zu memory regions%s\n",
              Snap.Buffers.size(), Snap.Threads.size(), Snap.Memory.size(),
              Snap.Telemetry.empty() ? "" : ", telemetry embedded");
  if (!Snap.Memory.empty())
    std::fputs(renderMemoryDump(Snap).c_str(), stdout);
  return 0;
}

/// `tbtool info`: the wire-cost view of a snap — per-section encoded vs
/// raw bytes and compression ratio, so operators can see what snaps cost
/// on the wire.
int cmdInfo(ArgList A) {
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.size() != 1)
    return usage();
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Pos[0], Bytes)) {
    std::fprintf(stderr, "cannot read %s\n", Pos[0].c_str());
    return 1;
  }
  uint32_t Version = 0;
  std::vector<SnapSectionStat> Stats;
  if (!snapSectionStats(Bytes, Version, Stats)) {
    std::fprintf(stderr, "%s is not a snap file\n", Pos[0].c_str());
    return 1;
  }
  std::printf("%s: snap format v%u, %zu bytes on disk\n", Pos[0].c_str(),
              Version, Bytes.size());
  SnapFile Header;
  uint64_t PayloadBytes = 0;
  if (SnapFile::deserializeHeader(Bytes, Header, &PayloadBytes))
    std::printf("process %s (pid %llu) on %s, reason=%s, %zu modules, "
                "%zu threads\n",
                Header.ProcessName.c_str(),
                static_cast<unsigned long long>(Header.Pid),
                Header.MachineName.c_str(),
                snapReasonName(Header.Reason).c_str(),
                Header.Modules.size(), Header.Threads.size());
  std::printf("%-10s %12s %12s %8s\n", "section", "encoded", "raw",
              "ratio");
  uint64_t TotalEnc = 0, TotalRaw = 0;
  for (const SnapSectionStat &S : Stats) {
    double Ratio = S.EncodedBytes
                       ? static_cast<double>(S.RawBytes) / S.EncodedBytes
                       : 1.0;
    std::printf("%-10s %12llu %12llu %7.2fx\n", S.Name.c_str(),
                static_cast<unsigned long long>(S.EncodedBytes),
                static_cast<unsigned long long>(S.RawBytes), Ratio);
    TotalEnc += S.EncodedBytes;
    TotalRaw += S.RawBytes;
  }
  std::printf("%-10s %12llu %12llu %7.2fx\n", "total",
              static_cast<unsigned long long>(TotalEnc),
              static_cast<unsigned long long>(TotalRaw),
              TotalEnc ? static_cast<double>(TotalRaw) / TotalEnc : 1.0);
  return 0;
}

/// `tbtool archive`: lists / extracts the snaps of a TBAR file, such as a
/// snap store's payload shard (see SnapArchive).
int cmdArchive(ArgList A) {
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.size() < 2)
    return usage();
  const std::string &Verb = Pos[0];
  const std::string &Path = Pos[1];
  if (Verb == "list" && Pos.size() == 2) {
    std::vector<SnapArchiveEntry> Entries;
    if (!SnapArchive::list(Path, Entries)) {
      std::fprintf(stderr, "cannot read archive %s\n", Path.c_str());
      return 1;
    }
    std::printf("%s: %zu snap(s)\n", Path.c_str(), Entries.size());
    for (size_t I = 0; I < Entries.size(); ++I) {
      const SnapArchiveEntry &E = Entries[I];
      if (E.HeaderOk)
        std::printf("  [%zu] v%u %8llu bytes  %s pid %llu  reason=%s\n", I,
                    E.FormatVersion,
                    static_cast<unsigned long long>(E.ImageBytes),
                    E.Header.ProcessName.c_str(),
                    static_cast<unsigned long long>(E.Header.Pid),
                    snapReasonName(E.Header.Reason).c_str());
      else
        std::printf("  [%zu] v%u %8llu bytes  (unparsable header)\n", I,
                    E.FormatVersion,
                    static_cast<unsigned long long>(E.ImageBytes));
    }
    size_t Missing = 0;
    for (const SnapArchiveEntry &E : Entries)
      if (E.HeaderOk && E.Header.Reason == SnapReason::MissingPeer)
        ++Missing;
    if (Missing)
      std::printf("  PARTIAL group snap(s): %zu missing-peer marker(s) — "
                  "unreachable peer contributions absent\n",
                  Missing);
    return 0;
  }
  if (Verb == "extract" && Pos.size() == 4) {
    size_t Index = static_cast<size_t>(std::strtoull(Pos[2].c_str(),
                                                     nullptr, 10));
    std::vector<uint8_t> Image;
    if (!SnapArchive::extract(Path, Index, Image)) {
      std::fprintf(stderr, "no entry %zu in %s\n", Index, Path.c_str());
      return 1;
    }
    if (!writeFileBytes(Pos[3], Image)) {
      std::fprintf(stderr, "cannot write %s\n", Pos[3].c_str());
      return 1;
    }
    std::printf("wrote %s (%zu bytes)\n", Pos[3].c_str(), Image.size());
    return 0;
  }
  return usage();
}

/// Renders one reconstructed snap the way the single-snap command does.
std::string renderReconstruction(const SnapFile &Snap,
                                 const ReconstructedTrace &Trace,
                                 bool Tree) {
  std::string Out = renderFaultView(Snap, Trace);
  Out += "\n";
  for (const ThreadTrace &T : Trace.Threads) {
    Out += Tree ? renderCallTree(T) : renderFlatTrace(T);
    Out += "\n";
  }
  return Out;
}

/// Lists files with extension \p Ext in \p Dir, sorted by path.
std::vector<std::string> filesWithExtension(const std::string &Dir,
                                            const std::string &Ext,
                                            std::error_code &EC) {
  namespace fs = std::filesystem;
  std::vector<std::string> Out;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    if (E.is_regular_file() && E.path().extension().string() == Ext)
      Out.push_back(E.path().string());
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Loads every mapfile path into \p Store (duplicate checksums warn).
/// Streams through the store's own file loader: one file resident at a
/// time, not the whole directory's bytes.
bool loadMapsInto(MapFileStore &Store,
                  const std::vector<std::string> &Paths) {
  for (const std::string &Path : Paths) {
    std::string Warning;
    if (!Store.addFromFile(Path, &Warning)) {
      std::fprintf(stderr, "cannot load %s\n", Path.c_str());
      return false;
    }
    if (!Warning.empty())
      std::fprintf(stderr, "warning: %s\n", Warning.c_str());
  }
  return true;
}

/// Batch mode: reconstruct every .tbsnap in a directory against every
/// .tbmap found there, fanning snaps out across a worker pool. Output
/// is ordered by snap path regardless of completion order.
int cmdReconstructBatch(const std::string &Dir, int Jobs, bool NoCache,
                        bool Render) {
  // Snap enumeration goes through the unified source (same sorted view
  // triage and the collector see); mapfiles are not snaps and keep the
  // plain extension scan.
  std::vector<std::string> SnapPaths = DirectorySnapSource(Dir).paths();
  std::error_code EC;
  std::vector<std::string> MapPaths = filesWithExtension(Dir, ".tbmap", EC);
  if (EC) {
    std::fprintf(stderr, "cannot read directory %s: %s\n", Dir.c_str(),
                 EC.message().c_str());
    return 1;
  }
  if (SnapPaths.empty()) {
    std::fprintf(stderr, "no .tbsnap files in %s\n", Dir.c_str());
    return 1;
  }

  MapFileStore Store;
  if (!loadMapsInto(Store, MapPaths))
    return 1;

  ReconstructOptions Opts;
  Opts.Cache.Enabled = !NoCache;
  Reconstructor R(Store, Opts);

  unsigned Workers = ThreadPool::resolveJobs(Jobs);
  ThreadPool Pool(Workers);
  // One fan-out level per pool: across snaps when there are several,
  // within the snap when there is just one.
  bool AcrossSnaps = SnapPaths.size() > 1;

  // Header-only scheduling pass: the v4 section table gives each snap's
  // uncompressed payload size without inflating a single record byte, so
  // the pool can start the heaviest snaps first (classic longest-first
  // makespan reduction). Full deserialization happens inside the worker.
  std::vector<uint64_t> Cost(SnapPaths.size(), 0);
  for (size_t I = 0; I < SnapPaths.size(); ++I) {
    SnapFile Header;
    loadSnapHeader(SnapPaths[I], Header, &Cost[I]);
  }
  std::vector<size_t> Order(SnapPaths.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t L, size_t R) {
    return Cost[L] > Cost[R];
  });

  struct SnapResult {
    bool Loaded = false;
    std::string Summary;
    std::vector<std::string> Warnings;
  };
  std::vector<SnapResult> Results(SnapPaths.size());
  parallelForIndex(AcrossSnaps ? &Pool : nullptr, Order.size(),
                   [&](size_t Slot) {
                     size_t I = Order[Slot];
                     SnapResult &Res = Results[I];
                     SnapFile Snap;
                     if (!loadSnap(SnapPaths[I], Snap))
                       return;
                     Res.Loaded = true;
                     ReconstructedTrace Trace =
                         R.reconstruct(Snap, AcrossSnaps ? nullptr : &Pool);
                     size_t Events = 0;
                     for (const ThreadTrace &T : Trace.Threads)
                       Events += T.Events.size();
                     Res.Summary = formatv(
                         "%s: reason=%s threads=%zu events=%zu warnings=%zu",
                         SnapPaths[I].c_str(),
                         snapReasonName(Snap.Reason).c_str(),
                         Trace.Threads.size(), Events,
                         Trace.Warnings.size());
                     Res.Warnings = Trace.Warnings;
                     if (Render)
                       writeFileText(SnapPaths[I] + ".trace.txt",
                                     renderReconstruction(Snap, Trace,
                                                          /*Tree=*/false));
                   });

  int Failures = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    if (!Results[I].Loaded) {
      std::fprintf(stderr, "cannot load %s\n", SnapPaths[I].c_str());
      ++Failures;
      continue;
    }
    for (const std::string &W : Results[I].Warnings)
      std::fprintf(stderr, "warning: %s\n", W.c_str());
    std::printf("%s\n", Results[I].Summary.c_str());
  }
  std::printf("batch: %zu snaps, %zu mapfiles, jobs=%u, decode cache %s "
              "(%llu hits, %llu misses)\n",
              SnapPaths.size(), Store.size(), Workers,
              NoCache ? "off" : "on",
              static_cast<unsigned long long>(R.pathCache().hits()),
              static_cast<unsigned long long>(R.pathCache().misses()));
  return Failures ? 1 : 0;
}

int cmdReconstruct(ArgList A) {
  bool Tree = A.flag("--tree");
  bool NoCache = A.flag("--no-cache");
  bool Render = A.flag("--render");
  int64_t OnlyThread = A.intValue("--thread", -1);
  int Jobs = A.jobs();
  std::string BatchDir = A.value("--batch");
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  if (!BatchDir.empty())
    return cmdReconstructBatch(BatchDir, Jobs, NoCache, Render);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.size() < 2)
    return usage();
  SnapFile Snap;
  if (!loadSnap(Pos[0], Snap)) {
    std::fprintf(stderr, "cannot load %s\n", Pos[0].c_str());
    return 1;
  }
  MapFileStore Store;
  if (!loadMapsInto(Store,
                    std::vector<std::string>(Pos.begin() + 1, Pos.end())))
    return 1;
  ReconstructOptions Opts;
  Opts.Cache.Enabled = !NoCache;
  Reconstructor R(Store, Opts);
  ReconstructedTrace Trace;
  if (Jobs > 1) {
    ThreadPool Pool(ThreadPool::resolveJobs(Jobs));
    Trace = R.reconstruct(Snap, &Pool);
  } else {
    Trace = R.reconstruct(Snap);
  }
  for (const std::string &W : Trace.Warnings)
    std::fprintf(stderr, "warning: %s\n", W.c_str());

  std::fputs(renderFaultView(Snap, Trace).c_str(), stdout);
  std::printf("\n");
  for (const ThreadTrace &T : Trace.Threads) {
    if (OnlyThread >= 0 && T.ThreadId != static_cast<uint64_t>(OnlyThread))
      continue;
    std::fputs(Tree ? renderCallTree(T).c_str() : renderFlatTrace(T).c_str(),
               stdout);
    std::printf("\n");
  }
  return 0;
}

/// `tbtool metrics <snap>`: the tracer-health report. Combines the snap's
/// embedded producer telemetry (what the runtime recorded about itself at
/// capture time) with a fresh reconstruction pass measured into a local
/// registry (what decoding the snap costs now), as one JSON document.
int cmdMetrics(ArgList A) {
  int Jobs = A.jobs();
  A.json(); // Output is always JSON; the flag is accepted for uniformity.
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.empty())
    return usage();
  SnapFile Snap;
  if (!loadSnap(Pos[0], Snap)) {
    std::fprintf(stderr, "cannot load %s\n", Pos[0].c_str());
    return 1;
  }

  // Producer telemetry: decode the TELEMETRY stream, then re-emit pretty.
  std::string ProducerJson;
  MetricsSnapshot Producer;
  if (Snap.telemetry(Producer))
    ProducerJson = Producer.toJson(2);
  else if (!Snap.Telemetry.empty())
    std::fprintf(stderr, "warning: snap telemetry stream is torn\n");

  // Mapfiles: explicit operands, or every .tbmap next to the snap.
  std::vector<std::string> MapPaths(Pos.begin() + 1, Pos.end());
  if (MapPaths.empty()) {
    namespace fs = std::filesystem;
    std::string Dir = fs::path(Pos[0]).parent_path().string();
    if (Dir.empty())
      Dir = ".";
    std::error_code EC;
    MapPaths = filesWithExtension(Dir, ".tbmap", EC);
  }
  MapFileStore Store;
  if (!loadMapsInto(Store, MapPaths))
    return 1;

  // Reconstruction cost, measured into a registry local to this command.
  MetricsRegistry Local;
  Reconstructor R(Store, &Local);
  if (Jobs > 1) {
    ThreadPool Pool(ThreadPool::resolveJobs(Jobs));
    (void)R.reconstruct(Snap, &Pool);
  } else {
    (void)R.reconstruct(Snap);
  }

  uint64_t Hits = R.pathCache().hits();
  uint64_t Misses = R.pathCache().misses();
  double HitRate =
      (Hits + Misses) ? static_cast<double>(Hits) / (Hits + Misses) : 0.0;
  char Rate[32];
  std::snprintf(Rate, sizeof(Rate), "%.4f", HitRate);

  std::string EscapedPath;
  for (char C : Pos[0]) {
    if (C == '"' || C == '\\')
      EscapedPath.push_back('\\');
    EscapedPath.push_back(C);
  }

  std::printf("{\n");
  std::printf("  \"schema\": \"traceback-tbtool-metrics-v1\",\n");
  std::printf("  \"snap\": \"%s\",\n", EscapedPath.c_str());
  if (!ProducerJson.empty())
    std::printf("  \"producer\": %s,\n",
                tool::indentJsonBody(ProducerJson, 2).c_str());
  else
    std::printf("  \"producer\": null,\n");
  std::printf("  \"reconstruction\": %s,\n",
              tool::indentJsonBody(Local.snapshot().toJson(2), 2).c_str());
  std::printf("  \"cache\": {\"hits\": %llu, \"misses\": %llu, "
              "\"hit_rate\": %s}\n",
              static_cast<unsigned long long>(Hits),
              static_cast<unsigned long long>(Misses), Rate);
  std::printf("}\n");
  return 0;
}

int cmdRun(ArgList A) {
  std::string Entry = A.value("--entry", "main");
  std::string PolicyPath = A.value("--policy");
  std::string SnapDir = A.value("--snap-dir", ".");
  bool NoInstrument = A.flag("--no-instrument");
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.empty())
    return usage();

  Deployment D;
  if (!PolicyPath.empty()) {
    std::string Text, Error;
    if (!readFileText(PolicyPath, Text) ||
        !RtPolicy::parse(Text, D.Policy, Error)) {
      std::fprintf(stderr, "policy: %s\n", Error.c_str());
      return 1;
    }
  }
  Machine *Host = D.addMachine("tbtool-host");
  Process *P = Host->createProcess("app");
  std::string Error;
  for (const std::string &Path : Pos) {
    Module M;
    if (!loadModule(Path, M)) {
      std::fprintf(stderr, "cannot load %s\n", Path.c_str());
      return 1;
    }
    if (!D.deploy(*P, M, !NoInstrument && !M.Instrumented, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 1;
    }
  }
  if (!P->start(Entry)) {
    std::fprintf(stderr, "entry symbol '%s' not found\n", Entry.c_str());
    return 1;
  }
  World::RunResult R = D.world().run();
  std::printf("--- program output ---\n%s", P->Output.c_str());
  std::printf("--- result: %s, exit code %d ---\n",
              R == World::RunResult::AllExited ? "exited"
              : R == World::RunResult::Idle    ? "deadlock"
                                               : "cycle limit",
              P->ExitCode);
  int Index = 0;
  for (const SnapFile &Snap : D.snaps()) {
    std::string Path =
        formatv("%s/snap%03d.tbsnap", SnapDir.c_str(), Index++);
    if (saveSnap(Snap, Path))
      std::printf("wrote %s (%s)\n", Path.c_str(),
                  snapReasonName(Snap.Reason).c_str());
  }
  // Persist the mapfiles so `tbtool reconstruct` can run standalone.
  for (const MapFile &Map : D.maps().all()) {
    std::string Path =
        formatv("%s/%s.tbmap", SnapDir.c_str(), Map.ModuleName.c_str());
    if (saveMapFile(Map, Path))
      std::printf("wrote %s\n", Path.c_str());
  }
  return 0;
}

std::vector<std::string> lineSeq(const ThreadTrace &T) {
  std::vector<std::string> Out;
  for (const TraceEvent &E : T.Events)
    if (E.EventKind == TraceEvent::Kind::Line)
      Out.push_back(E.Module + "!" + E.File + ":" +
                    std::to_string(E.Line));
  return Out;
}

std::vector<std::string>
oracleSeq(const std::vector<Process::OracleEvent> &Oracle,
          uint64_t ThreadId) {
  std::vector<std::string> Out;
  for (const Process::OracleEvent &E : Oracle)
    if (E.ThreadId == ThreadId)
      Out.push_back(E.Module + "!" + E.File + ":" +
                    std::to_string(E.Line));
  return Out;
}

/// The survivability property: everything the snap recovered must match
/// the fault-free golden run line-for-line, except that up to \p Slack
/// trailing lines (at most one partial DAG record) may be missing noise.
bool isPrefixWithSlack(const std::vector<std::string> &Got,
                       const std::vector<std::string> &Golden,
                       size_t Slack = 12) {
  if (Got.size() > Golden.size())
    return false;
  for (size_t I = 0; I < Got.size(); ++I)
    if (Got[I] != Golden[I])
      return I + Slack >= Got.size();
  return true;
}

int cmdInject(ArgList A) {
  std::string Entry = A.value("--entry", "main");
  uint64_t Seed = A.seed();
  std::string PlanPath = A.value("--plan");
  std::string SnapDir = A.value("--snap-dir");
  bool Record = A.flag("--record");
  int64_t RecordWindow = A.intValue("--record-window", 0);
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.empty())
    return usage();

  std::vector<Module> Mods;
  for (const std::string &Path : Pos) {
    Module M;
    if (!loadModule(Path, M)) {
      std::fprintf(stderr, "cannot load %s\n", Path.c_str());
      return 1;
    }
    Mods.push_back(std::move(M));
  }

  // Golden pass: the same deployment with no faults, oracle attached.
  // Gives the reference trace for the prefix verdict and the slice count
  // used to scope random plans.
  std::vector<Process::OracleEvent> Oracle;
  uint64_t GoldenSlices = 0;
  {
    Deployment D;
    Machine *Host = D.addMachine("tbtool-host");
    Process *P = Host->createProcess("app");
    P->OracleTrace = &Oracle;
    std::string Error;
    for (const Module &M : Mods)
      if (!D.deploy(*P, M, !M.Instrumented, Error)) {
        std::fprintf(stderr, "%s\n", Error.c_str());
        return 1;
      }
    if (!P->start(Entry)) {
      std::fprintf(stderr, "entry symbol '%s' not found\n", Entry.c_str());
      return 1;
    }
    D.world().run();
    GoldenSlices = D.world().slices();
  }

  FaultPlan Plan;
  if (!PlanPath.empty()) {
    std::string Text, Error;
    if (!readFileText(PlanPath, Text)) {
      std::fprintf(stderr, "cannot read %s\n", PlanPath.c_str());
      return 1;
    }
    if (!FaultPlan::parse(Text, Plan, Error)) {
      std::fprintf(stderr, "plan: %s\n", Error.c_str());
      return 1;
    }
  } else {
    Plan = FaultPlan::random(Seed, GoldenSlices > 2 ? GoldenSlices : 2000);
  }
  std::printf("--- fault plan (save and replay with --plan FILE) ---\n%s",
              Plan.toText().c_str());

  // Fault pass: identical deployment with the injector attached.
  Deployment D;
  // Record-and-replay: the recorder scribe must be attached before the
  // deploys so module images land in the log's genesis, and the policy
  // must ask for embedded logs before runtimes are created.
  ExecutionRecorder Recorder(static_cast<uint32_t>(
      RecordWindow < 0 ? 0 : RecordWindow));
  if (Record) {
    D.Policy.RecordExecution = true;
    D.Policy.RecordWindow =
        static_cast<uint32_t>(RecordWindow < 0 ? 0 : RecordWindow);
    Recorder.attach(D);
  }
  Machine *Host = D.addMachine("tbtool-host");
  Process *P = Host->createProcess("app");
  std::string Error;
  for (const Module &M : Mods)
    if (!D.deploy(*P, M, !M.Instrumented, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 1;
    }
  FaultInjector FI(Plan);
  D.world().Injector = &FI;
  if (!P->start(Entry)) {
    std::fprintf(stderr, "entry symbol '%s' not found\n", Entry.c_str());
    return 1;
  }
  World::RunResult R = D.world().run();
  D.world().Injector = nullptr;

  std::printf("--- faulted run: %s%s ---\n",
              R == World::RunResult::AllExited ? "exited"
              : R == World::RunResult::Idle    ? "deadlock"
                                               : "cycle limit",
              P->HardKilled ? " (hard-killed)" : "");
  for (const std::string &Note : FI.firedLog())
    std::printf("fired: %s\n", Note.c_str());
  if (!FI.allFired())
    std::printf("note: %zu of %zu planned events never found a target\n",
                FI.plan().Events.size() - FI.firedCount(),
                FI.plan().Events.size());

  // Post-mortem: a hard-killed process leaves no snap of its own — the
  // service daemon scrapes its committed sub-buffers (section 3.6).
  std::vector<SnapFile> Snaps = D.snaps();
  if (P->HardKilled)
    if (ServiceDaemon *Daemon = D.daemonFor(*Host)) {
      for (const auto &SP : Daemon->collectPostMortem(*P))
        Snaps.push_back(*SP);
    }
  if (Snaps.empty()) {
    std::printf("no snaps survived the faulted run\n");
    return 0;
  }

  // Persist survivors (and their mapfiles) so `tbtool metrics` and
  // `reconstruct` can examine the faulted run offline.
  if (!SnapDir.empty()) {
    int SnapIndex = 0;
    for (const SnapFile &Snap : Snaps) {
      std::string Path =
          formatv("%s/snap%03d.tbsnap", SnapDir.c_str(), SnapIndex++);
      if (saveSnap(Snap, Path))
        std::printf("wrote %s (%s)\n", Path.c_str(),
                    snapReasonName(Snap.Reason).c_str());
    }
    for (const MapFile &Map : D.maps().all()) {
      std::string Path =
          formatv("%s/%s.tbmap", SnapDir.c_str(), Map.ModuleName.c_str());
      if (saveMapFile(Map, Path))
        std::printf("wrote %s\n", Path.c_str());
    }
    if (Record) {
      // Snaps embed the log up to their own anchor; run.tblog is the full
      // recording including any post-anchor tail.
      std::string Path = SnapDir + "/run.tblog";
      if (writeFileBytes(Path, Recorder.serialized()))
        std::printf("wrote %s (%llu recorded events)\n", Path.c_str(),
                    static_cast<unsigned long long>(
                        Recorder.recordedEntries()));
    }
  }

  bool AllPrefix = true;
  int Index = 0;
  for (const SnapFile &Snap : Snaps) {
    ReconstructedTrace Trace = D.reconstruct(Snap);
    for (const std::string &W : Trace.Warnings)
      std::fprintf(stderr, "warning: %s\n", W.c_str());
    for (const ThreadTrace &T : Trace.Threads) {
      std::vector<std::string> Got = lineSeq(T);
      std::vector<std::string> Golden = oracleSeq(Oracle, T.ThreadId);
      bool Ok = isPrefixWithSlack(Got, Golden);
      AllPrefix &= Ok;
      std::printf("snap %d thread %llu: recovered %zu of %zu golden "
                  "lines — %s\n",
                  Index, static_cast<unsigned long long>(T.ThreadId),
                  Got.size(), Golden.size(),
                  Ok ? "prefix of golden trace"
                     : "NOT a prefix of the golden trace");
    }
    ++Index;
  }
  // Exit 3 distinguishes a property violation from usage/IO errors so
  // seed sweeps can script against it.
  return AllPrefix ? 0 : 3;
}

/// `tbtool triage`: clusters a run's snaps by fault signature and prints
/// the ranked report. Input is either a directory of .tbsnap files (with
/// .tbmap mapfiles in the directory or listed as extra operands) or a
/// .tbar archive. With mapfiles, signatures carry the normalized
/// top-of-trace path (full triage); without, they degrade to header-level
/// kind+modules signatures — same as the daemon's ingest tagging.
int cmdTriage(ArgList A) {
  int Jobs = A.jobs();
  int64_t TopN = A.intValue("--top", 20);
  int64_t Near = A.intValue("--near", ClusterOptions().NearMaxDistance);
  std::string StorePath = A.value("--store");
  std::string DiffPath = A.value("--diff");
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();
  if (Pos.empty() || TopN < 0 || Near < 0)
    return usage();
  const std::string &Input = Pos[0];
  namespace fs = std::filesystem;

  // Gather snaps through the unified SnapSource interface — the archive
  // and directory cases differ only in which source is constructed.
  // Labels name the member so report readers can find the snap again.
  std::vector<SnapFile> Snaps;
  std::vector<std::string> Labels;
  std::vector<std::string> MapPaths(Pos.begin() + 1, Pos.end());
  bool IsArchive = Input.size() > 5 &&
                   Input.compare(Input.size() - 5, 5, ".tbar") == 0;
  std::unique_ptr<SnapSource> Source;
  if (IsArchive) {
    auto A = std::make_unique<ArchiveSnapSource>(Input);
    if (A->entryCount() == 0 && !fs::exists(Input)) {
      std::fprintf(stderr, "cannot read archive %s\n", Input.c_str());
      return 1;
    }
    Source = std::move(A);
  } else {
    std::error_code EC;
    for (const std::string &P : filesWithExtension(Input, ".tbmap", EC))
      MapPaths.push_back(P);
    if (EC) {
      std::fprintf(stderr, "cannot read directory %s: %s\n", Input.c_str(),
                   EC.message().c_str());
      return 1;
    }
    Source = std::make_unique<DirectorySnapSource>(Input);
  }
  {
    SnapFile Snap;
    std::string Label;
    while (Source->next(Snap, Label)) {
      // Archive labels carry the entry index; directory labels are the
      // file path — shorten both to the filename the way reports did.
      size_t Hash = Label.rfind('#');
      std::string Entry = Hash == std::string::npos
                              ? fs::path(Label).filename().string()
                              : formatv("%s[%s]:%s",
                                        fs::path(Label.substr(0, Hash))
                                            .filename()
                                            .string()
                                            .c_str(),
                                        Label.substr(Hash + 1).c_str(),
                                        Snap.ProcessName.c_str());
      Labels.push_back(std::move(Entry));
      Snaps.push_back(std::move(Snap));
    }
  }
  if (Snaps.empty()) {
    std::fprintf(stderr, "no snaps in %s\n", Input.c_str());
    return 1;
  }

  MapFileStore Store;
  if (!loadMapsInto(Store, MapPaths))
    return 1;

  // Extraction fans out across the pool (reconstruction dominates);
  // clustering runs single-threaded in input order so the report is
  // deterministic for a given snap set.
  std::vector<FaultSignature> Sigs(Snaps.size());
  if (Store.size()) {
    Reconstructor R(Store);
    ThreadPool Pool(ThreadPool::resolveJobs(Jobs));
    bool AcrossSnaps = Snaps.size() > 1;
    parallelForIndex(AcrossSnaps ? &Pool : nullptr, Snaps.size(),
                     [&](size_t I) {
                       ReconstructedTrace Trace = R.reconstruct(
                           Snaps[I], AcrossSnaps ? nullptr : &Pool);
                       Sigs[I] = extractSignature(Snaps[I], Trace);
                     });
  } else {
    for (size_t I = 0; I < Snaps.size(); ++I)
      Sigs[I] = extractSignature(Snaps[I]);
  }

  ClusterOptions CO;
  CO.NearMaxDistance = static_cast<unsigned>(Near);
  SignatureClusterer Clusterer(CO);
  SignatureStore OutStore;
  for (size_t I = 0; I < Sigs.size(); ++I) {
    Clusterer.add(Sigs[I], Labels[I]);
    if (!StorePath.empty())
      OutStore.add(Sigs[I], Labels[I]);
  }

  SignatureStore Baseline;
  bool HaveBaseline = false;
  if (!DiffPath.empty()) {
    std::string Error;
    if (!SignatureStore::load(DiffPath, Baseline, Error)) {
      std::fprintf(stderr, "cannot load baseline %s: %s\n", DiffPath.c_str(),
                   Error.c_str());
      return 1;
    }
    HaveBaseline = true;
  }

  std::string Report =
      renderTriageReport(Clusterer, HaveBaseline ? &Baseline : nullptr,
                         static_cast<size_t>(TopN));
  std::fputs(Report.c_str(), stdout);

  if (!StorePath.empty()) {
    if (!OutStore.save(StorePath)) {
      std::fprintf(stderr, "cannot write %s\n", StorePath.c_str());
      return 1;
    }
    std::printf("stored %zu signatures -> %s\n", OutStore.size(),
                StorePath.c_str());
  }
  // Exit 3 signals "regressions found" so CI can gate on it, mirroring
  // the inject command's non-zero verdict convention.
  if (HaveBaseline && !Clusterer.regressionsAgainst(Baseline).empty())
    return 3;
  return 0;
}

//===----------------------------------------------------------------------===//
// serve / query: the fleet collector
//===----------------------------------------------------------------------===//

// The serve fleet's workload mix: two deterministic crashers, deployed on
// every machine so the same fault fingerprint recurs fleet-wide (the
// volume shape the collector's dedup and triage index exist for).
const char *ServeSegvWorkload = R"(
fn main() export {
  var x = 1;
  var i = 0;
  while (i < 60) {
    x = x * 3 + 1;
    i = i + 1;
    yield();
  }
  var p = 0;
  print(load(p));
}
)";

const char *ServeDivZeroWorkload = R"(
fn main() export {
  var x = 7;
  var i = 0;
  while (i < 60) {
    x = x * 5 + 3;
    i = i + 1;
    yield();
  }
  var z = 0;
  print(x / z);
}
)";

/// `tbtool serve`: runs the collector service against a simulated fleet.
/// Each round deploys N machines running crashing workloads with network
/// transport on; their daemons push snaps to the collector machine, whose
/// endpoint the CollectorService drains into the --store directory.
/// Every round re-produces the same fault fingerprints, so the store's
/// signature index folds the whole run into a handful of clusters —
/// payload-level dedup, by contrast, rarely fires here because each snap
/// embeds its own wall-clock latency telemetry (see the store tests for
/// the byte-identical path).
int cmdServe(ArgList A) {
  std::string StoreDir = A.value("--store");
  int64_t Machines = A.intValue("--machines", 3);
  int64_t Rounds = A.intValue("--rounds", 2);
  uint64_t Seed = A.seed();
  bool Chaos = A.flag("--chaos");
  bool Record = A.flag("--record");
  int64_t Shards = A.intValue("--shards", 4);
  int64_t MaxBytes = A.intValue("--max-bytes", 0);
  int64_t MaxAge = A.intValue("--max-age", 0);
  bool Compact = A.flag("--compact");
  bool Json = A.json();
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  if (!A.positional().empty() || StoreDir.empty() || Machines < 1 ||
      Rounds < 1 || Shards < 1 || MaxBytes < 0 || MaxAge < 0)
    return usage();

  // The collector's own instruments live in a private registry: snaps
  // embed the producing process's global telemetry, so letting store
  // counters leak into the global registry would perturb every snap's
  // bytes (and with them payload-hash dedup across serve invocations).
  MetricsRegistry CollectorMetrics;
  SnapStore Store;
  SnapStoreOptions SO;
  SO.Shards = static_cast<unsigned>(Shards);
  SO.MaxBytes = static_cast<uint64_t>(MaxBytes);
  SO.MaxAge = static_cast<uint64_t>(MaxAge);
  SO.Metrics = &CollectorMetrics;
  std::string Error;
  if (!Store.open(StoreDir, SO, Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  CollectorOptions CO;
  CO.Metrics = &CollectorMetrics;
  CollectorService Service(Store, CO);

  struct ServeApp {
    const char *Name;
    const char *Source;
  };
  const ServeApp Apps[2] = {{"appa", ServeSegvWorkload},
                            {"appb", ServeDivZeroWorkload}};
  Module Mods[2];
  for (int I = 0; I < 2; ++I)
    if (!minilang::compileMiniLang(Apps[I].Source, Apps[I].Name,
                                   Apps[I].Name, Technology::Native,
                                   Mods[I], Error)) {
      std::fprintf(stderr, "internal workload: %s\n", Error.c_str());
      return 1;
    }

  size_t PartitionedRounds = 0;
  for (int64_t Round = 0; Round < Rounds; ++Round) {
    Deployment D;
    // Fresh per-round telemetry: snaps embed their deployment's metrics,
    // so sharing a registry across rounds would bloat round N's snaps
    // with round N-1's accumulated counters.
    MetricsRegistry RoundMetrics;
    D.Metrics = &RoundMetrics;
    // One recorder per round: every snap pushed to the store embeds the
    // round's execution log, which `tbtool replay --store` reads.
    std::unique_ptr<ExecutionRecorder> Recorder;
    if (Record) {
      D.Policy.RecordExecution = true;
      Recorder.reset(new ExecutionRecorder());
      Recorder->attach(D);
    }
    D.enableNetworkTransport();
    Service.attachTransport(*D.collectorEndpoint());

    FaultPlan Plan = FaultPlan::randomNetwork(
        Seed ^ (0x5eedull * static_cast<uint64_t>(Round + 1)),
        /*MaxPacket=*/16, /*MaxSlice=*/60);
    FaultInjector FI(Plan);
    if (Chaos)
      D.world().Injector = &FI;

    bool DeployFailed = false;
    for (int64_t MI = 0; MI < Machines && !DeployFailed; ++MI) {
      Machine *M = D.addMachine(formatv("fleet%02lld",
                                        static_cast<long long>(MI)));
      for (const Module &Mod : Mods) {
        Process *P = M->createProcess(Mod.Name);
        if (!D.deploy(*P, Mod, /*Instrument=*/true, Error) ||
            !P->start("main")) {
          std::fprintf(stderr, "deploy %s on %s: %s\n", Mod.Name.c_str(),
                       M->Name.c_str(), Error.c_str());
          DeployFailed = true;
          break;
        }
      }
    }
    if (DeployFailed) {
      Service.detachTransport();
      return 1;
    }
    D.world().run();
    bool Quiet = D.pumpNetwork();
    Service.drain();
    Service.detachTransport();
    if (Chaos) {
      D.world().Injector = nullptr;
      if (!Quiet || !D.collectorEndpoint()->unreachablePeers().empty())
        ++PartitionedRounds;
    }
  }

  if (Compact && !Store.compact(&Error)) {
    std::fprintf(stderr, "compact: %s\n", Error.c_str());
    return 1;
  }

  if (Json) {
    std::printf("{\n"
                "  \"schema\": \"traceback-tbtool-serve-v1\",\n"
                "  \"store\": \"%s\",\n"
                "  \"rounds\": %lld,\n"
                "  \"machines\": %lld,\n"
                "  \"chaos\": %s,\n"
                "  \"partitioned_rounds\": %zu,\n"
                "  \"received\": %llu,\n"
                "  \"ingested\": %llu,\n"
                "  \"dedup_hits\": %llu,\n"
                "  \"evictions\": %llu,\n"
                "  \"live_entries\": %zu,\n"
                "  \"live_bytes\": %llu,\n"
                "  \"errors\": %llu\n"
                "}\n",
                StoreDir.c_str(), static_cast<long long>(Rounds),
                static_cast<long long>(Machines), Chaos ? "true" : "false",
                PartitionedRounds,
                static_cast<unsigned long long>(Service.received()),
                static_cast<unsigned long long>(Service.ingested()),
                static_cast<unsigned long long>(Store.dedupHits()),
                static_cast<unsigned long long>(Store.evictions()),
                Store.liveEntries(),
                static_cast<unsigned long long>(Store.liveBytes()),
                static_cast<unsigned long long>(Service.errors()));
  } else {
    std::printf("served %lld round(s) x %lld machine(s)%s -> %s\n",
                static_cast<long long>(Rounds),
                static_cast<long long>(Machines),
                Chaos ? " under network chaos" : "", StoreDir.c_str());
    std::printf("received %llu snap push(es): %llu stored, %llu dedup "
                "hit(s), %llu eviction(s), %llu error(s)\n",
                static_cast<unsigned long long>(Service.received()),
                static_cast<unsigned long long>(Service.ingested()),
                static_cast<unsigned long long>(Store.dedupHits()),
                static_cast<unsigned long long>(Store.evictions()),
                static_cast<unsigned long long>(Service.errors()));
    std::printf("store: %zu live entries, %llu live bytes, %u shard(s)%s\n",
                Store.liveEntries(),
                static_cast<unsigned long long>(Store.liveBytes()),
                Store.shardCount(), Compact ? ", compacted" : "");
    if (PartitionedRounds)
      std::printf("note: %zu round(s) ended partitioned — unreachable "
                  "peers' snaps are absent\n",
                  PartitionedRounds);
  }
  return Service.errors() ? 1 : 0;
}

/// `tbtool replay`: snap-anchored record-and-replay. Loads a snap (file
/// or store-resident by id), takes its execution log (--log, else the
/// snap's embedded log), rebuilds the recorded
/// world and re-executes it under the replay enforcer, then self-checks:
/// the replayed anchor snap must exist and its reconstructed trace must
/// be byte-identical to the original's. --verify turns a failed check
/// into exit 3 (sweepable, like inject).
int cmdReplay(ArgList A) {
  std::string LogPath = A.value("--log");
  std::string StoreDir = A.value("--store");
  int64_t Id = A.intValue("--id", 0);
  bool Verify = A.flag("--verify");
  int64_t ToEvent = A.intValue("--to", 0);
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  const std::vector<std::string> &Pos = A.positional();

  SnapFile Snap;
  if (!StoreDir.empty()) {
    if (Id <= 0 || !Pos.empty())
      return usage();
    MetricsRegistry StoreMetrics;
    SnapStore Store;
    SnapStoreOptions SO;
    SO.ReadOnly = true;
    SO.Metrics = &StoreMetrics;
    std::string Error;
    if (!Store.open(StoreDir, SO, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 1;
    }
    SnapStoreEntry E;
    if (!Store.entry(static_cast<uint64_t>(Id), E) || E.Dead) {
      std::fprintf(stderr, "no live entry %lld in %s\n",
                   static_cast<long long>(Id), StoreDir.c_str());
      return 1;
    }
    if (!Store.loadSnap(E, Snap)) {
      std::fprintf(stderr, "cannot load payload of entry %lld\n",
                   static_cast<long long>(Id));
      return 1;
    }
  } else {
    if (Pos.size() != 1)
      return usage();
    if (!loadSnap(Pos[0], Snap)) {
      std::fprintf(stderr, "cannot load %s\n", Pos[0].c_str());
      return 1;
    }
  }

  std::vector<uint8_t> LogBytes;
  if (!LogPath.empty()) {
    if (!readFileBytes(LogPath, LogBytes)) {
      std::fprintf(stderr, "cannot read %s\n", LogPath.c_str());
      return 1;
    }
  } else if (!Snap.ExecLog.empty()) {
    LogBytes = Snap.ExecLog;
  } else {
    std::fprintf(stderr,
                 "snap has no embedded execution log; pass one with --log "
                 "FILE\n(record one with `tbtool inject --record` or "
                 "`tbtool serve --record`)\n");
    return 1;
  }

  ExecutionLog Log;
  if (!ExecutionLog::deserialize(LogBytes, Log)) {
    std::fprintf(stderr, "execution log does not parse (not a .tblog, or "
                         "its genesis was cut off)\n");
    return 1;
  }
  std::printf("log: %llu event(s), %llu dropped by the ring window%s\n",
              static_cast<unsigned long long>(Log.totalEntries()),
              static_cast<unsigned long long>(Log.DroppedHead),
              Log.Truncated ? " — TRUNCATED (prefix replay)" : "");

  ReplayVerdict V = verifyReplay(Snap, Log, static_cast<uint64_t>(ToEvent));
  std::fputs(V.render().c_str(), stdout);
  if (!V.Error.empty())
    return 1;
  return Verify && !V.Ok ? 3 : 0;
}

/// Rebuilds the header-level triage signature a store entry was indexed
/// under (same fields extractSignature(SnapFile) fills).
FaultSignature entrySignature(const SnapStoreEntry &E) {
  FaultSignature Sig;
  Sig.Kind = E.Kind;
  for (size_t I = 0; I < E.ModuleNames.size(); ++I)
    if (E.ModuleInstrumented[I])
      Sig.Modules.push_back(E.ModuleNames[I]);
  std::sort(Sig.Modules.begin(), Sig.Modules.end());
  Sig.Modules.erase(std::unique(Sig.Modules.begin(), Sig.Modules.end()),
                    Sig.Modules.end());
  Sig.Markers = E.Markers;
  return Sig;
}

/// `tbtool query`: composable-predicate queries over one or more snap
/// stores, emitting the same ranked report triage produces (or
/// --list/--count views). Stores open read-only. --scan forces the
/// linear-scan oracle path instead of the index over one store — results
/// must be identical; the flag exists so operators can cross-check a
/// store whose index they distrust. With repeated --store flags, matches
/// stream through a k-way merge of per-store time cursors in global
/// (timestamp, id, store) order — no store is ever materialized.
int cmdQuery(ArgList A) {
  std::string ModuleStr = A.value("--module");
  std::string Fault = A.value("--fault");
  std::string SigHex = A.value("--sig");
  std::string MachineStr = A.value("--machine");
  std::vector<std::string> StoreDirs = A.valueList("--store");
  int64_t Since = A.intValue("--since", 0);
  int64_t Until = A.intValue("--until", -1);
  int64_t Top = A.intValue("--top", 20);
  bool List = A.flag("--list");
  bool CountOnly = A.flag("--count");
  bool UseScan = A.flag("--scan");
  bool Json = A.json();
  std::string FErr;
  if (!A.finish(FErr))
    return flagError(FErr);
  // The positional store-dir spelling predates --store; both work.
  for (const std::string &P : A.positional())
    StoreDirs.push_back(P);
  if (StoreDirs.empty() || Top < 0 || Since < 0)
    return usage();
  if (UseScan && StoreDirs.size() > 1)
    return flagError("--scan takes one store; several fan in through the "
                     "time index");

  std::vector<std::unique_ptr<SnapStore>> Stores;
  for (const std::string &Dir : StoreDirs) {
    auto S = std::make_unique<SnapStore>();
    SnapStoreOptions SO;
    SO.ReadOnly = true;
    std::string Error;
    if (!S->open(Dir, SO, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 1;
    }
    Stores.push_back(std::move(S));
  }

  SnapQuery Q;
  if (!ModuleStr.empty())
    Q.setModule(ModuleStr);
  if (!Fault.empty())
    Q.setKind(Fault);
  if (!SigHex.empty()) {
    char *End = nullptr;
    uint64_t FP = std::strtoull(SigHex.c_str(), &End, 16);
    if (SigHex.empty() || *End != '\0') {
      std::fprintf(stderr, "--sig: '%s' is not a hex fingerprint\n",
                   SigHex.c_str());
      return 2;
    }
    Q.setFingerprint(FP);
  }
  if (!MachineStr.empty())
    Q.setMachine(MachineStr);
  Q.Since = static_cast<uint64_t>(Since);
  Q.Until = Until < 0 ? UINT64_MAX : static_cast<uint64_t>(Until);
  // --top caps listed entries; counts and the report always see every
  // match (the report applies TopN to clusters, not matches). The cap is
  // applied by the consumer below, not the per-store query, so a
  // multi-store merge caps the *merged* stream.
  size_t ListCap = (List && !CountOnly) ? static_cast<size_t>(Top) : 0;

  // Streams every match as Fn(entry, store index); Fn returning false
  // stops the stream. One store keeps the classic ascending-id cursor;
  // several stores fan in through a k-way merge of time cursors in
  // (timestamp, id, store) order.
  auto forEachMatch =
      [&](const std::function<bool(const SnapStoreEntry &, size_t)> &Fn) {
        if (Stores.size() == 1) {
          SnapStore &St = *Stores[0];
          SnapStore::Cursor Cur = UseScan ? St.scan(Q) : St.query(Q);
          while (const SnapStoreEntry *E = Cur.next())
            if (!Fn(*E, 0))
              return;
          return;
        }
        std::vector<SnapStore::TimeCursor> Legs;
        Legs.reserve(Stores.size());
        for (auto &St : Stores)
          Legs.push_back(St->timeQuery(Q));
        std::vector<const SnapStoreEntry *> Heads(Legs.size());
        for (size_t I = 0; I < Legs.size(); ++I)
          Heads[I] = Legs[I].next();
        for (;;) {
          size_t Best = Legs.size();
          for (size_t I = 0; I < Legs.size(); ++I) {
            if (!Heads[I])
              continue;
            if (Best == Legs.size() ||
                std::make_pair(Heads[I]->Timestamp, Heads[I]->Id) <
                    std::make_pair(Heads[Best]->Timestamp, Heads[Best]->Id))
              Best = I;
          }
          if (Best == Legs.size())
            break;
          if (!Fn(*Heads[Best], Best))
            return;
          Heads[Best] = Legs[Best].next();
        }
      };

  if (List || CountOnly) {
    size_t Entries = 0;
    uint64_t Occurrences = 0;
    if (Json && List)
      std::printf("[\n");
    bool First = true;
    forEachMatch([&](const SnapStoreEntry &E, size_t StoreIdx) {
      ++Entries;
      Occurrences += E.RefCount;
      if (!List)
        return true;
      if (Json) {
        std::printf("%s  {\"id\": %llu, \"kind\": \"%s\", \"machine\": "
                    "\"%s\", \"process\": \"%s\", \"ts\": %llu, \"sig\": "
                    "\"%016llx\", \"refs\": %llu, \"bytes\": %llu, "
                    "\"store\": \"%s\"}",
                    First ? "" : ",\n",
                    static_cast<unsigned long long>(E.Id), E.Kind.c_str(),
                    E.MachineName.c_str(), E.ProcessName.c_str(),
                    static_cast<unsigned long long>(E.Timestamp),
                    static_cast<unsigned long long>(E.Fingerprint),
                    static_cast<unsigned long long>(E.RefCount),
                    static_cast<unsigned long long>(E.ImageBytes),
                    StoreDirs[StoreIdx].c_str());
        First = false;
      } else {
        std::printf("id %-5llu %-28s %-10s %-6s ts=%-8llu sig=%016llx "
                    "refs=%llu",
                    static_cast<unsigned long long>(E.Id), E.Kind.c_str(),
                    E.MachineName.c_str(), E.ProcessName.c_str(),
                    static_cast<unsigned long long>(E.Timestamp),
                    static_cast<unsigned long long>(E.Fingerprint),
                    static_cast<unsigned long long>(E.RefCount));
        if (Stores.size() > 1)
          std::printf(" store=%s", StoreDirs[StoreIdx].c_str());
        std::printf("\n");
      }
      return ListCap == 0 || Entries < ListCap;
    });
    if (Json && List)
      std::printf("%s]\n", First ? "" : "\n");
    if (Json && CountOnly)
      std::printf("{\"entries\": %zu, \"occurrences\": %llu}\n", Entries,
                  static_cast<unsigned long long>(Occurrences));
    else if (!Json)
      std::printf("%zu entr%s, %llu occurrence(s)\n", Entries,
                  Entries == 1 ? "y" : "ies",
                  static_cast<unsigned long long>(Occurrences));
    return 0;
  }

  // Default view: the triage report, built from index metadata alone —
  // each entry contributes its header-level signature once per folded
  // occurrence, so counts rank by real fleet volume, not dedup shape.
  SignatureClusterer Clusterer{ClusterOptions()};
  size_t Entries = 0;
  forEachMatch([&](const SnapStoreEntry &E, size_t) {
    ++Entries;
    FaultSignature Sig = entrySignature(E);
    std::string Label = formatv("id%llu@%s",
                                static_cast<unsigned long long>(E.Id),
                                E.MachineName.c_str());
    for (uint64_t R = 0; R < E.RefCount; ++R)
      Clusterer.add(Sig, Label);
    return true;
  });
  if (Entries == 0) {
    std::printf("no matching snaps\n");
    return 0;
  }
  std::fputs(renderTriageReport(Clusterer, nullptr,
                                static_cast<size_t>(Top))
                 .c_str(),
             stdout);
  size_t Live = 0;
  std::string Where;
  for (size_t I = 0; I < Stores.size(); ++I) {
    Live += Stores[I]->liveEntries();
    Where += (I ? ", " : "") + StoreDirs[I];
  }
  std::printf("%zu matching entr%s of %zu live in %s\n", Entries,
              Entries == 1 ? "y" : "ies", Live, Where.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Command table
//===----------------------------------------------------------------------===//

CommandRegistry &registry() {
  static CommandRegistry R = [] {
    CommandRegistry Reg("tbtool");
    Reg.add({"compile", "<src.ml> <out.tbo>",
             "Compile a MiniLang source file to a .tbo module.",
             {{"--managed", "", "emit a managed-technology module"},
              {"--name", "NAME", "module name (default: source basename)"}},
             cmdCompile});
    Reg.add({"asm", "<src.tbasm> <out.tbo>",
             "Assemble TB-ISA source to a .tbo module.", {}, cmdAsm});
    Reg.add({"instrument", "<in.tbo> <out.tbo> <out.tbmap>",
             "Insert trace probes and emit the module's mapfile.",
             {{"--dag-base", "N", "first DAG id to assign"},
              {"--stats", "", "print instrumentation stats as JSON"},
              {"--no-elide", "", "disable dominance-based probe elision"}},
             cmdInstrument});
    Reg.add({"disasm", "<mod.tbo>", "Disassemble a module.", {}, cmdDisasm});
    Reg.add({"mapinfo", "<map.tbmap>", "Summarize a mapfile.", {},
             cmdMapInfo});
    Reg.add({"snapinfo", "<snap.tbsnap>",
             "Describe a snap's header, modules and buffers.", {},
             cmdSnapInfo});
    Reg.add({"info", "<snap.tbsnap>",
             "Per-section wire cost of a serialized snap.", {}, cmdInfo});
    Reg.add({"archive", "list <file.tbar> | extract <file.tbar> <index> "
             "<out.tbsnap>",
             "List or extract entries of a snap archive.", {}, cmdArchive});
    Reg.add({"reconstruct", "<snap.tbsnap> <map.tbmap>...",
             "Reconstruct control flow from a snap (or a directory with "
             "--batch).",
             {{"--thread", "N", "render only this thread"},
              {"--tree", "", "render call trees instead of flat traces"},
              {"--jobs", "N", "worker threads"},
              {"--no-cache", "", "disable the DAG-path decode cache"},
              {"--batch", "DIR", "reconstruct every .tbsnap in DIR"},
              {"--render", "", "batch mode: write .trace.txt per snap"}},
             cmdReconstruct});
    Reg.add({"metrics", "<snap.tbsnap> [<map.tbmap>...]",
             "Tracer-health JSON: embedded telemetry + reconstruction "
             "cost.",
             {{"--jobs", "N", "worker threads"},
              {"--json", "", "accepted for uniformity (output is JSON)"}},
             cmdMetrics});
    Reg.add({"run", "<mod.tbo>...",
             "Deploy modules in a simulated process and run to completion.",
             {{"--entry", "NAME", "entry symbol (default main)"},
              {"--policy", "FILE", "runtime policy file"},
              {"--snap-dir", "DIR", "where snaps/mapfiles are written"},
              {"--no-instrument", "", "load modules untraced"}},
             cmdRun});
    Reg.add({"inject", "<mod.tbo>...",
             "Run under a seeded fault plan and verify recovered traces "
             "against the golden run.",
             {{"--seed", "S", "fault-plan seed"},
              {"--plan", "FILE", "replay a saved fault plan"},
              {"--entry", "NAME", "entry symbol (default main)"},
              {"--snap-dir", "DIR", "persist surviving snaps/mapfiles"},
              {"--record", "", "record execution; snaps embed a replayable "
               ".tblog"},
              {"--record-window", "N", "ring-bound retained log entries "
               "(0 = unbounded)"}},
             cmdInject});
    Reg.add({"triage", "<snap-dir|archive.tbar> [<map.tbmap>...]",
             "Cluster snaps by fault signature and print the ranked "
             "report.",
             {{"--jobs", "N", "worker threads"},
              {"--top", "N", "clusters shown (default 20)"},
              {"--near", "D", "near-tier path edit distance"},
              {"--store", "FILE", "write signatures to a .tbsig store"},
              {"--diff", "FILE", "diff against a baseline .tbsig (exit 3 "
               "on regression)"}},
             cmdTriage});
    Reg.add({"serve", "",
             "Run the fleet collector against a simulated crashing fleet, "
             "ingesting snap pushes into an indexed store.",
             {{"--store", "DIR", "snap store directory (required)"},
              {"--machines", "N", "fleet size per round (default 3)"},
              {"--rounds", "N", "deployment rounds (default 2)"},
              {"--seed", "S", "chaos seed"},
              {"--chaos", "", "inject seeded network faults"},
              {"--record", "", "record each round; snaps embed a "
               "replayable .tblog"},
              {"--shards", "N", "store payload shards (default 4)"},
              {"--max-bytes", "B", "retention: live payload byte cap"},
              {"--max-age", "T", "retention: age cap in timestamp units"},
              {"--compact", "", "compact the store after ingest"},
              {"--json", "", "print the summary as JSON"}},
             cmdServe});
    Reg.add({"replay", "<snap.tbsnap>",
             "Re-execute a recorded run from its execution log and "
             "self-check the replayed trace against the snap's.",
             {{"--log", "FILE", "explicit .tblog (default: the snap's "
               "embedded log)"},
              {"--store", "DIR", "replay a store-resident snap (with "
               "--id)"},
              {"--id", "N", "store entry id"},
              {"--verify", "", "exit 3 unless the replay is divergence-"
               "free and byte-identical"},
              {"--to", "N", "stop enforcing after log event N (partial "
               "replay)"}},
             cmdReplay});
    Reg.add({"query", "[<store-dir>]",
             "Query one or more snap stores with composable predicates; "
             "emits the triage report format. Several --store flags fan "
             "in through a streaming (timestamp, id) merge.",
             {{"--store", "DIR", "snap store to query (repeatable)", true},
              {"--module", "M", "module name or 16-hex checksum key"},
              {"--fault", "KIND", "fault kind (e.g. fault:segv@appa)"},
              {"--sig", "HEX", "signature fingerprint"},
              {"--machine", "M", "machine name or transport id"},
              {"--since", "T", "window start timestamp (inclusive)"},
              {"--until", "T", "window end timestamp (inclusive)"},
              {"--top", "N", "clusters (report) or entries (--list) shown"},
              {"--list", "", "list matching entries instead of the report"},
              {"--count", "", "print only match counts"},
              {"--scan", "", "use the linear-scan oracle instead of the "
               "index (one store only)"},
              {"--json", "", "JSON output for --list (rows carry their "
               "source store)"}},
             cmdQuery});
    return Reg;
  }();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  std::vector<std::string> Args(argv + 2, argv + argc);
  if (Cmd == "help" || Cmd == "--help" || Cmd == "-h") {
    if (Args.empty()) {
      std::fputs(registry().usageText().c_str(), stdout);
      return 0;
    }
    if (const tool::CommandSpec *Spec = registry().find(Args[0])) {
      std::fputs(registry().helpText(*Spec).c_str(), stdout);
      return 0;
    }
    std::fprintf(stderr, "tbtool help: unknown command '%s'\n",
                 Args[0].c_str());
    return 2;
  }
  return registry().run(Cmd, std::move(Args));
}
