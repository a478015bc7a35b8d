//===- perfbench/src/FleetStorm.cpp - The write-path workload -------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// fleet_storm repeats `tbtool serve`'s round: Machines machines each run
/// two crashing apps with network transport on, and a CollectorService
/// drains the snap pushes into a SnapStore. One operation is one round
/// (deploy, World::run, pumpNetwork, drain). A pass is RoundsPerPass
/// rounds into a fresh store, then SnapStore::close writes the checkpoint.
/// Every crash group-snaps the fleet, so the snaps are small and many.
///
/// Telemetry is isolated the way serve isolates it: each round's
/// Deployment and each pass's collector report into their own registry,
/// so benchmark counters never leak into the telemetry snaps embed.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workload.h"

#include "collector/CollectorService.h"
#include "collector/SnapStore.h"
#include "core/Session.h"
#include "lang/CodeGen.h"
#include "support/Random.h"
#include "support/Text.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

using namespace traceback;
using namespace perfbench;

namespace {

constexpr unsigned Machines = 8;
constexpr unsigned RoundsPerPass = 4;

/// The serve fleet's two crashers (a null load and a division by zero),
/// with loop constants drawn from the seed.
std::string segvSource(Rng &R) {
  return formatv("fn main() export {\n"
                 "  var x = %u;\n  var i = 0;\n"
                 "  while (i < %u) {\n    x = x * %u + 1;\n"
                 "    i = i + 1;\n    yield();\n  }\n"
                 "  var p = 0;\n  print(load(p));\n}\n",
                 static_cast<unsigned>(R.range(1, 9)),
                 static_cast<unsigned>(R.range(56, 64)),
                 static_cast<unsigned>(R.range(2, 7)));
}

std::string divZeroSource(Rng &R) {
  return formatv("fn main() export {\n"
                 "  var x = %u;\n  var i = 0;\n"
                 "  while (i < %u) {\n    x = x * %u + 3;\n"
                 "    i = i + 1;\n    yield();\n  }\n"
                 "  var z = 0;\n  print(x / z);\n}\n",
                 static_cast<unsigned>(R.range(1, 9)),
                 static_cast<unsigned>(R.range(56, 64)),
                 static_cast<unsigned>(R.range(2, 7)));
}

std::vector<uint64_t> ids(SnapStore::Cursor C) {
  std::vector<uint64_t> Out;
  while (const SnapStoreEntry *E = C.next())
    Out.push_back(E->Id);
  return Out;
}

class FleetStorm : public Workload {
public:
  bool setup(uint64_t Seed, const std::string &D, std::string &Error) override {
    Dir = D;
    Rng R(mixSeed(Seed, 1));
    const std::string Sources[2] = {segvSource(R), divZeroSource(R)};
    const char *Names[2] = {"appa", "appb"};
    for (int I = 0; I < 2; ++I)
      if (!minilang::compileMiniLang(Sources[I], Names[I], Names[I],
                                     Technology::Native, Mods[I], Error))
        return false;
    std::filesystem::create_directories(Dir);
    // One untimed pass faults in code and grows the allocator, so the
    // first timed round costs what later ones do.
    beginPass();
    bool Ok = true;
    for (size_t I = 0; I < RoundsPerPass; ++I)
      Ok &= step(I).Ok;
    endPass(true, Ok);
    PassNo = 0;
    resetLayers();
    if (!Ok)
      Error = "warm-up pass failed its checks";
    return Ok;
  }

  size_t passLength() const override { return RoundsPerPass; }

  void beginPass() override {
    Span S("collector.open");
    PassDir = Dir + formatv("/pass%u", PassNo++);
    std::filesystem::remove_all(PassDir);
    CollectorMetrics = std::make_unique<MetricsRegistry>();
    Store = std::make_unique<SnapStore>();
    SnapStoreOptions SO;
    SO.Metrics = CollectorMetrics.get();
    std::string Error;
    StoreOpen = Store->open(PassDir, SO, Error);
    if (!StoreOpen)
      std::fprintf(stderr, "fleet_storm: %s\n", Error.c_str());
    CollectorOptions CO;
    CO.Metrics = CollectorMetrics.get();
    Service = std::make_unique<CollectorService>(*Store, CO);
    Cur = Counts();
  }

  OpResult step(size_t) override {
    OpResult Res;
    Res.Ok = StoreOpen;
    uint64_t Received0 = Service->received();
    uint64_t Ingested0 = Service->ingested();
    uint64_t T0 = nowNs();
    // Fresh per-round telemetry, as serve does; declared before the
    // deployment whose runtimes report into it.
    auto RoundMetrics = std::make_unique<MetricsRegistry>();
    auto D = std::make_unique<Deployment>();
    D->Metrics = RoundMetrics.get();
    std::vector<Process *> Procs;
    {
      Span S("core.deploy");
      D->enableNetworkTransport();
      Service->attachTransport(*D->collectorEndpoint());
      std::string Error;
      for (unsigned MI = 0; MI < Machines && Res.Ok; ++MI) {
        Machine *M = D->addMachine(formatv("fleet%02u", MI));
        for (const Module &Mod : Mods) {
          Process *P = M->createProcess(Mod.Name);
          if (!D->deploy(*P, Mod, /*Instrument=*/true, Error) ||
              !P->start("main")) {
            std::fprintf(stderr, "fleet_storm: deploy: %s\n", Error.c_str());
            Res.Ok = false;
            break;
          }
          Procs.push_back(P);
        }
      }
    }
    {
      Span S("vm.run");
      D->world().run();
    }
    bool Quiet = false;
    {
      Span S("distributed.pump");
      Quiet = D->pumpNetwork();
    }
    {
      Span S("collector.drain");
      Service->drain();
    }
    Service->detachTransport();
    Res.LatencyNs = nowNs() - T0;

    {
      Span S("bench.verify");
      // The store must index every snap the runtimes captured.
      uint64_t Captured = RoundMetrics->counter("runtime.snaps_taken").value();
      uint64_t Received = Service->received() - Received0;
      uint64_t Ingested = Service->ingested() - Ingested0;
      if (!Quiet || Captured == 0 || Received != Captured ||
          Ingested != Captured || Service->errors() != 0) {
        std::fprintf(stderr,
                     "fleet_storm: round lost snaps: captured %llu, received "
                     "%llu, indexed %llu, errors %llu, quiet %d\n",
                     (unsigned long long)Captured,
                     (unsigned long long)Received,
                     (unsigned long long)Ingested,
                     (unsigned long long)Service->errors(), Quiet);
        Res.Ok = false;
      }
      uint64_t Cycles = 0;
      for (const Process *P : Procs)
        Cycles += P->CyclesUsed;
      Res.Items = Ingested;
      Cur["guest_cycles"] += Cycles;
      Cur["snaps_captured"] += Captured;
      Cur["snaps_indexed"] += Ingested;
      Layer["vm.guest_cycles"] += Cycles;
      Layer["runtime.snaps_captured"] += Captured;
      for (const char *N : {"frames_sent", "frames_retried", "snap_pushes"}) {
        uint64_t V = RoundMetrics->counter(std::string("daemon.net.") + N).value();
        Layer[std::string("distributed.") + N] += V;
        Cur[N] += V;
      }
    }
    {
      Span S("core.teardown");
      D.reset();
    }
    return Res;
  }

  uint64_t endPass(bool Complete, bool &Ok) override {
    uint64_t LiveBytes = Store->liveBytes();
    uint64_t LiveEntries = Store->liveEntries();
    uint64_t DedupHits = Store->dedupHits();
    uint64_t T0 = nowNs();
    {
      Span S("collector.checkpoint");
      Store->close();
    }
    uint64_t CheckpointNs = nowNs() - T0;

    Span S("bench.verify");
    TotalLiveBytes += LiveBytes;
    TotalLiveEntries += LiveEntries;
    Layer["collector.inline_drains"] +=
        CollectorMetrics->counter("collector.ingest.inline_drains").value();
    Layer["dedup_hits"] += DedupHits;
    Layer["ingested"] += Service->ingested();
    if (Service->errors() != 0) {
      std::fprintf(stderr, "fleet_storm: collector errors: %llu\n",
                   (unsigned long long)Service->errors());
      Ok = false;
    }
    Ok &= queryMatchesScan();
    // The pass counts leave out live entries and dedup hits: snaps embed
    // wall-clock latency histograms, so whether two snaps are
    // byte-identical is itself a matter of timing.
    if (Complete)
      Last = Cur;
    Service.reset();
    Store.reset();
    std::filesystem::remove_all(PassDir);
    return CheckpointNs;
  }

  Counts passCounts() const override { return Last; }

  double snapBytes() const override {
    return TotalLiveEntries ? static_cast<double>(TotalLiveBytes) /
                                  static_cast<double>(TotalLiveEntries)
                            : 0.0;
  }

  void resetLayers() override { Layer.clear(); }

  void layerMetrics(MetricMap &Out, uint64_t Ops,
                    const std::map<std::string, uint64_t> &) const override {
    double N = Ops ? static_cast<double>(Ops) : 1.0;
    for (const char *K :
         {"vm.guest_cycles", "runtime.snaps_captured", "distributed.frames_sent",
          "distributed.frames_retried", "distributed.snap_pushes",
          "collector.inline_drains"})
      Out[K] = {value(K) / N, "count/op"};
    double Ingested = value("ingested");
    Out["collector.dedup_hit_ratio"] = {
        Ingested ? value("dedup_hits") / Ingested : 0.0, "ratio"};
  }

private:
  double value(const char *K) const {
    auto It = Layer.find(K);
    return It == Layer.end() ? 0.0 : static_cast<double>(It->second);
  }

  /// Reopens the closed store paged and read-only and checks that the
  /// index answers a fixed predicate mix exactly as a linear scan does.
  bool queryMatchesScan() {
    MetricsRegistry Reg;
    SnapStore RO;
    SnapStoreOptions SO;
    SO.ReadOnly = true;
    SO.Metrics = &Reg;
    std::string Error;
    if (!RO.open(PassDir, SO, Error)) {
      std::fprintf(stderr, "fleet_storm: reopen: %s\n", Error.c_str());
      return false;
    }
    uint64_t Fp = 0, TMin = UINT64_MAX, TMax = 0, N = 0;
    SnapStore::Cursor All = RO.scan(SnapQuery());
    while (const SnapStoreEntry *E = All.next()) {
      if (!Fp)
        Fp = E->Fingerprint;
      TMin = std::min(TMin, E->Timestamp);
      TMax = std::max(TMax, E->Timestamp);
      ++N;
    }
    if (!Fp) {
      std::fprintf(stderr,
                   "fleet_storm: reopened store scans %llu entries, none "
                   "with a fingerprint (paged %d, live %zu)\n",
                   (unsigned long long)N, RO.openedPaged(), RO.liveEntries());
      return false;
    }
    std::vector<SnapQuery> Mix(6);
    Mix[0].setModule("appa");
    Mix[1].setModule("appb").setMachine("fleet03");
    Mix[2].setMachine("fleet05");
    Mix[3].setFingerprint(Fp);
    Mix[4].setWindow(TMin, TMin + (TMax - TMin) / 2);
    Mix[5].Top = 7;
    for (size_t I = 0; I < Mix.size(); ++I) {
      std::vector<uint64_t> Q = ids(RO.query(Mix[I]));
      if (Q.empty() || Q != ids(RO.scan(Mix[I]))) {
        std::fprintf(stderr, "fleet_storm: query %zu differs from scan\n", I);
        return false;
      }
    }
    return true;
  }

  Module Mods[2];
  std::string Dir, PassDir;
  unsigned PassNo = 0;
  std::unique_ptr<MetricsRegistry> CollectorMetrics;
  std::unique_ptr<SnapStore> Store;
  std::unique_ptr<CollectorService> Service;
  bool StoreOpen = false;
  Counts Cur, Last;
  std::map<std::string, uint64_t> Layer;
  uint64_t TotalLiveBytes = 0, TotalLiveEntries = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeFleetStorm() {
  return std::make_unique<FleetStorm>();
}
