//===- perfbench/src/DiagnoseBatch.cpp - The read-path workload -----------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// diagnose_batch reads the store in the direction opposite to
/// fleet_storm. Setup builds a store of full-ring SynthWorkload snaps
/// drawn from three seeded module fleets, registers their mapfiles,
/// closes the store and reopens it paged and read-only, as `tbtool query`
/// does. One operation is one snap a query returns: loadImage,
/// SnapFile::deserialize, Reconstructor::reconstruct on a 4-worker pool,
/// the fault view plus every thread's flat trace (what `tbtool
/// reconstruct` prints), extractSignature and SignatureClusterer::add. A
/// pass runs the fixed query mix once with a fresh Reconstructor and
/// clusterer.
///
/// Snap sizes spread over a fixed range of thread counts and ring
/// lengths, so the tail percentile means something and the mix is the
/// same for every seed; the seed changes the fleets' modules and the
/// record streams.
/// Some snaps are ingested twice byte for byte, so store dedup fires.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workload.h"

#include "collector/SnapStore.h"
#include "reconstruct/Reconstructor.h"
#include "reconstruct/SynthWorkload.h"
#include "reconstruct/Views.h"
#include "support/Random.h"
#include "support/Text.h"
#include "support/ThreadPool.h"
#include "triage/Clusterer.h"
#include "triage/Signature.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

using namespace traceback;
using namespace perfbench;

namespace {

constexpr unsigned Fleets = 6;
constexpr unsigned FleetModules[Fleets] = {5, 6, 7, 8, 9, 10};
constexpr unsigned DistinctSnaps = 36;
/// Every DupStride-th snap is ingested a second time, byte for byte.
constexpr unsigned DupStride = 3;
constexpr unsigned Machines = 9;

/// What one pass renders: the reconstructed views `tbtool reconstruct`
/// prints for a snap.
std::string renderAll(const SnapFile &Snap, const ReconstructedTrace &T) {
  std::string Out = renderFaultView(Snap, T);
  for (const ThreadTrace &TT : T.Threads)
    Out += renderFlatTrace(TT);
  return Out;
}

uint64_t rawBytes(const SnapFile &Snap) {
  uint64_t N = 0;
  for (const SnapBufferImage &B : Snap.Buffers)
    N += B.Raw.size();
  return N;
}

class DiagnoseBatch : public Workload {
public:
  bool setup(uint64_t Seed, const std::string &D, std::string &Error) override {
    Dir = D + "/store";
    std::filesystem::remove_all(Dir);
    if (!buildStore(Seed, Error))
      return false;

    SnapStoreOptions SO;
    SO.ReadOnly = true;
    SO.Metrics = &StoreMetrics;
    if (!Store.open(Dir, SO, Error))
      return false;
    if (!Store.openedPaged()) {
      Error = "store reopened without its checkpoint";
      return false;
    }
    SnapBytes = static_cast<double>(Store.liveBytes()) /
                static_cast<double>(Store.liveEntries());
    Pool = std::make_unique<ThreadPool>(
        std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
    return buildReference(Error);
  }

  size_t passLength() const override { return Plan.size(); }

  void beginPass() override {
    Recon = std::make_unique<Reconstructor>(Maps, ReconstructOptions(),
                                            &LayerMetrics);
    Clusterer = std::make_unique<SignatureClusterer>(ClusterOptions(),
                                                     &LayerMetrics);
    Cur.reset();
    CurQuery = SIZE_MAX;
    Pass = Counts();
  }

  OpResult step(size_t I) override {
    OpResult Res;
    uint64_t Records0 = LayerMetrics.counter("reconstruct.records").value();
    uint64_t T0 = nowNs();
    uint64_t Id = 0;
    std::vector<uint8_t> Image;
    {
      Span S("collector.query");
      if (Plan[I] != CurQuery) {
        CurQuery = Plan[I];
        Cur.emplace(Store.query(Mix[CurQuery]));
      }
      if (const SnapStoreEntry *E = Cur->next()) {
        Id = E->Id;
        Span L("collector.load");
        Res.Ok = Store.loadImage(*E, Image);
      }
    }
    SnapFile Snap;
    {
      Span S("runtime.snap_decode");
      Res.Ok &= SnapFile::deserialize(Image, Snap);
    }
    ReconstructedTrace Trace;
    {
      Span S("reconstruct");
      Trace = Recon->reconstruct(Snap, Pool.get());
    }
    std::string Text;
    {
      Span S("reconstruct.render");
      Text = renderAll(Snap, Trace);
    }
    FaultSignature Sig;
    {
      Span S("triage.signature");
      Sig = extractSignature(Snap, Trace);
    }
    {
      Span S("triage.cluster");
      Clusterer->add(Sig);
    }
    Res.LatencyNs = nowNs() - T0;

    Span S("bench.verify");
    Res.Items = LayerMetrics.counter("reconstruct.records").value() - Records0;
    if (Id != PlanIds[I] || textHash(Text) != RefHash[I]) {
      std::fprintf(stderr,
                   "diagnose_batch: op %zu (entry %llu) rendered a trace "
                   "unlike the serial uncached reference\n",
                   I, (unsigned long long)Id);
      Res.Ok = false;
    }
    Pass["records"] += Res.Items;
    Pass["render_bytes"] += Text.size();
    // Decode throughput divides these bytes by traced decode time, so
    // count them on traced operations only.
    if (Tracer::get().enabled())
      Layer["raw_bytes"] += rawBytes(Snap);
    Layer["render_bytes"] += Text.size();
    return Res;
  }

  uint64_t endPass(bool Complete, bool &Ok) override {
    Span S("bench.verify");
    if (!Complete)
      return 0;
    Layer["clusters"] = Clusterer->size();
    if (Clusterer->size() != RefClusters) {
      std::fprintf(stderr, "diagnose_batch: %zu clusters, reference %zu\n",
                   Clusterer->size(), RefClusters);
      Ok = false;
    }
    Pass["clusters"] = Clusterer->size();
    Pass["snaps"] = Plan.size();
    Last = Pass;
    return 0;
  }

  Counts passCounts() const override { return Last; }
  double snapBytes() const override { return SnapBytes; }

  void resetLayers() override {
    Layer.clear();
    LayerMetrics.reset();
    StoreMetrics.reset();
  }

  void layerMetrics(MetricMap &Out, uint64_t Ops,
                    const std::map<std::string, uint64_t> &SelfNs)
      const override {
    double N = Ops ? static_cast<double>(Ops) : 1.0;
    MetricsSnapshot M = LayerMetrics.snapshot();
    auto Counter = [&](const char *K) {
      auto It = M.Counters.find(K);
      return It == M.Counters.end() ? 0.0 : static_cast<double>(It->second);
    };
    auto HistMs = [&](const char *K) {
      auto It = M.Histograms.find(K);
      return It == M.Histograms.end()
                 ? 0.0
                 : static_cast<double>(It->second.Sum) / 1e3 / N;
    };
    Out["reconstruct.recover_ms"] = {HistMs("reconstruct.phase_recover_us"), "ms"};
    Out["reconstruct.build_ms"] = {HistMs("reconstruct.phase_build_us"), "ms"};
    Out["reconstruct.merge_ms"] = {HistMs("reconstruct.phase_merge_us"), "ms"};
    Out["reconstruct.records"] = {Counter("reconstruct.records") / N, "count/op"};
    double Hits = Counter("reconstruct.cache_hits");
    double Lookups = Hits + Counter("reconstruct.cache_misses");
    Out["reconstruct.cache_hit_ratio"] = {Lookups ? Hits / Lookups : 0.0, "ratio"};
    Out["reconstruct.render_bytes"] = {value("render_bytes") / N, "B/op"};
    Out["triage.clusters"] = {value("clusters"), "count"};
    MetricsSnapshot SM = StoreMetrics.snapshot();
    Out["collector.page_misses"] = {
        static_cast<double>(SM.Counters["collector.store.page.misses"]) / N,
        "count/op"};
    auto Decode = SelfNs.find("runtime.snap_decode");
    double DecodeS = Decode == SelfNs.end() ? 0.0 : Decode->second / 1e9;
    Out["runtime.decode_mb_s"] = {
        DecodeS > 0 ? value("raw_bytes") / 1e6 / DecodeS : 0.0, "MB/s"};
  }

private:
  double value(const char *K) const {
    auto It = Layer.find(K);
    return It == Layer.end() ? 0.0 : static_cast<double>(It->second);
  }

  /// Generates the snaps and their mapfiles, appends them to a fresh
  /// store and closes it (writing the checkpoint).
  bool buildStore(uint64_t Seed, std::string &Error) {
    MetricsRegistry BuildMetrics;
    SnapStore Out;
    SnapStoreOptions SO;
    SO.Metrics = &BuildMetrics;
    if (!Out.open(Dir, SO, Error))
      return false;
    uint64_t FleetSeed[Fleets];
    for (unsigned F = 0; F < Fleets; ++F) {
      FleetSeed[F] = mixSeed(Seed, 100 + F);
      SynthWorkloadOptions O;
      O.Modules = FleetModules[F];
      O.Threads = 1;
      O.RecordsPerThread = 1;
      for (MapFile &M : makeSynthWorkload(FleetSeed[F], O).Maps)
        Maps.add(std::move(M));
    }
    Rng R(mixSeed(Seed, 2));
    // Snap K comes from fleet K % Fleets with 2..8 threads of 1000..3975
    // records each: sizes spread evenly over 2k..32k records, the same
    // for every seed, so each query returns the same mix of sizes and
    // neighbouring percentiles stay close. A hot set of its own size
    // gives every snap of a fleet its own record stream.
    uint64_t Ts = 1000;
    for (unsigned K = 0; K < DistinctSnaps; ++K) {
      unsigned F = K % Fleets;
      SynthWorkloadOptions O;
      O.Modules = FleetModules[F];
      O.Threads = 2 + 2 * (K % 4);
      O.RecordsPerThread = 1000 + 85 * K;
      O.HotPairs = 16 + K;
      SynthWorkload W = makeSynthWorkload(FleetSeed[F], O);
      SnapFile &S = W.Snap;
      S.Reason = SnapReason::Unhandled;
      S.FaultCodeValue = static_cast<uint16_t>(1 + K / 4 % 3);
      S.FaultThread = 1 + R.below(O.Threads);
      S.FaultModuleKey = W.Maps[0].Checksum.low64();
      S.MachineName = formatv("node%02u", static_cast<unsigned>(K % Machines));
      S.ProcessName = formatv("svc%u", F);
      S.Pid = 100 + K;
      S.RuntimeId = mixSeed(Seed, 1000 + K);
      Ts += 1 + R.below(100);
      S.Timestamp = Ts;
      SnapStore::AppendResult AR;
      int Copies = K % DupStride == 0 ? 2 : 1;
      for (int C = 0; C < Copies; ++C)
        if (!Out.appendSnap(S, 0, AR, &Error))
          return false;
      if (K == 0)
        FirstFingerprint = extractSignature(S).fingerprint();
      if (K == 5)
        SecondFingerprint = extractSignature(S).fingerprint();
      Times.push_back(S.Timestamp);
    }
    if (Out.dedupHits() == 0) {
      Error = "setup: no dedup hit on repeated snaps";
      return false;
    }
    Out.close();
    return true;
  }

  /// Fixes the query mix, plans one pass from it and renders every
  /// planned snap with a 1-worker, cache-off Reconstructor.
  bool buildReference(std::string &Error) {
    Mix.assign(6, SnapQuery());
    Mix[0].setFingerprint(FirstFingerprint).Top = 10;
    Mix[1].setModule("synthmod9").Top = 8;
    Mix[2].setMachine("node04").Top = 6;
    Mix[3].setWindow(Times[6], Times[29]).Top = 12;
    Mix[4].setModule("synthmod0").setMachine("node07").Top = 6;
    Mix[5].setFingerprint(SecondFingerprint)
        .setWindow(Times[3], Times[33])
        .Top = 8;

    ReconstructOptions Ref;
    Ref.Cache.Enabled = false;
    MetricsRegistry RefMetrics;
    Reconstructor Serial(Maps, Ref, &RefMetrics);
    SignatureClusterer Clusters(ClusterOptions(), &RefMetrics);
    for (size_t Q = 0; Q < Mix.size(); ++Q) {
      SnapStore::Cursor C = Store.query(Mix[Q]);
      while (const SnapStoreEntry *E = C.next()) {
        SnapFile Snap;
        if (!Store.loadSnap(*E, Snap)) {
          Error = formatv("reference: cannot load entry %llu",
                          (unsigned long long)E->Id);
          return false;
        }
        Plan.push_back(Q);
        PlanIds.push_back(E->Id);
        ReconstructedTrace T = Serial.reconstruct(Snap);
        RefHash.push_back(textHash(renderAll(Snap, T)));
        Clusters.add(extractSignature(Snap, T));
      }
      if (Plan.empty() || Plan.back() != Q) {
        Error = formatv("reference: query %zu matched nothing", Q);
        return false;
      }
    }
    RefClusters = Clusters.size();
    return true;
  }

  std::string Dir;
  MapFileStore Maps;
  MetricsRegistry StoreMetrics;
  SnapStore Store;
  MetricsRegistry LayerMetrics;
  std::unique_ptr<ThreadPool> Pool;
  double SnapBytes = 0;
  uint64_t FirstFingerprint = 0, SecondFingerprint = 0;
  std::vector<uint64_t> Times;

  std::vector<SnapQuery> Mix;
  std::vector<size_t> Plan;      ///< Query index of each operation.
  std::vector<uint64_t> PlanIds; ///< Store entry of each operation.
  std::vector<uint64_t> RefHash; ///< Reference render hash per operation.
  size_t RefClusters = 0;

  std::unique_ptr<Reconstructor> Recon;
  std::unique_ptr<SignatureClusterer> Clusterer;
  std::optional<SnapStore::Cursor> Cur;
  size_t CurQuery = SIZE_MAX;
  Counts Pass, Last;
  std::map<std::string, uint64_t> Layer;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeDiagnoseBatch() {
  return std::make_unique<DiagnoseBatch>();
}
