//===- bench/bench_reconstruct.cpp - Batch reconstruction throughput ------===//
//
// Part of the TraceBack reproduction project.
//
// The paper keeps runtime probes cheap and pushes the expensive work into
// offline reconstruction (sections 4.1–4.2). At deployment scale the
// reconstructor is therefore the hot path: group snaps arrive from
// thousands of machines. This bench generates large multi-thread,
// multi-module snaps and measures reconstruction throughput in trace
// records per second across the pipeline's configurations:
//
//   legacy_1t_uncached    the pre-pipeline reconstructor (per-record
//                         linear module scan + fresh DFS per record)
//   pipeline_1t_uncached  flat-hash indices + memoized resolution + arenas
//   pipeline_1t_cached    ... plus the memoized DAG-path decode cache
//   pipeline_Nt_cached    ... plus the worker pool (N = min(4, hw))
//
// Every variant must render byte-identical traces; the run aborts if any
// differs. Results go to BENCH_reconstruct.json for the perf trajectory.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/FileIO.h"
#include "reconstruct/Reconstructor.h"
#include "reconstruct/SynthWorkload.h"
#include "reconstruct/Views.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <thread>

using namespace traceback;
using namespace traceback::bench;

namespace {

bool smokeMode() {
  const char *V = std::getenv("TRACEBACK_BENCH_SMOKE");
  return V && *V && *V != '0';
}

SynthWorkloadOptions workloadOpts() {
  SynthWorkloadOptions O;
  if (smokeMode()) {
    O.Modules = 6;
    O.DagsPerModule = 8;
    O.Threads = 3;
    O.RecordsPerThread = 500;
  } else {
    // Deployment-scale group snap: a production process maps hundreds
    // of instrumented modules (the pre-PR per-record module scan is
    // linear in this count, which is precisely what the indices fix).
    O.Modules = 384;
    O.DagsPerModule = 16;
    O.Threads = 8;
    O.RecordsPerThread = 25000;
  }
  O.HotPairs = 32;
  O.HotPercent = 92;
  // Clean records only: corrupt ones spend their time in warning
  // formatting, which is not the path under measurement.
  O.IncludeCorrupt = false;
  return O;
}

std::string renderAll(const SnapFile &Snap, const ReconstructedTrace &T) {
  std::string Out = renderFaultView(Snap, T);
  for (const ThreadTrace &Thread : T.Threads) {
    Out += renderFlatTrace(Thread);
    Out += renderCallTree(Thread);
  }
  for (const std::string &W : T.Warnings) {
    Out += W;
    Out += '\n';
  }
  return Out;
}

struct VariantResult {
  std::string Name;
  double Seconds = 0;
  double RecordsPerSec = 0;
};

void writeJson(const std::vector<VariantResult> &Variants,
               const SynthWorkloadOptions &O, uint64_t Records,
               uint64_t CacheHits, uint64_t CacheMisses,
               const MetricsSnapshot &Metrics) {
  std::string J = "{\n  \"bench\": \"reconstruct\",\n";
  J += formatv("  \"host_hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  J += formatv("  \"workload\": {\"modules\": %u, \"dags_per_module\": %u, "
               "\"threads\": %u, \"records_per_thread\": %u, "
               "\"dag_records\": %llu},\n",
               O.Modules, O.DagsPerModule, O.Threads, O.RecordsPerThread,
               static_cast<unsigned long long>(Records));
  J += "  \"variants\": [\n";
  double LegacyRate = Variants.empty() ? 0 : Variants[0].RecordsPerSec;
  for (size_t I = 0; I < Variants.size(); ++I) {
    const VariantResult &V = Variants[I];
    J += formatv("    {\"name\": \"%s\", \"seconds\": %.6f, "
                 "\"records_per_sec\": %.0f, \"speedup_vs_legacy\": %.2f}%s\n",
                 V.Name.c_str(), V.Seconds, V.RecordsPerSec,
                 LegacyRate > 0 ? V.RecordsPerSec / LegacyRate : 0.0,
                 I + 1 < Variants.size() ? "," : "");
  }
  J += "  ],\n";
  J += formatv("  \"decode_cache\": {\"hits\": %llu, \"misses\": %llu},\n",
               static_cast<unsigned long long>(CacheHits),
               static_cast<unsigned long long>(CacheMisses));
  // The registry snapshot accumulated across every variant run: cache
  // hit/miss counters, record throughput and per-phase latency
  // histograms, in the same schema `tbtool metrics` prints.
  J += "  \"metrics\": ";
  for (char C : Metrics.toJson(2)) {
    J += C;
    if (C == '\n')
      J += "  ";
  }
  J += "\n}\n";
  // The ctest smoke run must not clobber a real measurement.
  const char *Name = smokeMode() ? "BENCH_reconstruct_smoke.json"
                                 : "BENCH_reconstruct.json";
  if (!writeFileText(Name, J)) {
    std::fprintf(stderr, "cannot write %s\n", Name);
    std::abort();
  }
}

void printPipelineBench() {
  SynthWorkloadOptions O = workloadOpts();
  SynthWorkload W = makeSynthWorkload(/*Seed=*/42, O);
  MapFileStore Store;
  for (MapFile &M : W.Maps)
    Store.add(std::move(M));

  unsigned HW = std::thread::hardware_concurrency();
  // The headline comparison is fixed at 4 workers regardless of the
  // host: on a >=4-hw-thread machine it shows the pool's scaling; on a
  // smaller one it degrades gracefully and the JSON records the hw
  // count so readers can tell which case they are looking at.
  const unsigned Jobs = 4;
  const int Reps = smokeMode() ? 1 : 3;

  struct Config {
    const char *Name;
    ReconstructOptions Opts;
    unsigned Jobs; // 1 = no pool
  };
  ReconstructOptions Legacy;
  Legacy.Cache.LegacyUncached = true;
  ReconstructOptions Uncached;
  Uncached.Cache.Enabled = false;
  ReconstructOptions Cached;
  std::vector<Config> Configs = {
      {"legacy_1t_uncached", Legacy, 1},
      {"pipeline_1t_uncached", Uncached, 1},
      {"pipeline_1t_cached", Cached, 1},
      {nullptr, Cached, Jobs}, // name formatted below
  };
  std::string JobsName = formatv("pipeline_%ut_cached", Jobs);
  Configs.back().Name = JobsName.c_str();

  std::printf("Batch reconstruction throughput (%llu DAG records, "
              "%u modules, %u threads, hw=%u)\n",
              static_cast<unsigned long long>(W.DagRecords), O.Modules,
              O.Threads, HW);
  printRule();
  std::printf("%-24s %10s %14s %9s\n", "variant", "seconds", "records/s",
              "speedup");
  printRule();

  std::vector<VariantResult> Results;
  std::string Reference;
  uint64_t CacheHits = 0, CacheMisses = 0;
  // All variants measure into one local registry (not the process-global
  // one) so the JSON only reflects this bench's work.
  MetricsRegistry Registry;
  for (const Config &C : Configs) {
    Reconstructor R(Store, C.Opts, &Registry);
    // The cache counters are the registry's, shared by every variant:
    // the steady-state line reports one configuration's own deltas.
    uint64_t HitsBefore = R.pathCache().hits();
    uint64_t MissesBefore = R.pathCache().misses();
    std::unique_ptr<ThreadPool> Pool;
    if (C.Jobs > 1)
      Pool = std::make_unique<ThreadPool>(C.Jobs);
    // Warmup run: primes the decode cache (steady-state is what batch
    // mode sees) and yields the output for the identical-trace check.
    ReconstructedTrace First = R.reconstruct(W.Snap, Pool.get());
    std::string Rendered = renderAll(W.Snap, First);
    if (Reference.empty())
      Reference = Rendered;
    else if (Rendered != Reference) {
      std::fprintf(stderr,
                   "variant %s rendered a different trace — determinism "
                   "violation\n",
                   C.Name);
      std::abort();
    }
    double Best = 1e100;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      auto T0 = std::chrono::steady_clock::now();
      ReconstructedTrace T = R.reconstruct(W.Snap, Pool.get());
      auto T1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(T.Threads.data());
      double S = std::chrono::duration<double>(T1 - T0).count();
      if (S < Best)
        Best = S;
    }
    VariantResult V;
    V.Name = C.Name;
    V.Seconds = Best;
    V.RecordsPerSec = static_cast<double>(W.DagRecords) / Best;
    Results.push_back(V);
    if (!C.Opts.Cache.LegacyUncached && C.Opts.Cache.Enabled) {
      CacheHits = R.pathCache().hits() - HitsBefore;
      CacheMisses = R.pathCache().misses() - MissesBefore;
    }
    std::printf("%-24s %10.4f %14.0f %8.2fx\n", C.Name, V.Seconds,
                V.RecordsPerSec,
                V.RecordsPerSec / Results[0].RecordsPerSec);
  }
  printRule();
  std::printf("decode cache steady state: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(CacheHits),
              static_cast<unsigned long long>(CacheMisses));
  std::printf("all %zu variants rendered byte-identical traces\n\n",
              Configs.size());

  writeJson(Results, O, W.DagRecords, CacheHits, CacheMisses,
            Registry.snapshot());
}

// ---------------------------------------------------------------------------
// google-benchmark registrations (small fixed workload).
// ---------------------------------------------------------------------------

const SynthWorkload &smallWorkload() {
  static SynthWorkload W = [] {
    SynthWorkloadOptions O;
    O.Modules = 12;
    O.DagsPerModule = 12;
    O.Threads = 4;
    O.RecordsPerThread = 1500;
    O.IncludeCorrupt = false;
    return makeSynthWorkload(7, O);
  }();
  return W;
}

const MapFileStore &smallStore() {
  static MapFileStore Store = [] {
    MapFileStore S;
    for (const MapFile &M : smallWorkload().Maps)
      S.add(M);
    return S;
  }();
  return Store;
}

void BM_ReconstructLegacy(benchmark::State &State) {
  ReconstructOptions Opts;
  Opts.Cache.LegacyUncached = true;
  Reconstructor R(smallStore(), Opts);
  for (auto _ : State) {
    ReconstructedTrace T = R.reconstruct(smallWorkload().Snap);
    benchmark::DoNotOptimize(T.Threads.data());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          smallWorkload().DagRecords);
}
BENCHMARK(BM_ReconstructLegacy);

void BM_ReconstructCached(benchmark::State &State) {
  Reconstructor R(smallStore());
  for (auto _ : State) {
    ReconstructedTrace T = R.reconstruct(smallWorkload().Snap);
    benchmark::DoNotOptimize(T.Threads.data());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          smallWorkload().DagRecords);
}
BENCHMARK(BM_ReconstructCached);

} // namespace

int main(int argc, char **argv) {
  printPipelineBench();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
