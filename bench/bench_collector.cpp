//===- bench/bench_collector.cpp - Collector ingest + query latency -------===//
//
// Part of the TraceBack reproduction project.
//
// The collector is the fleet's funnel: every machine's daemon pushes its
// snaps here, and every triage question starts with a query against the
// store. Two numbers bound its usefulness, and this bench gates both:
// sustained ingest throughput (the store must drain a fleet-wide fault
// storm faster than the fleet produces it — floor: 5k snaps/sec) and
// query latency at depth (a triage engineer's predicate query against a
// 100k-snap store must come back interactively — ceiling: 50ms at p99).
//
// The workload is synthetic hand-built snaps — the serialization and
// transport costs have their own benches (bench_snap, the transport
// sweeps); this one isolates the store: index maintenance, journal
// appends, shard writes, dedup probing. A tenth of the stream repeats
// earlier payloads byte-for-byte so the dedup path is measured, not just
// the insert path. Queries cycle a mixed predicate set (module, machine,
// kind, fingerprint, window, combinations) over both the indexed cursor
// and the linear-scan oracle; only the indexed path is gated.
//
// Results go to BENCH_collector.json (BENCH_collector_smoke.json under
// TRACEBACK_BENCH_SMOKE, where the stream is small and the gates are
// reported but not enforced).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "collector/CollectorService.h"
#include "collector/PagedIndex.h"
#include "collector/SnapStore.h"
#include "core/FileIO.h"
#include "runtime/Snap.h"
#include "support/MD5.h"
#include "support/Metrics.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <unistd.h>

using namespace traceback;
using namespace traceback::bench;
namespace fs = std::filesystem;

namespace {

bool smokeMode() {
  const char *V = std::getenv("TRACEBACK_BENCH_SMOKE");
  return V && *V && *V != '0';
}

std::string benchStoreDir() {
  fs::path P = fs::temp_directory_path() /
               ("tb-bench-collector-" + std::to_string(::getpid()));
  std::error_code EC;
  fs::remove_all(P, EC);
  return P.string();
}

/// xorshift64*: cheap deterministic stream shaping (no libc rand state).
uint64_t nextRand(uint64_t &S) {
  S ^= S >> 12;
  S ^= S << 25;
  S ^= S >> 27;
  return S * 0x2545F4914F6CDD1Dull;
}

/// The synthetic fleet: a handful of machines and modules, three fault
/// kinds, timestamps marching forward with jitter — the shape a real
/// collector sees, minus the payload bulk benched elsewhere.
std::vector<uint8_t> makeImage(uint64_t &Rng, uint64_t Seq,
                               std::string &MachineOut,
                               uint64_t &MachineIdOut) {
  static const char *Machines[] = {"web01", "web02", "web03", "db01",
                                   "cache01", "cache02"};
  static const char *Mods[] = {"httpd", "authsvc", "cachelib", "dbcore"};
  uint64_t R = nextRand(Rng);
  SnapFile S;
  S.MachineName = Machines[R % 6];
  MachineOut = S.MachineName;
  MachineIdOut = 1 + R % 6;
  S.OsName = "simos";
  S.ProcessName = "app";
  S.Pid = 1000 + Seq;
  S.Timestamp = 1'000'000 + Seq * 10 + (R >> 8) % 7;
  unsigned Fault = (R >> 16) % 4;
  S.Reason = Fault == 3 ? SnapReason::Api : SnapReason::Unhandled;
  for (unsigned M = 0; M < 2; ++M) {
    SnapModuleInfo MI;
    MI.Name = Mods[(Fault + M) % 4];
    MI.Checksum = MD5::hash(MI.Name.data(), MI.Name.size());
    MI.Instrumented = true;
    if (M == 0 && Fault != 3) {
      S.FaultModuleKey = MI.Checksum.low64();
      S.FaultCodeValue = static_cast<uint16_t>(1 + Fault);
    }
    S.Modules.push_back(std::move(MI));
  }
  SnapThreadInfo T;
  T.ThreadId = 1;
  S.Threads.push_back(T);
  return S.serialize();
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  size_t I = static_cast<size_t>(P * (Sorted.size() - 1));
  return Sorted[I];
}

/// Open-latency at depth: the paged checkpoint against full journal
/// replay, over the same synthesized index. The journal is written
/// through the store's own journal writer — open cost depends only
/// on the index, payload shards are never touched by open or by
/// metadata-only queries — so this scales to millions of entries
/// without minutes of ingest. Gates (enforced even in smoke mode, with
/// a smoke-sized threshold): paged open must beat full replay by the
/// floor factor, and the paged index's resident bytes must stay under
/// the page-cache cap after queries have walked it.
std::string runOpenLatencyBench() {
  const uint64_t N = smokeMode() ? 20'000 : 1'000'000;
  const double MinSpeedup = smokeMode() ? 2.0 : 20.0;
  const size_t CacheCap = 2u << 20;

  std::string Dir = benchStoreDir() + "-open";
  std::string JournalPath = Dir + "/index.tbx";
  std::error_code EC;
  fs::create_directories(Dir, EC);
  {
    static const char *Machines[] = {"web01", "web02", "web03",
                                     "db01",  "cache01", "cache02"};
    static const char *Mods[] = {"httpd", "authsvc", "cachelib", "dbcore"};
    uint64_t ModKeys[4];
    for (unsigned M = 0; M < 4; ++M)
      ModKeys[M] = MD5::hash(Mods[M], std::strlen(Mods[M])).low64();
    uint64_t Rng = 0xbe5eed0123456789ull;
    uint64_t I = 0;
    auto NextEntry = [&](SnapStoreEntry &E) {
      if (I == N)
        return false;
      uint64_t R = nextRand(Rng);
      unsigned M0 = R % 4, M1 = (M0 + 1) % 4;
      E.Id = I + 1;
      E.Shard = static_cast<uint32_t>(R % 4);
      E.Offset = I * 4096;
      E.ImageBytes = 4000;
      E.PayloadHash = 0x2545F4914F6CDD1Dull * (I + 1);
      // ~1000 distinct fingerprints: realistic posting-list depth.
      E.Fingerprint = 0x9e3779b97f4a7c15ull * (1 + (R >> 8) % 1000);
      E.Kind = formatv("fault%u@%s", M0, Mods[M0]);
      E.MachineName = Machines[R % 6];
      E.MachineId = 1 + R % 6;
      E.ProcessName = "app";
      E.Pid = 1000 + I;
      E.Timestamp = 1'000'000 + I * 10;
      E.Reason = 1;
      for (unsigned M : {M0, M1}) {
        E.ModuleNames.push_back(Mods[M]);
        E.ModuleKeys.push_back(ModKeys[M]);
        E.ModuleInstrumented.push_back(1);
      }
      ++I;
      return true;
    };
    std::string Err;
    if (!writeIndexJournal(JournalPath, NextEntry, Err)) {
      std::fprintf(stderr, "bench: cannot write synthetic journal: %s\n",
                   Err.c_str());
      std::abort();
    }
  }
  uint64_t JournalBytes = fs::file_size(JournalPath, EC);

  auto openStore = [&](SnapStore &St, bool ReadOnly, MetricsRegistry &Reg) {
    SnapStoreOptions O;
    O.ReadOnly = ReadOnly;
    O.PageCacheBytes = CacheCap;
    O.Metrics = &Reg;
    std::string Err;
    if (!St.open(Dir, O, Err)) {
      std::fprintf(stderr, "bench: open failed: %s\n", Err.c_str());
      std::abort();
    }
  };

  // 1. Full journal replay, read-only (no checkpoint exists yet).
  double UnpagedMs = 0;
  {
    MetricsRegistry Reg;
    SnapStore St;
    auto T0 = std::chrono::steady_clock::now();
    openStore(St, /*ReadOnly=*/true, Reg);
    auto T1 = std::chrono::steady_clock::now();
    UnpagedMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
    if (St.openedPaged() || St.liveEntries() != N)
      std::abort();
    St.close();
  }

  // 2. Build the checkpoint (a writable open + close — untimed
  //    maintenance, reported for scale).
  double CheckpointMs = 0;
  {
    MetricsRegistry Reg;
    SnapStore St;
    openStore(St, /*ReadOnly=*/false, Reg);
    auto T0 = std::chrono::steady_clock::now();
    St.close(); // Dirty replayed open → writes index.tbx2.
    auto T1 = std::chrono::steady_clock::now();
    CheckpointMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
  }

  // 3. Paged open: checkpoint validation + zero-length tail replay.
  MetricsRegistry Reg;
  SnapStore St;
  auto T0 = std::chrono::steady_clock::now();
  openStore(St, /*ReadOnly=*/true, Reg);
  auto T1 = std::chrono::steady_clock::now();
  double PagedMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
  if (!St.openedPaged()) {
    std::fprintf(stderr, "bench: paged open fell back to journal replay\n");
    std::abort();
  }
  if (St.liveEntries() != N)
    std::abort();

  // Walk queries through the page cache so the resident ceiling is
  // tested against a warmed, evicting cache, not an empty one.
  double QueryMs = 0;
  uint64_t Rows = 0;
  {
    std::vector<SnapQuery> Mix;
    Mix.push_back(SnapQuery().setModule("httpd"));
    Mix.push_back(SnapQuery().setMachine("db01"));
    Mix.push_back(
        SnapQuery().setFingerprint(0x9e3779b97f4a7c15ull * 500));
    for (SnapQuery &Q : Mix)
      Q.Top = 2000;
    auto Q0 = std::chrono::steady_clock::now();
    for (const SnapQuery &Q : Mix) {
      SnapStore::Cursor Cur = St.query(Q);
      while (Cur.next())
        ++Rows;
    }
    auto Q1 = std::chrono::steady_clock::now();
    QueryMs = std::chrono::duration<double, std::milli>(Q1 - Q0).count();
  }

  uint64_t Resident = St.pageCacheResidentBytes();
  uint64_t Hits = Reg.counter("collector.store.page.hits").value();
  uint64_t Misses = Reg.counter("collector.store.page.misses").value();
  uint64_t Evictions = Reg.counter("collector.store.page.evictions").value();
  double Speedup = PagedMs > 0 ? UnpagedMs / PagedMs : 0;
  St.close();
  fs::remove_all(Dir, EC);

  std::printf("Open latency at depth (%llu index entries)\n",
              static_cast<unsigned long long>(N));
  printRule();
  std::printf("open: journal replay    %10.1f ms   (%llu journal bytes)\n",
              UnpagedMs, static_cast<unsigned long long>(JournalBytes));
  std::printf("open: paged checkpoint  %10.1f ms   (%.1fx faster; "
              "checkpoint build %.1f ms)\n",
              PagedMs, Speedup, CheckpointMs);
  std::printf("paged queries           %10.1f ms   (%llu rows, %llu hit / "
              "%llu miss / %llu evict)\n",
              QueryMs, static_cast<unsigned long long>(Rows),
              static_cast<unsigned long long>(Hits),
              static_cast<unsigned long long>(Misses),
              static_cast<unsigned long long>(Evictions));
  std::printf("resident index bytes    %10llu      (cap %zu)\n",
              static_cast<unsigned long long>(Resident), CacheCap);
  printRule();

  std::string J;
  J += formatv("  \"open_index_entries\": %llu,\n",
               static_cast<unsigned long long>(N));
  J += formatv("  \"open_journal_bytes\": %llu,\n",
               static_cast<unsigned long long>(JournalBytes));
  J += formatv("  \"open_unpaged_ms\": %.3f,\n", UnpagedMs);
  J += formatv("  \"open_paged_ms\": %.3f,\n", PagedMs);
  J += formatv("  \"open_speedup\": %.2f,\n", Speedup);
  J += formatv("  \"checkpoint_build_ms\": %.3f,\n", CheckpointMs);
  J += formatv("  \"paged_query_ms\": %.3f,\n", QueryMs);
  J += formatv("  \"page_hits\": %llu,\n",
               static_cast<unsigned long long>(Hits));
  J += formatv("  \"page_misses\": %llu,\n",
               static_cast<unsigned long long>(Misses));
  J += formatv("  \"page_evictions\": %llu,\n",
               static_cast<unsigned long long>(Evictions));
  J += formatv("  \"resident_bytes\": %llu,\n",
               static_cast<unsigned long long>(Resident));
  J += formatv("  \"page_cache_cap\": %zu,\n", CacheCap);
  J += formatv("  \"gate_open_speedup\": %.1f,\n", MinSpeedup);

  // These two gates hold in smoke mode too: both sides of the ratio see
  // the same machine load, and the resident bound is a hard invariant.
  if (Speedup < MinSpeedup) {
    std::fprintf(stderr,
                 "collector bench: paged open speedup %.2fx below the "
                 "%.1fx floor — regression\n",
                 Speedup, MinSpeedup);
    std::exit(1);
  }
  if (Resident > CacheCap) {
    std::fprintf(stderr,
                 "collector bench: resident index bytes %llu exceed the "
                 "%zu page-cache cap — regression\n",
                 static_cast<unsigned long long>(Resident), CacheCap);
    std::exit(1);
  }
  return J;
}

void printCollectorBench() {
  const uint64_t Snaps = smokeMode() ? 2000 : 120'000;
  const uint64_t QueryReps = smokeMode() ? 20 : 200;
  const double MinSnapsPerSec = 5000.0;
  const double MaxQueryP99Ms = 50.0;

  std::string Dir = benchStoreDir();
  MetricsRegistry Reg;
  SnapStoreOptions O;
  O.Shards = 4;
  O.Metrics = &Reg;
  SnapStore St;
  std::string Err;
  if (!St.open(Dir, O, Err)) {
    std::fprintf(stderr, "bench: cannot open store: %s\n", Err.c_str());
    std::abort();
  }

  // Pre-build the whole stream so the timed loop is store cost only.
  // Every tenth snap replays an earlier image byte-for-byte: the dedup
  // probe runs on every append, and one in ten takes the refcount path.
  uint64_t Rng = 0x5eed5eed5eed5eedull;
  std::vector<std::vector<uint8_t>> Images;
  std::vector<uint64_t> MachineIds;
  Images.reserve(Snaps);
  MachineIds.reserve(Snaps);
  std::string Machine;
  for (uint64_t I = 0; I < Snaps; ++I) {
    if (I % 10 == 9 && I > 10) {
      Images.push_back(Images[I - 9]);
      MachineIds.push_back(MachineIds[I - 9]);
      continue;
    }
    uint64_t Mid = 0;
    Images.push_back(makeImage(Rng, I, Machine, Mid));
    MachineIds.push_back(Mid);
  }

  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Snaps; ++I) {
    SnapStore::AppendResult R;
    if (!St.append(Images[I], MachineIds[I], R, &Err)) {
      std::fprintf(stderr, "bench: append %llu failed: %s\n",
                   static_cast<unsigned long long>(I), Err.c_str());
      std::abort();
    }
  }
  auto T1 = std::chrono::steady_clock::now();
  double IngestSeconds = std::chrono::duration<double>(T1 - T0).count();
  double SnapsPerSec = static_cast<double>(Snaps) / IngestSeconds;
  uint64_t DedupHits = St.dedupHits();

  // The mixed predicate set a triage session actually issues. Walking
  // the cursor to exhaustion is part of the measured cost — a query you
  // cannot iterate is not answered.
  uint64_t HttpdKey = MD5::hash("httpd", 5).low64();
  const SnapStoreEntry *AnyFault = nullptr;
  {
    SnapStore::Cursor Cur = St.scan(SnapQuery().setKind("none"));
    // Find a fault entry for the fingerprint predicate via one scan.
    SnapStore::Cursor All = St.scan(SnapQuery());
    while (const SnapStoreEntry *E = All.next()) {
      if (E->Kind != "none") {
        AnyFault = E;
        break;
      }
    }
    (void)Cur;
  }
  std::vector<SnapQuery> Mix;
  Mix.push_back(SnapQuery().setModule("httpd"));
  Mix.push_back(SnapQuery().setMachine("db01"));
  Mix.push_back(SnapQuery().setModule("authsvc").setMachine("web02"));
  Mix.push_back(SnapQuery().setWindow(1'000'000, 1'000'000 + Snaps * 5));
  if (AnyFault) {
    Mix.push_back(SnapQuery().setKind(AnyFault->Kind));
    Mix.push_back(SnapQuery().setFingerprint(AnyFault->Fingerprint));
  }
  {
    char Hex[17];
    std::snprintf(Hex, sizeof(Hex), "%016llx",
                  static_cast<unsigned long long>(HttpdKey));
    Mix.push_back(SnapQuery().setModule(Hex).setKind(
        AnyFault ? AnyFault->Kind : "none"));
  }

  std::vector<double> LatenciesMs;
  uint64_t Matched = 0;
  for (uint64_t Rep = 0; Rep < QueryReps; ++Rep) {
    const SnapQuery &Q = Mix[Rep % Mix.size()];
    auto Q0 = std::chrono::steady_clock::now();
    SnapStore::Cursor Cur = St.query(Q);
    uint64_t N = 0;
    while (Cur.next())
      ++N;
    auto Q1 = std::chrono::steady_clock::now();
    LatenciesMs.push_back(
        std::chrono::duration<double, std::milli>(Q1 - Q0).count());
    Matched += N;
  }
  std::sort(LatenciesMs.begin(), LatenciesMs.end());
  double P50 = percentile(LatenciesMs, 0.50);
  double P99 = percentile(LatenciesMs, 0.99);

  // The scan oracle at the same depth, for the report: the gap between
  // these two lines is what the index buys.
  double ScanMs = 0;
  {
    auto S0 = std::chrono::steady_clock::now();
    SnapStore::Cursor Cur = St.scan(Mix[0]);
    while (Cur.next()) {
    }
    auto S1 = std::chrono::steady_clock::now();
    ScanMs = std::chrono::duration<double, std::milli>(S1 - S0).count();
  }

  std::printf("Collector ingest + query (%llu snaps, %u shards)\n",
              static_cast<unsigned long long>(Snaps), O.Shards);
  printRule();
  std::printf("ingest                  %10.4f s   %12.0f snaps/s   "
              "(%llu dedup hits)\n",
              IngestSeconds, SnapsPerSec,
              static_cast<unsigned long long>(DedupHits));
  std::printf("query p50 / p99         %7.3f ms / %7.3f ms   "
              "(%llu queries, %llu rows)\n",
              P50, P99, static_cast<unsigned long long>(QueryReps),
              static_cast<unsigned long long>(Matched));
  std::printf("scan (same predicate)   %10.3f ms\n", ScanMs);
  std::printf("live                    %10llu entries   %llu bytes\n",
              static_cast<unsigned long long>(St.liveEntries()),
              static_cast<unsigned long long>(St.liveBytes()));
  printRule();

  std::string OpenJ = runOpenLatencyBench();

  std::string J = "{\n  \"bench\": \"collector\",\n";
  J += formatv("  \"snaps\": %llu,\n",
               static_cast<unsigned long long>(Snaps));
  J += formatv("  \"shards\": %u,\n", O.Shards);
  J += formatv("  \"ingest_seconds\": %.6f,\n", IngestSeconds);
  J += formatv("  \"snaps_per_sec\": %.0f,\n", SnapsPerSec);
  J += formatv("  \"dedup_hits\": %llu,\n",
               static_cast<unsigned long long>(DedupHits));
  J += formatv("  \"queries\": %llu,\n",
               static_cast<unsigned long long>(QueryReps));
  J += formatv("  \"query_p50_ms\": %.3f,\n", P50);
  J += formatv("  \"query_p99_ms\": %.3f,\n", P99);
  J += formatv("  \"scan_ms\": %.3f,\n", ScanMs);
  J += OpenJ;
  J += formatv("  \"gate_snaps_per_sec\": %.0f,\n", MinSnapsPerSec);
  J += formatv("  \"gate_query_p99_ms\": %.0f,\n", MaxQueryP99Ms);
  J += formatv("  \"gates_enforced\": %s\n", smokeMode() ? "false" : "true");
  J += "}\n";
  const char *Name = smokeMode() ? "BENCH_collector_smoke.json"
                                 : "BENCH_collector.json";
  if (!writeFileText(Name, J)) {
    std::fprintf(stderr, "cannot write %s\n", Name);
    std::abort();
  }

  St.close();
  std::error_code EC;
  fs::remove_all(Dir, EC);

  // The gates. Smoke mode reports them without enforcing (a 2k-snap
  // store on a loaded CI box proves wiring, not capacity).
  if (!smokeMode()) {
    if (SnapsPerSec < MinSnapsPerSec) {
      std::fprintf(stderr,
                   "collector bench: ingest %.0f snaps/s below the %.0f "
                   "floor — regression\n",
                   SnapsPerSec, MinSnapsPerSec);
      std::exit(1);
    }
    if (P99 > MaxQueryP99Ms) {
      std::fprintf(stderr,
                   "collector bench: query p99 %.3f ms above the %.0f ms "
                   "ceiling — regression\n",
                   P99, MaxQueryP99Ms);
      std::exit(1);
    }
  }
}

// ---------------------------------------------------------------------------
// google-benchmark registrations (small fixed store).
// ---------------------------------------------------------------------------

void BM_StoreAppend(benchmark::State &State) {
  std::string Dir = benchStoreDir() + "-bm-append";
  std::error_code EC;
  fs::remove_all(Dir, EC);
  MetricsRegistry Reg;
  SnapStoreOptions O;
  O.Metrics = &Reg;
  SnapStore St;
  std::string Err;
  if (!St.open(Dir, O, Err))
    std::abort();
  uint64_t Rng = 1, Seq = 0, Mid = 0;
  std::string Machine;
  for (auto _ : State) {
    std::vector<uint8_t> Img = makeImage(Rng, Seq++, Machine, Mid);
    SnapStore::AppendResult R;
    if (!St.append(Img, Mid, R, &Err))
      std::abort();
    benchmark::DoNotOptimize(R.Id);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()));
  St.close();
  fs::remove_all(Dir, EC);
}
BENCHMARK(BM_StoreAppend);

void BM_StoreQuery(benchmark::State &State) {
  std::string Dir = benchStoreDir() + "-bm-query";
  std::error_code EC;
  fs::remove_all(Dir, EC);
  MetricsRegistry Reg;
  SnapStoreOptions O;
  O.Metrics = &Reg;
  SnapStore St;
  std::string Err;
  if (!St.open(Dir, O, Err))
    std::abort();
  uint64_t Rng = 2, Mid = 0;
  std::string Machine;
  for (uint64_t I = 0; I < 2000; ++I) {
    std::vector<uint8_t> Img = makeImage(Rng, I, Machine, Mid);
    SnapStore::AppendResult R;
    if (!St.append(Img, Mid, R, &Err))
      std::abort();
  }
  SnapQuery Q = SnapQuery().setModule("httpd").setMachine("db01");
  for (auto _ : State) {
    SnapStore::Cursor Cur = St.query(Q);
    uint64_t N = 0;
    while (Cur.next())
      ++N;
    benchmark::DoNotOptimize(N);
  }
  St.close();
  fs::remove_all(Dir, EC);
}
BENCHMARK(BM_StoreQuery);

} // namespace

int main(int argc, char **argv) {
  printCollectorBench();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
