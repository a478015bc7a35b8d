//===- bench/bench_replay.cpp - Record & replay cost ----------------------===//
//
// Part of the TraceBack reproduction project.
//
// The deployability question for record-and-replay (rr's argument, applied
// to our VM): what does recording the nondeterministic inputs cost on top
// of an already-instrumented run? This bench runs the 384-module fleet
// workload twice per module — recording off, recording on — and compares
// host wall time of the execution phase. Because the recorder only appends
// O(1) bytes per decision (scheduler pick, rand draw, anchor), the
// overhead must stay small: the run aborts nonzero past the 15% gate, so
// the ctest `replay-bench` label is a regression gate, not just a report.
//
// Also measured: replay wall time (rebuild + enforced re-execution +
// verification) against the original execution, the replay self-check
// outcome for a sample of recorded snaps, and log bytes per snap.
//
// Results go to BENCH_replay.json (BENCH_replay_smoke.json under
// TRACEBACK_BENCH_SMOKE).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/FileIO.h"
#include "replay/Recorder.h"
#include "replay/ReplayDriver.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace traceback;
using namespace traceback::bench;

namespace {

/// Hard gate: the bench exits nonzero when recording costs more than this
/// over the recording-off instrumented run.
constexpr double RecordThresholdPercent = 15.0;

/// Every timed run builds and tears down a whole deployment. By default
/// glibc hands the top of the heap back to the kernel when a teardown
/// frees more than 128 KiB there, so the next run's allocations past what
/// the process kept land on fresh pages and fault inside the timed
/// region. How many faults a side takes then follows where its
/// allocations happen to fall, not what recording costs: dropping 184
/// bytes from an unrelated runtime object once took the recording-on
/// runs of a smoke pass from ~650 to ~1,670 minor faults (the off runs
/// stayed at ~220) and the reading up by several points. A recorded
/// service keeps its heap for its whole life, so the bench keeps it too.
void keepHeap() {
#if defined(__GLIBC__)
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
}

bool smokeMode() {
  const char *V = std::getenv("TRACEBACK_BENCH_SMOKE");
  return V && *V && *V != '0';
}

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Deterministic per-module source: a rand-fed branchy request loop,
/// preempted at quantum boundaries like the overhead bench's fleet (one
/// scheduler decision per slice plus one rand draw per request), with a
/// snap anchored at the end.
std::string makeModuleSrc(uint32_t Idx, uint32_t Iters) {
  uint32_t S = Idx * 2654435761u + 0x51ed2701u;
  auto Next = [&] {
    S ^= S << 13;
    S ^= S >> 17;
    S ^= S << 5;
    return S;
  };

  std::string Src;
  Src += "fn handle(x) {\n  var y = x;\n";
  unsigned Branches = 3 + Next() % 4;
  for (unsigned I = 0; I < Branches; ++I)
    Src += formatv("  if (y & %u) { y = y * %u + %u; } "
                   "else { y = y ^ (y >> %u); }\n",
                   1u << (Next() % 8), 3 + Next() % 5, 1 + Next() % 9,
                   1 + Next() % 4);
  unsigned Chunk = 16 + Next() % 16;
  for (unsigned I = 0; I < Chunk; ++I)
    Src += formatv("  y = (y * %u + %u) ^ (y >> %u);\n", 3 + Next() % 7,
                   Next() % 255, 1 + Next() % 5);
  Src += "  return y & 1048575;\n}\n";

  Src += "fn main() export {\n";
  Src += formatv("  var s = %u;\n", 1 + Next() % 1000);
  Src += formatv("  var i = 0;\n  while (i < %u) {\n", Iters);
  Src += "    s = handle(s + (rand() & 31));\n";
  Src += "    i = i + 1;\n";
  Src += "  }\n  snap(1);\n  print(s & 65535);\n}\n";
  return Src;
}

struct RunOutcomeTimed {
  uint64_t WallNs = 0; ///< World execution phase only.
  uint64_t Cycles = 0;
  SnapFile Snap;      ///< The snap(1) anchor capture.
  bool HaveSnap = false;
};

/// One instrumented run, recording on or off. The timed region is world
/// execution only — setup (compile, instrument, deploy) is identical on
/// both sides and recording costs nothing there.
RunOutcomeTimed runTimed(const Module &M, bool Record) {
  RunOutcomeTimed Out;
  Deployment D;
  ExecutionRecorder Rec;
  if (Record) {
    D.Policy.RecordExecution = true;
    Rec.attach(D);
  }
  Machine *Host = D.addMachine("bench");
  Process *P = Host->createProcess("svc");
  std::string Error;
  if (!D.deploy(*P, M, /*Instrument=*/true, Error) || !P->start("main")) {
    std::fprintf(stderr, "bench setup error: %s\n", Error.c_str());
    std::abort();
  }
  uint64_t T0 = nowNs();
  World::RunResult R = D.world().run(2'000'000'000ull);
  Out.WallNs = nowNs() - T0;
  if (R != World::RunResult::AllExited) {
    std::fprintf(stderr, "bench workload did not exit cleanly\n");
    std::abort();
  }
  Out.Cycles = P->CyclesUsed;
  if (!D.snaps().empty()) {
    Out.Snap = D.snaps().front();
    Out.HaveSnap = true;
  }
  return Out;
}

struct Totals {
  uint32_t Modules = 0;
  uint64_t OffNs = 0;
  uint64_t OnNs = 0;
  uint64_t CyclesOff = 0;
  uint64_t CyclesOn = 0;
  uint64_t LogBytes = 0;
  uint64_t Snaps = 0;
  // Replay sample.
  uint64_t ReplayNs = 0;
  uint64_t ReplayedOriginalNs = 0;
  uint32_t ReplayRuns = 0;
  uint32_t ReplayOk = 0;
  uint64_t ReplayDivergences = 0;
};

Totals measureFleet(uint32_t Modules, uint32_t Iters, uint32_t Reps,
                    uint32_t ReplayStride) {
  Totals T;
  T.Modules = Modules;
  for (uint32_t I = 0; I < Modules; ++I) {
    Module M = compileBench(makeModuleSrc(I, Iters), formatv("svc%03u", I));

    // Min-of-reps per side: alternating runs, noise-robust.
    uint64_t BestOff = UINT64_MAX, BestOn = UINT64_MAX;
    RunOutcomeTimed On;
    for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
      RunOutcomeTimed Off = runTimed(M, /*Record=*/false);
      BestOff = std::min(BestOff, Off.WallNs);
      T.CyclesOff = Off.Cycles;
      On = runTimed(M, /*Record=*/true);
      BestOn = std::min(BestOn, On.WallNs);
      T.CyclesOn = On.Cycles;
    }
    T.OffNs += BestOff;
    T.OnNs += BestOn;
    if (On.HaveSnap && !On.Snap.ExecLog.empty()) {
      T.LogBytes += On.Snap.ExecLog.size();
      ++T.Snaps;

      if (I % ReplayStride == 0) {
        ExecutionLog Log;
        if (ExecutionLog::deserialize(On.Snap.ExecLog, Log)) {
          uint64_t T0 = nowNs();
          ReplayVerdict V = verifyReplay(On.Snap, Log);
          T.ReplayNs += nowNs() - T0;
          T.ReplayedOriginalNs += BestOn;
          ++T.ReplayRuns;
          T.ReplayOk += V.Ok;
          T.ReplayDivergences += V.Divergences.size();
        }
      }
    }
  }
  return T;
}

double overheadPercent(uint64_t On, uint64_t Off) {
  return Off == 0 ? 0.0 : 100.0 * (static_cast<double>(On) / Off - 1.0);
}

void writeJson(const Totals &T, uint32_t Iters, double RecordOver) {
  std::string J = "{\n  \"bench\": \"replay\",\n";
  J += formatv("  \"workload\": {\"modules\": %u, \"iters_per_module\": "
               "%u},\n",
               T.Modules, Iters);
  J += formatv("  \"threshold_percent\": %.1f,\n", RecordThresholdPercent);
  J += formatv("  \"wall_ns\": {\"record_off\": %llu, \"record_on\": "
               "%llu},\n",
               static_cast<unsigned long long>(T.OffNs),
               static_cast<unsigned long long>(T.OnNs));
  J += formatv("  \"record_overhead_percent\": %.3f,\n", RecordOver);
  J += formatv("  \"log_bytes\": {\"total\": %llu, \"snaps\": %llu, "
               "\"per_snap\": %.1f},\n",
               static_cast<unsigned long long>(T.LogBytes),
               static_cast<unsigned long long>(T.Snaps),
               T.Snaps ? static_cast<double>(T.LogBytes) / T.Snaps : 0.0);
  J += formatv("  \"replay\": {\"runs\": %u, \"ok\": %u, \"divergences\": "
               "%llu, \"wall_ns\": %llu, \"original_wall_ns\": %llu, "
               "\"wall_ratio_vs_original\": %.3f}\n",
               T.ReplayRuns, T.ReplayOk,
               static_cast<unsigned long long>(T.ReplayDivergences),
               static_cast<unsigned long long>(T.ReplayNs),
               static_cast<unsigned long long>(T.ReplayedOriginalNs),
               T.ReplayedOriginalNs
                   ? static_cast<double>(T.ReplayNs) / T.ReplayedOriginalNs
                   : 0.0);
  J += "}\n";
  const char *Name =
      smokeMode() ? "BENCH_replay_smoke.json" : "BENCH_replay.json";
  if (!writeFileText(Name, J)) {
    std::fprintf(stderr, "cannot write %s\n", Name);
    std::abort();
  }
}

int runReplayBench() {
  const uint32_t Modules = smokeMode() ? 12 : 384;
  const uint32_t Iters = smokeMode() ? 60 : 100;
  const uint32_t Reps = smokeMode() ? 3 : 2;
  const uint32_t ReplayStride = smokeMode() ? 4 : 16;
  keepHeap();
  Totals T = measureFleet(Modules, Iters, Reps, ReplayStride);

  double RecordOver = overheadPercent(T.OnNs, T.OffNs);
  std::printf("Record-mode overhead on a %u-module fleet (%u iterations "
              "each, min of %u reps, host wall ns of the execution "
              "phase)\n",
              T.Modules, Iters, Reps);
  printRule(72);
  std::printf("%-28s %16llu\n", "record off (ns)",
              static_cast<unsigned long long>(T.OffNs));
  std::printf("%-28s %16llu %8.2f%%\n", "record on (ns)",
              static_cast<unsigned long long>(T.OnNs), RecordOver);
  printRule(72);
  std::printf("log bytes: %llu across %llu snaps (%.1f bytes/snap)\n",
              static_cast<unsigned long long>(T.LogBytes),
              static_cast<unsigned long long>(T.Snaps),
              T.Snaps ? static_cast<double>(T.LogBytes) / T.Snaps : 0.0);
  std::printf("replay sample: %u runs, %u ok, %llu divergences, "
              "%.2fx original wall time (includes rebuild + verify)\n",
              T.ReplayRuns, T.ReplayOk,
              static_cast<unsigned long long>(T.ReplayDivergences),
              T.ReplayedOriginalNs
                  ? static_cast<double>(T.ReplayNs) / T.ReplayedOriginalNs
                  : 0.0);
  std::printf("threshold: %.1f%% — %s\n\n", RecordThresholdPercent,
              RecordOver <= RecordThresholdPercent ? "PASS" : "FAIL");

  writeJson(T, Iters, RecordOver);

  if (RecordOver > RecordThresholdPercent) {
    std::fprintf(stderr,
                 "record overhead regression: %.2f%% exceeds the %.1f%% "
                 "threshold\n",
                 RecordOver, RecordThresholdPercent);
    return 1;
  }
  if (T.ReplayRuns != 0 && T.ReplayOk != T.ReplayRuns) {
    std::fprintf(stderr, "replay self-check failed: %u/%u ok\n", T.ReplayOk,
                 T.ReplayRuns);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// google-benchmark registrations: log serialization throughput.
// ---------------------------------------------------------------------------

void BM_ExecutionLogSerialize(benchmark::State &State) {
  Module M = compileBench(makeModuleSrc(5, 60), "svc_gb");
  RunOutcomeTimed On = runTimed(M, /*Record=*/true);
  ExecutionLog Log;
  if (!On.HaveSnap || !ExecutionLog::deserialize(On.Snap.ExecLog, Log)) {
    State.SkipWithError("no recorded snap");
    return;
  }
  for (auto _ : State) {
    std::vector<uint8_t> Bytes = Log.serialize();
    benchmark::DoNotOptimize(Bytes.data());
  }
}
BENCHMARK(BM_ExecutionLogSerialize);

} // namespace

int main(int argc, char **argv) {
  int Rc = runReplayBench();
  if (Rc != 0)
    return Rc;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
