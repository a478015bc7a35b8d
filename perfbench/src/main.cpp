//===- perfbench/src/main.cpp - The pipeline benchmark main loop ----------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload as a closed loop and prints its metrics.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--work DIR] [--out DIR]
///
/// --trace 0 measures the end-to-end metrics with tracing off: set-up is
/// repeated SetupReps times and its median reported, operations run
/// untimed for WarmupSeconds, then back to back for S seconds (always at
/// least one whole pass). Every timing, set-up included, is scaled to the
/// reference host's speed (see calibrationNs) and taken over the faster
/// half of the whole passes (see keptPasses).
///
/// --trace 1 is the separate traced run that yields the per-layer ledger:
/// one set-up, WarmupSeconds untraced, then S seconds in which every
/// second pass runs with spans on. It reports each layer's self time per
/// traced operation, the layer counters, the share of the traced passes'
/// wall time the spans cover and the tracing overhead (median traced pass
/// against median untraced pass). Spans are written to
/// DIR/spans-<workload>-<seed>.json.
///
/// Both modes check every output. The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <malloc.h>
#include <string>
#include <sys/resource.h>
#include <vector>

using namespace perfbench;

namespace {

/// The first set-up of a process also grows its heap and faults in its
/// code, so the median of five is one of the later, steadier ones.
constexpr int SetupReps = 5;
/// Untimed running before any measurement. The first seconds of a
/// process on a shared host run slower than the rest (clock ramp-up,
/// cold caches), and that must not decide which seconds a run measures.
constexpr double WarmupSeconds = 3;
/// The traced run must attribute at least this share of its wall time
/// to spans (the ledger's "at most 5% unaccounted" rule).
constexpr double MinCoveragePct = 95.0;

/// Every per-layer metric, in report order. Span-derived ones are self
/// milliseconds per operation; a workload that bypasses a layer reports 0.
const char *const LayerSpans[] = {
    "core.deploy",        "vm.run",           "distributed.pump",
    "collector.drain",    "collector.open",   "collector.checkpoint",
    "core.teardown",      "collector.query",  "collector.load",
    "runtime.snap_decode", "reconstruct",     "reconstruct.render",
    "triage.signature",   "triage.cluster",   "instrument",
    "vm.traced_run",      "replay.log_decode", "replay.build",
    "replay.run",         "replay.verify",    "bench.verify",
};

const std::pair<const char *, const char *> LayerCounters[] = {
    {"vm.guest_cycles", "count/op"},
    {"runtime.snaps_captured", "count/op"},
    {"distributed.frames_sent", "count/op"},
    {"distributed.frames_retried", "count/op"},
    {"distributed.snap_pushes", "count/op"},
    {"collector.inline_drains", "count/op"},
    {"collector.dedup_hit_ratio", "ratio"},
    {"collector.page_misses", "count/op"},
    {"runtime.decode_mb_s", "MB/s"},
    {"reconstruct.recover_ms", "ms"},
    {"reconstruct.build_ms", "ms"},
    {"reconstruct.merge_ms", "ms"},
    {"reconstruct.records", "count/op"},
    {"reconstruct.cache_hit_ratio", "ratio"},
    {"reconstruct.render_bytes", "B/op"},
    {"triage.clusters", "count"},
    {"instrument.light_elided_ratio", "ratio"},
    {"instrument.probe_overhead_pct", "%"},
    {"vm.native_cycles", "count/op"},
    {"vm.traced_cycles", "count/op"},
    {"replay.log_bytes_per_snap", "B"},
    {"replay.divergences", "count/op"},
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".bench_build/perfbench-work";
  std::string OutDir = ".bench_build/perfbench-out";
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--work")
      O.WorkDir = V;
    else if (K == "--out")
      O.OutDir = V;
    else
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty() && O.Seconds > 0;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "fleet_storm")
    return makeFleetStorm();
  if (Name == "diagnose_batch")
    return makeDiagnoseBatch();
  if (Name == "reproduce")
    return makeReproduce();
  return nullptr;
}

/// One complete pass: the same operations every time.
struct PassRecord {
  std::vector<double> LatencyMs;
  uint64_t Items = 0;
  uint64_t BusyNs = 0; ///< Operation latencies plus pass-level work.
  bool Traced = false;
  /// Host speed around the pass (see calibrationNs): 1 on the reference
  /// host, 0.5 when the kernel took twice as long.
  double Speed = 1;
};

/// What one closed-loop run observed.
struct Loop {
  std::vector<PassRecord> Passes; ///< Complete passes only.
  uint64_t Ops = 0;               ///< Including a pass cut short.
  uint64_t WallNs = 0;
  uint64_t TracedOps = 0;
  uint64_t TracedWallNs = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Deterministic counts every complete pass must repeat.
struct Determinism {
  Counts First;
  bool Have = false;
  bool Stable = true;
};

/// The calibration kernel's time on the reference host (4 vCPUs of a
/// shared x86-64 server, at a quiet moment). Only ratios to it matter.
constexpr double ReferenceCalibrationNs = 2.1e6;

/// Times a fixed integer-and-memory kernel that shares no code with
/// TraceBack, best of three. The host's CPUs are shared with other
/// machines' work, and this host's speed swings by up to two thirds over
/// seconds to minutes; the kernel (a 4 MiB working set, beyond a core's
/// share of cache) slows down with it, so scaling a timing by the
/// kernel's speed takes the host's state out of it while every change to
/// TraceBack stays in.
double calibrationNs() {
  static std::vector<uint32_t> Buf(1u << 20);
  static volatile uint64_t Sink = 0;
  uint64_t Best = UINT64_MAX;
  for (int R = 0; R < 3; ++R) {
    uint64_t T0 = nowNs(), H = 1;
    for (size_t I = 0; I < Buf.size(); ++I) {
      H = H * 6364136223846793005ULL + Buf[(I * 7919) & (Buf.size() - 1)] + I;
      Buf[I] = static_cast<uint32_t>(H >> 32);
    }
    Sink = Sink ^ H;
    Best = std::min(Best, nowNs() - T0);
  }
  return static_cast<double>(Best);
}

/// How strongly TraceBack's timings follow the kernel's. The kernel is
/// more memory-bound than the program, so it slows down more when the host
/// is busy: over ten-seed runs on the reference host, wall time went as
/// the kernel's speed to the power 0.7 to 0.85, and scaling by the full
/// ratio left faster-host runs reading slower than the rest.
constexpr double SpeedExponent = 0.75;

/// Host speed over an interval whose ends measured \p Before and \p After.
double hostSpeed(double Before, double After) {
  return std::pow(2 * ReferenceCalibrationNs / (Before + After),
                  SpeedExponent);
}

/// Runs passes back to back until \p DeadlineNs, finishing at least
/// \p MinPasses whole passes; a pass cut by the deadline is ended early,
/// after at least one operation, so that no pass checks empty output.
/// With \p Alternate, every second pass runs with spans on, so traced and
/// untraced passes share the host's quiet and busy moments alike.
void runLoop(Workload &W, uint64_t DeadlineNs, size_t MinPasses, Loop &L,
             Determinism &Det, bool Alternate = false) {
  static uint64_t NextOp = 1;
  uint64_t Start = nowNs();
  for (size_t Pass = 0;; ++Pass) {
    bool MustFinish = Pass < MinPasses;
    PassRecord PR;
    PR.Traced = Alternate && Pass % 2 == 1;
    double CalibrationBefore = calibrationNs();
    Tracer::get().enable(PR.Traced);
    uint64_t PassStart = nowNs();
    W.beginPass();
    size_t N = W.passLength(), I = 0;
    for (; I < N; ++I) {
      if (!MustFinish && I > 0 && nowNs() >= DeadlineNs)
        break;
      Tracer::get().setOp(NextOp++);
      OpResult R;
      {
        Span Op("op");
        R = W.step(I);
      }
      Tracer::get().setOp(0);
      ++L.Ops;
      ++L.Attempted;
      L.Failed += !R.Ok;
      PR.Items += R.Items;
      PR.BusyNs += R.LatencyNs;
      PR.LatencyMs.push_back(R.LatencyNs / 1e6);
    }
    bool Complete = I == N, Ok = true;
    PR.BusyNs += W.endPass(Complete, Ok);
    Tracer::get().enable(false);
    uint64_t PassEnd = nowNs();
    PR.Speed = hostSpeed(CalibrationBefore, calibrationNs());
    if (PR.Traced) {
      L.TracedOps += I;
      L.TracedWallNs += PassEnd - PassStart;
    }
    if (!Ok) {
      // A pass-level check failed: charge it to the pass's last operation.
      ++L.Failed;
      L.Attempted += L.Attempted == 0;
    }
    if (Complete) {
      L.Passes.push_back(std::move(PR));
      Counts C = W.passCounts();
      if (!Det.Have) {
        Det.First = C;
        Det.Have = true;
      } else if (C != Det.First) {
        Det.Stable = false;
        for (const auto &[K, V] : C)
          if (Det.First[K] != V)
            std::fprintf(stderr, "pass %zu: %s=%llu, first pass had %llu\n",
                         Pass, K.c_str(), (unsigned long long)V,
                         (unsigned long long)Det.First[K]);
      }
    }
    if (!Complete || (Pass + 1 >= MinPasses && nowNs() >= DeadlineNs))
      break;
  }
  L.WallNs = nowNs() - Start;
}

uint64_t deadlineIn(double Seconds) {
  return nowNs() + static_cast<uint64_t>(Seconds * 1e9);
}

/// The faster half of \p L's passes at reference speed, at least one.
/// Every pass does the same work, so they compare directly; a pass that
/// other work slowed more than the calibration kernel saw does not
/// measure the program.
std::vector<const PassRecord *> keptPasses(const Loop &L) {
  std::vector<const PassRecord *> P;
  for (const PassRecord &R : L.Passes)
    P.push_back(&R);
  std::sort(P.begin(), P.end(), [](const PassRecord *A, const PassRecord *B) {
    return A->BusyNs * A->Speed < B->BusyNs * B->Speed;
  });
  P.resize((P.size() + 1) / 2);
  return P;
}

/// Nearest-rank percentile of \p V (0 < \p P <= 1).
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::max<size_t>(Rank, 1) - 1];
}

/// Median summed latency of \p L's complete passes traced as \p Traced.
double medianPassNs(const Loop &L, bool Traced) {
  std::vector<double> Ns;
  for (const PassRecord &P : L.Passes)
    if (P.Traced == Traced)
      Ns.push_back(static_cast<double>(P.BusyNs));
  return percentile(Ns, 0.5);
}

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

void printCounts(const Determinism &Det) {
  std::printf("determinism:");
  for (const auto &[K, V] : Det.First)
    std::printf(" %s=%llu", K.c_str(), (unsigned long long)V);
  std::printf("\n");
}

/// Prints the result line; \p Warm and \p L together are every checked
/// operation of the run.
void printResult(bool Correct, const Loop &Warm, const Loop &L,
                 const MetricMap &M) {
  uint64_t Failed = Warm.Failed + L.Failed;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct && Failed == 0 ? "true" : "false",
              (unsigned long long)(Warm.Attempted + L.Attempted),
              (unsigned long long)Failed);
  bool First = true;
  for (const auto &[Name, Mt] : M) {
    double V = std::isfinite(Mt.Value) ? Mt.Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), V, Mt.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
}

/// Builds a workload \p Reps times, each from scratch in \p Dir, and
/// keeps the last; \p SetupS receives every set-up time.
std::unique_ptr<Workload> setUp(const Options &O, const std::string &Dir,
                                int Reps, std::vector<double> &SetupS) {
  std::unique_ptr<Workload> W;
  for (int R = 0; R < Reps; ++R) {
    W.reset();
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    std::unique_ptr<Workload> Fresh = makeWorkload(O.Workload);
    std::string Error;
    double CalibrationBefore = calibrationNs();
    uint64_t T0 = nowNs();
    bool Ok = Fresh->setup(O.Seed, Dir, Error);
    double Seconds = (nowNs() - T0) / 1e9;
    SetupS.push_back(Seconds * hostSpeed(CalibrationBefore, calibrationNs()));
    if (!Ok) {
      std::fprintf(stderr, "%s: setup failed: %s\n", O.Workload.c_str(),
                   Error.c_str());
      return nullptr;
    }
    W = std::move(Fresh);
  }
  return W;
}

int runUntraced(const Options &O, Workload &W,
                const std::vector<double> &SetupS) {
  Loop Warm, L;
  Determinism Det;
  runLoop(W, deadlineIn(WarmupSeconds), 1, Warm, Det);
  runLoop(W, deadlineIn(O.Seconds), 1, L, Det);

  std::vector<const PassRecord *> Kept = keptPasses(L);
  std::vector<double> Latency;
  uint64_t Items = 0;
  double BusyNs = 0, Speed = 0;
  for (const PassRecord *P : Kept) {
    for (double Ms : P->LatencyMs)
      Latency.push_back(Ms * P->Speed);
    Items += P->Items;
    BusyNs += P->BusyNs * P->Speed;
    Speed += P->Speed / Kept.size();
  }
  MetricMap M;
  M["setup_s"] = {percentile(SetupS, 0.5), "s"};
  M["op_ms_p50"] = {percentile(Latency, 0.5), "ms"};
  M["op_ms_p90"] = {percentile(Latency, 0.9), "ms"};
  M["items_per_s"] = {Items / (BusyNs / 1e9), "1/s"};
  M["snap_bytes"] = {W.snapBytes(), "B"};
  M["peak_rss_mb"] = {peakRssMiB(), "MiB"};

  std::printf("%s seed %llu: %llu operations in %.2f s; timings over the "
              "faster %zu of %zu whole passes: %zu operations, %llu items; host "
              "speed %.3f of reference, so raw times are the ones below "
              "divided by it\n",
              O.Workload.c_str(), (unsigned long long)O.Seed,
              (unsigned long long)L.Ops, L.WallNs / 1e9, Kept.size(),
              L.Passes.size(), Latency.size(), (unsigned long long)Items,
              Speed);
  if (Latency.size() < 100)
    std::printf("note: fewer than 100 timed operations, so p90 has fewer "
                "than 10 samples beyond it\n");
  for (const auto &[Name, Mt] : M)
    std::printf("  %-14s %14.4f %s\n", Name.c_str(), Mt.Value, Mt.Unit.c_str());
  printCounts(Det);
  if (!Det.Stable)
    std::fprintf(stderr, "deterministic counts changed between passes\n");
  printResult(Det.Stable, Warm, L, M);
  return 0;
}

int runTraced(const Options &O, Workload &W) {
  Loop Warm, Traced;
  Determinism Det;
  runLoop(W, deadlineIn(WarmupSeconds), 1, Warm, Det);

  W.resetLayers();
  runLoop(W, deadlineIn(O.Seconds), 2, Traced, Det, /*Alternate=*/true);

  Tracer &T = Tracer::get();
  std::map<std::string, uint64_t> Self = T.selfTimes();
  uint64_t Ops = Traced.TracedOps;
  MetricMap M;
  for (const char *Name : LayerSpans)
    M[layerMetricName(Name)] = {0.0, "ms"};
  for (const auto &[Name, Unit] : LayerCounters)
    M[Name] = {0.0, Unit};
  uint64_t Covered = 0;
  for (const auto &[Name, Ns] : Self) {
    if (Name == "op")
      continue;
    Covered += Ns;
    M[layerMetricName(Name)] = {Ns / 1e6 / Ops, "ms"};
  }
  // Layer counters accumulate over every pass since resetLayers().
  W.layerMetrics(M, Traced.Ops, Self);
  double Coverage = 100.0 * Covered / Traced.TracedWallNs;
  double Overhead =
      100.0 * (medianPassNs(Traced, true) / medianPassNs(Traced, false) - 1.0);
  M["trace.coverage_pct"] = {Coverage, "%"};
  M["trace.overhead_pct"] = {Overhead, "%"};

  std::printf("%s seed %llu: %llu operations traced in %.2f s\n",
              O.Workload.c_str(), (unsigned long long)O.Seed,
              (unsigned long long)Ops, Traced.TracedWallNs / 1e9);
  std::printf("  %-24s %12s %8s\n", "layer (self time)", "ms/op", "share");
  std::vector<std::pair<uint64_t, std::string>> Ranked;
  for (const auto &[Name, Ns] : Self)
    Ranked.push_back({Ns, Name});
  std::sort(Ranked.rbegin(), Ranked.rend());
  for (const auto &[Ns, Name] : Ranked)
    std::printf("  %-24s %12.4f %7.2f%%\n", Name.c_str(), Ns / 1e6 / Ops,
                100.0 * Ns / Traced.TracedWallNs);
  std::printf("  spans cover %.2f%% of the traced wall time; a traced pass "
              "takes %.2f%% longer than an untraced one (medians)\n",
              Coverage, Overhead);
  printCounts(Det);

  std::filesystem::create_directories(O.OutDir);
  std::string SpanFile = O.OutDir + "/spans-" + O.Workload + "-" +
                         std::to_string(O.Seed) + ".json";
  if (!T.write(SpanFile, O.Workload))
    std::fprintf(stderr, "cannot write %s\n", SpanFile.c_str());

  if (Coverage < MinCoveragePct)
    std::fprintf(stderr, "spans cover only %.2f%% of the wall time\n",
                 Coverage);
  if (!Det.Stable)
    std::fprintf(stderr, "deterministic counts changed between passes\n");
  printResult(Det.Stable && Coverage >= MinCoveragePct, Warm, Traced, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Pin glibc's malloc thresholds at the values its dynamic adjustment
  // reaches in a long-running process. Left dynamic, the first seconds
  // of a run map and unmap every large buffer, and how many operations
  // pay for that varies from run to run. One arena: with one per worker
  // thread, peak resident memory depends on which worker happened to
  // allocate what and varies by a sixth between identical runs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  mallopt(M_ARENA_MAX, 1);
  Options O;
  if (!parseArgs(Argc, Argv, O) || !makeWorkload(O.Workload)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet_storm|diagnose_batch|"
                 "reproduce --seed N --seconds S --trace 0|1 [--work DIR] "
                 "[--out DIR]\n");
    return 2;
  }
  std::string Dir = O.WorkDir + "/" + O.Workload;
  std::vector<double> SetupS;
  std::unique_ptr<Workload> W = setUp(O, Dir, O.Trace ? 1 : SetupReps, SetupS);
  int Rc = !W ? 1 : O.Trace ? runTraced(O, *W) : runUntraced(O, *W, SetupS);
  W.reset();
  std::filesystem::remove_all(Dir);
  return Rc;
}
