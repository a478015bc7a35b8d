//===- bench/bench_snap.cpp - Snap wire format + ingestion throughput -----===//
//
// Part of the TraceBack reproduction project.
//
// The snap path is the first-failure pipeline's I/O bottleneck: every
// fault produces one snap per group member, and the daemon must forward
// and archive them all (sections 3.6-3.7). This bench measures it:
//
//   wire format   bytes/snap of the v4 sectioned image with trace-aware
//                 compression against its raw size (the sum of the
//                 sections' uncompressed sizes, snapSectionStats), plus
//                 serialize/deserialize throughput normalized to the raw
//                 size. Target: >= 4x size reduction on a
//                 deployment-shaped workload.
//
//   encode        snapEncodeTo throughput on one 64 KiB ring, normalized
//                 to the raw size: a dense ring (every slot a record) and
//                 a fleet-shaped one (~200 records, the rest zero, as in
//                 most group-peer snaps). Serialize above appends the
//                 streams cached at capture, so it never runs the encoder.
//
//   fan-out       wall time from one faulting snap to all N group-member
//                 snaps delivered downstream and archived, at N = 8, 64
//                 and 256 processes: the daemon's synchronous
//                 shared-pointer delivery, with the downstream serializing
//                 each snap (v4) and appending it through one archive
//                 handle per repetition. The fan-out rig also yields the
//                 headline size numbers: raw vs v4 bytes/snap of its real
//                 runtime snaps.
//
// Results go to BENCH_snap.json (BENCH_snap_smoke.json in the ctest
// smoke run, which also shrinks N to 4 and 8).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/FileIO.h"
#include "distributed/ServiceDaemon.h"
#include "distributed/SnapArchive.h"
#include "instrument/Instrumenter.h"
#include "reconstruct/SynthWorkload.h"
#include "runtime/TraceRecord.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/SnapCodec.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

using namespace traceback;
using namespace traceback::bench;

namespace {

bool smokeMode() {
  const char *V = std::getenv("TRACEBACK_BENCH_SMOKE");
  return V && *V && *V != '0';
}

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Part 1: wire format — size and codec throughput.
// ---------------------------------------------------------------------------

/// Logical size of a v4 image: the sum of its sections' raw sizes.
uint64_t rawBytes(const std::vector<uint8_t> &Image) {
  uint32_t Version = 0;
  std::vector<SnapSectionStat> Stats;
  if (!snapSectionStats(Image, Version, Stats))
    std::abort();
  uint64_t Raw = 0;
  for (const SnapSectionStat &S : Stats)
    Raw += S.RawBytes;
  return Raw;
}

struct FormatResult {
  uint64_t RawBytes = 0; ///< Sum of the v4 sections' raw sizes.
  uint64_t V4Bytes = 0;  ///< v4 sectioned + compressed image size.
  double SerializeMBs = 0, DeserializeMBs = 0;
  bool RoundTripIdentical = false;
};

FormatResult benchFormat(const SnapFile &Snap, int Reps) {
  FormatResult R;
  std::vector<uint8_t> V4 = Snap.serialize();
  R.RawBytes = rawBytes(V4);
  R.V4Bytes = V4.size();

  // Throughput is normalized to the raw size, so it answers "how fast
  // does the raw trace volume move through the codec", not "how fast do
  // the smaller files copy".
  double MB = static_cast<double>(R.RawBytes) / (1024.0 * 1024.0);
  auto best = [&](auto &&Fn) {
    double Best = 1e100;
    for (int I = 0; I < Reps; ++I) {
      double T0 = now();
      Fn();
      double S = now() - T0;
      if (S < Best)
        Best = S;
    }
    return Best;
  };

  std::vector<uint8_t> Out;
  R.SerializeMBs = MB / best([&] {
    Out.clear();
    Snap.serializeTo(Out);
    benchmark::DoNotOptimize(Out.data());
  });
  SnapFile Decoded;
  R.DeserializeMBs = MB / best([&] {
    Decoded = SnapFile();
    if (!SnapFile::deserialize(V4, Decoded))
      std::abort();
  });
  // Byte-identical round trip: re-serializing the decoded v4 image must
  // reproduce it exactly.
  R.RoundTripIdentical = Decoded.serialize() == V4;
  return R;
}

/// A 64 KiB ring as the runtime lays one out: four sub-buffers, each
/// ending in a sentinel, the first \p Records slots holding DAG records
/// (mostly a hot working set), the rest still zero.
std::vector<uint8_t> ringImage(uint64_t Seed, size_t Records) {
  constexpr size_t Words = 16384, SubWords = Words / 4;
  Rng R(Seed);
  uint32_t Hot[16];
  for (uint32_t &H : Hot)
    H = makeDagRecord(1 + static_cast<uint32_t>(R.below(4000))) |
        static_cast<uint32_t>(R.below(1u << PathBitCount));
  std::vector<uint8_t> Ring;
  size_t Written = 0;
  for (size_t Slot = 0; Slot < Words; ++Slot) {
    uint32_t W = InvalidRecord;
    if (Slot % SubWords == SubWords - 1)
      W = SentinelRecord;
    else if (Written++ < Records)
      W = R.below(10) < 9
              ? Hot[R.below(16)]
              : makeDagRecord(1 + static_cast<uint32_t>(R.below(MaxDagId))) |
                    static_cast<uint32_t>(R.below(1u << PathBitCount));
    for (int B = 0; B < 4; ++B)
      Ring.push_back(static_cast<uint8_t>(W >> (B * 8)));
  }
  return Ring;
}

/// snapEncodeTo MB/s over \p Ring (raw-normalized), best of \p Reps
/// timings of \p Iters encodes each. Aborts unless the stream decodes
/// back to the ring.
double encodeMBs(const std::vector<uint8_t> &Ring, int Reps, int Iters) {
  std::vector<uint8_t> Stream;
  double Best = 1e100;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    double T0 = now();
    for (int I = 0; I < Iters; ++I) {
      Stream.clear();
      snapEncodeTo(Ring.data(), Ring.size(), Stream);
      benchmark::DoNotOptimize(Stream.data());
    }
    Best = std::min(Best, (now() - T0) / Iters);
  }
  std::vector<uint8_t> Back;
  if (!snapDecode(Stream, Back) || Back != Ring) {
    std::fprintf(stderr, "encode bench: ring did not round-trip\n");
    std::abort();
  }
  return static_cast<double>(Ring.size()) / (1024.0 * 1024.0) / Best;
}

struct EncodeResult {
  double DenseMBs = 0, FleetMBs = 0;
};

// ---------------------------------------------------------------------------
// Part 2: group-snap fan-out through the daemon.
// ---------------------------------------------------------------------------

/// The downstream: holds the shared handles it is given, no copies, and
/// appends each snap's v4 image to \c Archive while one is set.
class SharedSink : public SnapSink {
public:
  void onSnap(const std::shared_ptr<const SnapFile> &Snap) override {
    Snaps.push_back(Snap);
    if (!Archive)
      return;
    // One scratch buffer for the whole fan-out: a fresh allocation per
    // image costs more than the serialize.
    Image.clear();
    Snap->serializeTo(Image);
    if (!Archive->append(Image)) {
      std::fprintf(stderr, "fan-out archive append failed\n");
      std::abort();
    }
  }
  std::vector<std::shared_ptr<const SnapFile>> Snaps;
  SnapArchiveWriter *Archive = nullptr;

private:
  std::vector<uint8_t> Image;
};

// A call-heavy loop with branching: fills the ring with DAG records the
// way a busy server process does. Runs long enough that every process is
// still alive when the group snap fires.
const char *FanoutSource = R"(
fn work(n) {
  var acc = 0;
  for (var i = 0; i < n; i = i + 1) {
    if (i % 3 == 0) { acc = acc + i; } else { acc = acc - 1; }
  }
  return acc;
}
fn main() export {
  var total = 0;
  for (var r = 0; r < 100000000; r = r + 1) {
    total = total + work(40);
    yield();
  }
  print(total);
}
)";

/// One fan-out size's best time and the mean raw (sum of section raw
/// sizes) vs v4 bytes/snap of the group snaps it delivered.
struct FanoutResult {
  unsigned Procs = 0;
  double Sec = 0;
  uint64_t RawBytesPerSnap = 0, V4BytesPerSnap = 0;
};

/// One machine, N instrumented processes in one process group, buffers
/// pre-filled by running the workload. Repetitions re-trigger group snaps
/// against the same rig (snapping never mutates the trace buffers).
struct FanoutRig {
  World W;
  MetricsRegistry Registry;
  SharedSink Down;
  std::unique_ptr<ServiceDaemon> Daemon;
  std::vector<std::unique_ptr<TracebackRuntime>> Runtimes;
  unsigned Procs = 0;

  explicit FanoutRig(unsigned N) : Procs(N) {
    Machine *M = W.createMachine("bench");
    Daemon = std::make_unique<ServiceDaemon>(*M, &Down, &Registry);

    Module App = compileBench(FanoutSource, "fanout");
    InstrumentOptions IOpts;
    Module Instr;
    MapFile Map;
    std::string Error;
    if (!instrumentModule(App, IOpts, Instr, Map, nullptr, Error)) {
      std::fprintf(stderr, "bench instrument error: %s\n", Error.c_str());
      std::abort();
    }
    // Deployment-default buffer shape (RtPolicy::BufferBytes): the raw
    // byte volume per snap is what the pipeline moves, so the rig must
    // not shrink it.
    RtPolicy Policy = quietPolicy();
    for (unsigned I = 0; I < N; ++I) {
      Process *P = M->createProcess(formatv("worker%u", I));
      auto RT = std::make_unique<TracebackRuntime>(*P, Technology::Native,
                                                   Policy, Daemon.get(),
                                                   nullptr, &Registry);
      P->attachRuntime(RT.get());
      Daemon->watch(*P, *RT, "workers");
      if (!P->loadModule(Instr, Error) || !P->start("main")) {
        std::fprintf(stderr, "bench setup error: %s\n", Error.c_str());
        std::abort();
      }
      Runtimes.push_back(std::move(RT));
    }
    // Enough cycles that each ring holds a dense record history.
    W.run(static_cast<uint64_t>(N) * 120'000);
  }

  /// Time from one faulting snap to all N member snaps delivered + the
  /// archive written and closed, best of \p Reps.
  FanoutResult measure(int Reps, const std::string &ArchivePath) {
    FanoutResult R;
    R.Procs = Procs;
    R.Sec = 1e100;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      std::remove(ArchivePath.c_str());
      Down.Snaps.clear();
      double T0 = now();
      SnapArchiveWriter Archive;
      bool Archived = Archive.open(ArchivePath);
      Down.Archive = &Archive;
      Runtimes[0]->takeSnap(SnapReason::External, 0);
      Archived &= Archive.close();
      double S = now() - T0;
      Down.Archive = nullptr;
      if (!Archived || Down.Snaps.size() != Procs) {
        std::fprintf(stderr, "fan-out delivered %zu of %u snaps%s\n",
                     Down.Snaps.size(), Procs,
                     Archived ? "" : " (archive write failed)");
        std::abort();
      }
      R.Sec = std::min(R.Sec, S);
    }
    // The archive must hold one parseable entry per group member.
    std::vector<SnapArchiveEntry> Entries;
    if (!SnapArchive::list(ArchivePath, Entries) || Entries.size() != Procs) {
      std::fprintf(stderr, "archive mismatch: %zu entries for %u procs\n",
                   Entries.size(), Procs);
      std::abort();
    }
    std::remove(ArchivePath.c_str());
    for (const auto &SP : Down.Snaps) {
      std::vector<uint8_t> Image = SP->serialize();
      R.RawBytesPerSnap += rawBytes(Image);
      R.V4BytesPerSnap += Image.size();
    }
    R.RawBytesPerSnap /= Procs;
    R.V4BytesPerSnap /= Procs;
    return R;
  }
};

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

void writeJson(const FormatResult &F, const SynthWorkloadOptions &O,
               const EncodeResult &E, const std::vector<FanoutResult> &Fanout) {
  std::string J = "{\n  \"bench\": \"snap\",\n";
  J += formatv("  \"host_hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  J += formatv("  \"workload\": {\"modules\": %u, \"dags_per_module\": %u, "
               "\"threads\": %u, \"records_per_thread\": %u},\n",
               O.Modules, O.DagsPerModule, O.Threads, O.RecordsPerThread);
  J += formatv(
      "  \"format\": {\"raw_bytes\": %llu, \"v4_bytes\": %llu, "
      "\"size_reduction\": %.2f, \"serialize_mb_s\": %.1f, "
      "\"deserialize_mb_s\": %.1f, \"round_trip_identical\": %s},\n",
      static_cast<unsigned long long>(F.RawBytes),
      static_cast<unsigned long long>(F.V4Bytes),
      F.V4Bytes ? static_cast<double>(F.RawBytes) / F.V4Bytes : 0.0,
      F.SerializeMBs, F.DeserializeMBs,
      F.RoundTripIdentical ? "true" : "false");
  J += formatv("  \"encode\": {\"ring_bytes\": 65536, "
               "\"dense_ring_mb_s\": %.1f, \"fleet_ring_mb_s\": %.1f},\n",
               E.DenseMBs, E.FleetMBs);
  J += "  \"fanout\": [\n";
  for (size_t I = 0; I < Fanout.size(); ++I) {
    const FanoutResult &R = Fanout[I];
    J += formatv(
        "    {\"procs\": %u, \"fanout_ms\": %.3f, "
        "\"raw_bytes_per_snap\": %llu, \"v4_bytes_per_snap\": %llu, "
        "\"size_reduction\": %.2f}%s\n",
        R.Procs, R.Sec * 1e3,
        static_cast<unsigned long long>(R.RawBytesPerSnap),
        static_cast<unsigned long long>(R.V4BytesPerSnap),
        R.V4BytesPerSnap
            ? static_cast<double>(R.RawBytesPerSnap) / R.V4BytesPerSnap
            : 0.0,
        I + 1 < Fanout.size() ? "," : "");
  }
  J += "  ]\n}\n";
  const char *Name =
      smokeMode() ? "BENCH_snap_smoke.json" : "BENCH_snap.json";
  if (!writeFileText(Name, J)) {
    std::fprintf(stderr, "cannot write %s\n", Name);
    std::abort();
  }
}

void runSnapBench() {
  const int Reps = smokeMode() ? 1 : 5;

  // The wire-format workload is the deployment-shaped synthetic snap
  // (skewed hot-pair DAG records — the redundancy profile the codec is
  // built for).
  SynthWorkloadOptions O;
  if (smokeMode()) {
    O.Modules = 6;
    O.DagsPerModule = 8;
    O.Threads = 3;
    O.RecordsPerThread = 500;
  } else {
    O.Modules = 64;
    O.DagsPerModule = 16;
    O.Threads = 8;
    O.RecordsPerThread = 25000;
  }
  O.IncludeCorrupt = false;
  SynthWorkload W = makeSynthWorkload(/*Seed=*/42, O);
  FormatResult F = benchFormat(W.Snap, Reps);

  std::printf("Snap wire format (raw sections vs v4 compressed)\n");
  printRule();
  std::printf("raw bytes/snap             %12llu\n",
              static_cast<unsigned long long>(F.RawBytes));
  std::printf("v4 bytes/snap              %12llu  (%.2fx smaller)\n",
              static_cast<unsigned long long>(F.V4Bytes),
              F.V4Bytes ? static_cast<double>(F.RawBytes) / F.V4Bytes : 0.0);
  std::printf("serialize MB/s (raw-normalized)    %8.1f\n", F.SerializeMBs);
  std::printf("deserialize MB/s (raw-normalized)  %8.1f\n", F.DeserializeMBs);
  std::printf("v4 round trip byte-identical: %s\n\n",
              F.RoundTripIdentical ? "yes" : "NO");
  if (!F.RoundTripIdentical)
    std::abort();

  EncodeResult E;
  const int EncodeIters = smokeMode() ? 4 : 200;
  E.DenseMBs = encodeMBs(ringImage(42, 16384), Reps, EncodeIters);
  E.FleetMBs = encodeMBs(ringImage(42, 200), Reps, EncodeIters);
  std::printf("Ring encode, 64 KiB (raw-normalized, best of %d)\n", Reps);
  printRule();
  std::printf("dense ring MB/s            %12.1f\n", E.DenseMBs);
  std::printf("fleet-shaped ring MB/s     %12.1f\n\n", E.FleetMBs);

  std::vector<unsigned> Sizes =
      smokeMode() ? std::vector<unsigned>{4, 8}
                  : std::vector<unsigned>{8, 64, 256};
  std::printf("Group-snap fan-out (one fault -> N member snaps delivered "
              "+ archived)\n");
  printRule();
  std::printf("%6s %12s\n", "procs", "fanout(ms)");
  printRule();
  std::vector<FanoutResult> Fanout;
  for (unsigned N : Sizes) {
    Fanout.push_back(FanoutRig(N).measure(Reps, "bench_snap_fanout.tbar"));
    std::printf("%6u %12.3f\n", N, Fanout.back().Sec * 1e3);
  }
  printRule();
  for (const FanoutResult &R : Fanout)
    std::printf("bytes/snap at %3u procs: raw %llu -> v4 %llu (%.2fx "
                "smaller)\n",
                R.Procs,
                static_cast<unsigned long long>(R.RawBytesPerSnap),
                static_cast<unsigned long long>(R.V4BytesPerSnap),
                R.V4BytesPerSnap ? static_cast<double>(R.RawBytesPerSnap) /
                                       R.V4BytesPerSnap
                                 : 0.0);
  std::printf("\n");

  writeJson(F, O, E, Fanout);
}

// ---------------------------------------------------------------------------
// google-benchmark registrations (small fixed workload).
// ---------------------------------------------------------------------------

const SnapFile &smallSnap() {
  static SynthWorkload W = [] {
    SynthWorkloadOptions O;
    O.Modules = 12;
    O.DagsPerModule = 12;
    O.Threads = 4;
    O.RecordsPerThread = 1500;
    O.IncludeCorrupt = false;
    return makeSynthWorkload(7, O);
  }();
  return W.Snap;
}

void BM_SnapSerializeV4(benchmark::State &State) {
  std::vector<uint8_t> Out;
  for (auto _ : State) {
    Out.clear();
    smallSnap().serializeTo(Out);
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          rawBytes(smallSnap().serialize()));
}
BENCHMARK(BM_SnapSerializeV4);

void BM_SnapDeserializeV4(benchmark::State &State) {
  std::vector<uint8_t> Bytes = smallSnap().serialize();
  for (auto _ : State) {
    SnapFile S;
    if (!SnapFile::deserialize(Bytes, S))
      std::abort();
    benchmark::DoNotOptimize(S.Buffers.data());
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          rawBytes(smallSnap().serialize()));
}
BENCHMARK(BM_SnapDeserializeV4);

} // namespace

int main(int argc, char **argv) {
  runSnapBench();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
