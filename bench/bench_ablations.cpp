//===- bench/bench_ablations.cpp - Design-choice ablations ----------------===//
//
// Part of the TraceBack reproduction project.
//
// Ablation benches for the design choices the paper discusses:
//  - sub-buffer count (section 3.2: "sub-buffering imposes a runtime
//    penalty" but enables kill -9 recovery),
//  - trace buffer size vs recoverable history (section 2.1),
//  - path-bit budget and call-return headers (sections 2.1-2.2: breaking
//    DAGs at calls is the limiting factor for path length),
//  - probe elision on/off (the placement optimization this repo adds).
//
// Results are machine-readable: BENCH_ablations.json (or the _smoke
// variant under TRACEBACK_BENCH_SMOKE), in the same schema family as the
// other BENCH_*.json files, so the perf trajectory can be tracked without
// scraping printf tables.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/FileIO.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

using namespace traceback;
using namespace traceback::bench;

namespace {

bool smokeMode() {
  const char *V = std::getenv("TRACEBACK_BENCH_SMOKE");
  return V && *V && *V != '0';
}

const char *WorkSrc = R"(
fn step(x) {
  if (x & 1) { return 3 * x + 1; }
  return x >> 1;
}
fn wide(x) {
  var y = 0;
  if (x & 1) { y = y + 1; } else { y = y + 2; }
  if (x & 2) { y = y ^ 3; } else { y = y - 1; }
  if (x & 4) { y = y * 2; } else { y = y + 5; }
  if (x & 8) { y = y - x; } else { y = y + x; }
  if (x & 16) { y = y ^ x; } else { y = y * 3; }
  return y;
}
fn main() export {
  var s = 0;
  for (var i = 1; i < 1200; i = i + 1) {
    var x = i;
    while (x != 1) { x = step(x); }
    s = s + 1 + wide(i);
  }
  print(s & 65535);
}
)";

std::string subBufferAblation() {
  Module M = compileBench(WorkSrc, "work");
  RunOutcome Plain = runWorkload(M, false);
  // Small buffers so the ring wraps constantly and the sub-buffer commit
  // cost (runtime callback + zeroing) becomes visible.
  std::string J = "  \"sub_buffers\": {\n"
                  "    \"buffer_bytes\": 2048,\n    \"rows\": [\n";
  const uint32_t Counts[] = {1, 2, 4, 8, 16, 32};
  for (size_t I = 0; I < 6; ++I) {
    uint32_t Subs = Counts[I];
    RtPolicy Policy = quietPolicy();
    Policy.BufferBytes = 2048;
    Policy.SubBufferCount = Subs;
    // Overheads are visible through the runtime's wrap counter; use a
    // deployment with a registry of its own so we can read it.
    MetricsRegistry Metrics;
    Deployment D;
    D.Metrics = &Metrics;
    D.Policy = Policy;
    Machine *Host = D.addMachine("bench");
    Process *P = Host->createProcess("w");
    std::string Error;
    Module Instr;
    if (!D.instrumentOnly(M, InstrumentOptions(), Instr, Error))
      std::abort();
    D.runtimeFor(*P, Technology::Native);
    if (!P->loadModule(Instr, Error) || !P->start("main"))
      std::abort();
    D.world().run();
    J += formatv("      {\"sub_buffers\": %u, \"cycles\": %llu, "
                 "\"ratio\": %.4f, \"wrap_calls\": %llu}%s\n",
                 Subs, static_cast<unsigned long long>(P->CyclesUsed),
                 static_cast<double>(P->CyclesUsed) / Plain.Cycles,
                 static_cast<unsigned long long>(
                     Metrics.counter("runtime.buffer_wraps").value()),
                 I + 1 < 6 ? "," : "");
  }
  J += "    ]\n  }";
  return J;
}

std::string bufferSizeAblation() {
  const char *Src = R"(
fn main() export {
  var s = 0;
  for (var i = 0; i < 60000; i = i + 1) {
    if (i & 1) { s = s + i; } else { s = s ^ i; }
  }
  snap(1);
}
)";
  Module M = compileBench(Src, "hist");
  std::string J = "  \"buffer_size\": {\n    \"rows\": [\n";
  const uint32_t Sizes[] = {1u << 10, 1u << 12, 1u << 14, 1u << 16,
                            1u << 18};
  for (size_t I = 0; I < 5; ++I) {
    uint32_t Bytes = Sizes[I];
    Deployment D;
    D.Policy = quietPolicy();
    D.Policy.SnapOnApi = true;
    D.Policy.BufferBytes = Bytes;
    Machine *Host = D.addMachine("bench");
    Process *P = Host->createProcess("h");
    std::string Error;
    if (!D.deploy(*P, M, true, Error) || !P->start("main"))
      std::abort();
    D.world().run();
    ReconstructedTrace T = D.reconstruct(D.snaps().back());
    uint64_t Lines = 0;
    for (const ThreadTrace &Th : T.Threads)
      for (const TraceEvent &E : Th.Events)
        if (E.EventKind == TraceEvent::Kind::Line)
          Lines += E.Repeat;
    J += formatv("      {\"buffer_bytes\": %u, \"lines_recovered\": %llu, "
                 "\"lines_per_byte\": %.4f}%s\n",
                 Bytes, static_cast<unsigned long long>(Lines),
                 static_cast<double>(Lines) / Bytes, I + 1 < 5 ? "," : "");
  }
  J += "    ]\n  }";
  return J;
}

std::string dagAblation() {
  Module M = compileBench(WorkSrc, "work");
  RunOutcome Plain = runWorkload(M, false);
  std::string J = "  \"dag_tiling\": {\n    \"rows\": [\n";
  const unsigned BitCounts[] = {1, 2, 4, 10};
  for (int CB = 0; CB < 2; ++CB) {
    bool CallBreaks = CB == 0;
    for (size_t I = 0; I < 4; ++I) {
      InstrumentOptions Opts;
      Opts.Tile.PathBits = BitCounts[I];
      Opts.Tile.HeadersAtCallReturns = CallBreaks;
      RunOutcome Traced = runWorkload(M, true, Opts);
      J += formatv("      {\"path_bits\": %u, \"call_breaks\": %s, "
                   "\"cycles\": %llu, \"ratio\": %.4f, \"dags\": %u}%s\n",
                   BitCounts[I], CallBreaks ? "true" : "false",
                   static_cast<unsigned long long>(Traced.Cycles),
                   static_cast<double>(Traced.Cycles) / Plain.Cycles,
                   Traced.Stats.NumDags,
                   CB == 1 && I + 1 == 4 ? "" : ",");
    }
  }
  J += "    ]\n  }";
  return J;
}

// Elision-friendly workload: if-without-else joins and nested guards are
// the shapes whose path bits are implied (WorkSrc's if/else diamonds are
// deliberately never elidable, so it cannot ablate the pass).
const char *ElideSrc = R"(
fn calc(x) {
  var y = x;
  if (y & 1) { y = y + 3; }
  y = y ^ 5;
  if (y & 2) {
    y = y * 3 + 1;
    if (y & 4) { y = y - 7; }
    y = y ^ 9;
  }
  y = y + 1;
  if (y & 8) { y = y * 5; }
  return y;
}
fn main() export {
  var s = 1;
  for (var i = 0; i < 4000; i = i + 1) {
    s = (s + calc(s + i)) % 65521;
  }
  print(s);
}
)";

std::string elisionAblation() {
  Module M = compileBench(ElideSrc, "elide");
  RunOutcome Plain = runWorkload(M, false);
  std::string J = "  \"probe_elision\": {\n    \"rows\": [\n";
  for (int E = 0; E < 2; ++E) {
    bool Elide = E == 0;
    InstrumentOptions Opts;
    Opts.ElideImpliedBits = Elide;
    RunOutcome Traced = runWorkload(M, true, Opts);
    J += formatv("      {\"elide\": %s, \"cycles\": %llu, \"ratio\": %.4f, "
                 "\"light_probes\": %u, \"elided_probes\": %u}%s\n",
                 Elide ? "true" : "false",
                 static_cast<unsigned long long>(Traced.Cycles),
                 static_cast<double>(Traced.Cycles) / Plain.Cycles,
                 Traced.Stats.NumLightProbes, Traced.Stats.NumElidedProbes,
                 E == 0 ? "," : "");
  }
  J += "    ]\n  }";
  return J;
}

void writeAblations() {
  std::string J = "{\n  \"bench\": \"ablations\",\n";
  J += subBufferAblation() + ",\n";
  J += bufferSizeAblation() + ",\n";
  J += dagAblation() + ",\n";
  J += elisionAblation() + "\n";
  J += "}\n";
  const char *Name =
      smokeMode() ? "BENCH_ablations_smoke.json" : "BENCH_ablations.json";
  if (!writeFileText(Name, J)) {
    std::fprintf(stderr, "cannot write %s\n", Name);
    std::abort();
  }
  std::printf("ablation results written to %s\n", Name);
}

void BM_TileWorkModule(benchmark::State &State) {
  Module M = compileBench(WorkSrc, "work_gb");
  for (auto _ : State) {
    Module Out;
    MapFile Map;
    std::string Error;
    bool Ok = instrumentModule(M, InstrumentOptions(), Out, Map, nullptr,
                               Error);
    benchmark::DoNotOptimize(Ok);
  }
}
BENCHMARK(BM_TileWorkModule);

} // namespace

int main(int argc, char **argv) {
  writeAblations();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
