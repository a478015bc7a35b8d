//===- perfbench/src/Reproduce.cpp - Production cost and reproduction -----===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// reproduce takes seeded request-loop modules (the shape of the replay
/// bench's fleet) from instrumentation to a verified replay. Setup runs
/// each module uninstrumented once for its native guest cycles and
/// output. One operation is one module: instrument, an instrumented run
/// with RtPolicy::RecordExecution up to and past its snap(1),
/// ExecutionLog::deserialize, then ReplayDriver build and run and a
/// verification against the original snap. Guest cycles are exact, so
/// the probe overhead is a deterministic count.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workload.h"

#include "core/Session.h"
#include "lang/CodeGen.h"
#include "replay/ExecutionLog.h"
#include "replay/Recorder.h"
#include "replay/ReplayDriver.h"
#include "support/Random.h"
#include "support/Text.h"

#include <cstdio>
#include <vector>

using namespace traceback;
using namespace perfbench;

namespace {

constexpr unsigned ModulesPerPass = 32;
constexpr unsigned Iterations = 100;
constexpr uint64_t MaxCycles = 2'000'000'000ull;

/// Module \p Index of a pass: a rand-fed branchy request loop with a snap
/// anchored after it (one scheduler decision per slice, one rand draw per
/// request). The pass covers a fixed grid of 3..6 branches by 16..30
/// straight-line statements, so every seed runs the same mix of sizes;
/// the seed draws the constants.
std::string moduleSource(Rng &R, unsigned Index) {
  std::string Src = "fn handle(x) {\n  var y = x;\n";
  unsigned Branches = 3 + Index % 4;
  for (unsigned I = 0; I < Branches; ++I)
    Src += formatv("  if (y & %u) { y = y * %u + %u; } "
                   "else { y = y ^ (y >> %u); }\n",
                   1u << R.below(8), static_cast<unsigned>(3 + R.below(5)),
                   static_cast<unsigned>(1 + R.below(9)),
                   static_cast<unsigned>(1 + R.below(4)));
  unsigned Chunk = 16 + 2 * (Index / 4 % 8);
  for (unsigned I = 0; I < Chunk; ++I)
    Src += formatv("  y = (y * %u + %u) ^ (y >> %u);\n",
                   static_cast<unsigned>(3 + R.below(7)),
                   static_cast<unsigned>(R.below(255)),
                   static_cast<unsigned>(1 + R.below(5)));
  Src += "  return y & 1048575;\n}\n";
  Src += formatv("fn main() export {\n  var s = %u;\n  var i = 0;\n"
                 "  while (i < %u) {\n"
                 "    s = handle(s + (rand() & 31));\n    i = i + 1;\n  }\n"
                 "  snap(1);\n  print(s & 65535);\n}\n",
                 static_cast<unsigned>(1 + R.below(1000)), Iterations);
  return Src;
}

struct Subject {
  Module Mod;
  uint64_t NativeCycles = 0;
  std::string NativeOutput;
};

class Reproduce : public Workload {
public:
  bool setup(uint64_t Seed, const std::string &, std::string &Error) override {
    Rng R(mixSeed(Seed, 3));
    Subjects.resize(ModulesPerPass);
    for (unsigned I = 0; I < ModulesPerPass; ++I) {
      Subject &S = Subjects[I];
      std::string Name = formatv("svc%03u", I);
      if (!minilang::compileMiniLang(moduleSource(R, I), Name + ".ml", Name,
                                     Technology::Native, S.Mod, Error))
        return false;
      MetricsRegistry Metrics;
      Deployment D;
      D.Metrics = &Metrics;
      Process *P = D.addMachine("bench")->createProcess("svc");
      if (!D.deploy(*P, S.Mod, /*Instrument=*/false, Error) ||
          !P->start("main"))
        return false;
      if (D.world().run(MaxCycles) != World::RunResult::AllExited) {
        Error = "native run did not exit";
        return false;
      }
      S.NativeCycles = P->CyclesUsed;
      S.NativeOutput = P->Output;
    }
    return true;
  }

  size_t passLength() const override { return Subjects.size(); }
  void beginPass() override { Pass = Counts(); }

  OpResult step(size_t I) override {
    const Subject &Sub = Subjects[I];
    OpResult Res;
    uint64_t T0 = nowNs();
    // Declared in destruction order: the deployment's runtimes report
    // into Metrics and its world calls back into Rec.
    auto Metrics = std::make_unique<MetricsRegistry>();
    auto Rec = std::make_unique<ExecutionRecorder>();
    auto D = std::make_unique<Deployment>();
    D->Metrics = Metrics.get();
    D->Policy.RecordExecution = true;
    Rec->attach(*D);
    Process *P = D->addMachine("bench")->createProcess("svc");
    InstrumentStats Stats;
    std::string Error;
    {
      // Deployment::deploy, spelled out so instrumentation is timed on
      // its own: the scribe records the original image, then the module
      // is instrumented, given a runtime and loaded.
      Span S("instrument");
      InstrumentOptions Opts;
      D->world().Scribe->onDeploy(*P, Sub.Mod, /*Instrument=*/true, Opts);
      Module Instr;
      Res.Ok = D->instrumentOnly(Sub.Mod, Opts, Instr, Error, &Stats) &&
               D->runtimeFor(*P, Sub.Mod.Tech) &&
               P->loadModule(Instr, Error) && P->start("main");
    }
    World::RunResult Run = World::RunResult::Idle;
    if (Res.Ok) {
      Span S("vm.traced_run");
      Run = D->world().run(MaxCycles);
    }
    const SnapFile *Orig = D->snaps().empty() ? nullptr : &D->snaps().front();
    ExecutionLog Log;
    {
      Span S("replay.log_decode");
      Res.Ok &= Orig && ExecutionLog::deserialize(Orig->ExecLog, Log);
    }
    std::unique_ptr<ReplayDriver> Drv;
    ReplayVerdict V;
    if (Res.Ok) {
      Drv = std::make_unique<ReplayDriver>(Log);
      {
        Span S("replay.build");
        Res.Ok = Drv->build(V.Error);
      }
      if (Res.Ok) {
        Span S("replay.run");
        Drv->run();
      }
    }
    if (Res.Ok) {
      // verifyReplay's checks, each call under the span.
      Span S("replay.verify");
      V.Divergences = Drv->enforcer().divergences();
      const SnapFile *Replayed = Drv->matchSnap(*Orig);
      V.SnapMatched = Replayed != nullptr;
      if (Replayed) {
        ReconstructedTrace TO = Drv->deployment().reconstruct(*Orig);
        ReconstructedTrace TR = Drv->deployment().reconstruct(*Replayed);
        DivergenceDetector::compare(TO, TR, V.Divergences);
        V.TraceIdentical = DivergenceDetector::renderCanonical(TO) ==
                           DivergenceDetector::renderCanonical(TR);
      }
      V.Ok = V.SnapMatched && V.TraceIdentical && V.Divergences.empty();
    }
    Res.LatencyNs = nowNs() - T0;

    {
      Span S("bench.verify");
      if (!Res.Ok || !V.Ok || Run != World::RunResult::AllExited ||
          P->Output != Sub.NativeOutput) {
        std::fprintf(stderr,
                     "reproduce: module %zu failed: replay ok %d, matched %d, "
                     "identical %d, %zu divergence(s), exited %d, output %s "
                     "native %s %s\n",
                     I, V.Ok, V.SnapMatched, V.TraceIdentical,
                     V.Divergences.size(), Run == World::RunResult::AllExited,
                     P->Output == Sub.NativeOutput ? "matches" : "differs from",
                     V.Error.c_str(), Error.c_str());
        Res.Ok = false;
      }
      Res.Items = 1;
      uint64_t LogBytes = Orig ? Orig->ExecLog.size() : 0;
      SnapBytes += Orig ? static_cast<double>(Orig->serialize().size()) : 0.0;
      ++Snaps;
      Pass["native_cycles"] += Sub.NativeCycles;
      Pass["traced_cycles"] += P->CyclesUsed;
      Pass["divergences"] += V.Divergences.size();
      Pass["log_bytes"] += LogBytes;
      Layer["native_cycles"] += Sub.NativeCycles;
      Layer["traced_cycles"] += P->CyclesUsed;
      Layer["divergences"] += V.Divergences.size();
      Layer["log_bytes"] += LogBytes;
      Layer["light_probes"] += Stats.NumLightProbes + Stats.NumElidedProbes;
      Layer["elided_probes"] += Stats.NumElidedProbes;
    }
    {
      Span S("core.teardown");
      Drv.reset();
      D.reset();
    }
    return Res;
  }

  uint64_t endPass(bool Complete, bool &) override {
    if (Complete) {
      // The headline overhead as an exact count: parts per million.
      Pass["probe_overhead_ppm"] =
          (Pass["traced_cycles"] - Pass["native_cycles"]) * 1000000 /
          Pass["native_cycles"];
      Last = Pass;
    }
    return 0;
  }

  Counts passCounts() const override { return Last; }
  double snapBytes() const override { return Snaps ? SnapBytes / Snaps : 0.0; }
  void resetLayers() override { Layer.clear(); }

  void layerMetrics(MetricMap &Out, uint64_t Ops,
                    const std::map<std::string, uint64_t> &) const override {
    double N = Ops ? static_cast<double>(Ops) : 1.0;
    double Native = value("native_cycles"), Traced = value("traced_cycles");
    Out["vm.native_cycles"] = {Native / N, "count/op"};
    Out["vm.traced_cycles"] = {Traced / N, "count/op"};
    Out["instrument.probe_overhead_pct"] = {
        Native ? 100.0 * (Traced / Native - 1.0) : 0.0, "%"};
    double Light = value("light_probes");
    Out["instrument.light_elided_ratio"] = {
        Light ? value("elided_probes") / Light : 0.0, "ratio"};
    Out["replay.log_bytes_per_snap"] = {value("log_bytes") / N, "B"};
    Out["replay.divergences"] = {value("divergences") / N, "count/op"};
  }

private:
  double value(const char *K) const {
    auto It = Layer.find(K);
    return It == Layer.end() ? 0.0 : static_cast<double>(It->second);
  }

  std::vector<Subject> Subjects;
  Counts Pass, Last;
  std::map<std::string, uint64_t> Layer;
  double SnapBytes = 0;
  uint64_t Snaps = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeReproduce() {
  return std::make_unique<Reproduce>();
}
