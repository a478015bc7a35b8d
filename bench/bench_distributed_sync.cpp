//===- bench/bench_distributed_sync.cpp - SYNC record overhead ------------===//
//
// Part of the TraceBack reproduction project.
//
// Section 5.1: each RPC generates four SYNC records plus the piggybacked
// triple. This bench measures the per-RPC cost of distributed tracing by
// running an RPC ping-pong with and without instrumentation, verifies the
// causal chain arrives intact at reconstruction, and measures the
// cross-machine snap transport (frames, retries, delivery cycles when
// snaps travel to the collector over the simulated network).
//
// Results go to BENCH_distributed.json (BENCH_distributed_smoke.json in
// the ctest bench-smoke pass, which also shrinks the RPC count).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/FileIO.h"
#include "reconstruct/Stitch.h"
#include "support/Text.h"

#include <benchmark/benchmark.h>

#include <cstdlib>

using namespace traceback;
using namespace traceback::bench;

namespace {

bool smokeMode() {
  const char *V = std::getenv("TRACEBACK_BENCH_SMOKE");
  return V && *V && *V != '0';
}

unsigned rpcCount() { return smokeMode() ? 20 : 200; }

std::string pingSrc(unsigned N) {
  return formatv(R"(
fn main() export {
  var arg = alloc(8);
  var rep = alloc(1024);
  var n = %u;
  var acc = 0;
  for (var i = 0; i < n; i = i + 1) {
    store(arg, i);
    var status = rpc(50, arg, 8, rep);
    acc = acc + load(rep);
  }
  print(acc & 65535);
}
)",
                 N);
}

const char *PongSrc = R"(
fn main() export {
  srv_register(50);
  var buf = alloc(64);
  var lenp = alloc(8);
  while (1) {
    var id = rpc_recv(buf, 64, lenp);
    store(buf, load(buf) + 1);
    rpc_reply(id, buf, 8);
  }
}
)";

struct PingPongResult {
  uint64_t ClientCycles;
  uint64_t ServerCycles;
  uint64_t SyncRecords;
};

PingPongResult runPingPong(bool Instrument) {
  Deployment D;
  D.Policy = quietPolicy();
  Machine *MA = D.addMachine("client-box");
  Machine *MB = D.addMachine("server-box", "simos", 50000);
  Process *Client = MA->createProcess("ping");
  Process *Server = MB->createProcess("pong");
  std::string Error;
  Module Ping = compileBench(pingSrc(rpcCount()), "ping");
  Module Pong = compileBench(PongSrc, "pong");
  if (!D.deploy(*Server, Pong, Instrument, Error) ||
      !D.deploy(*Client, Ping, Instrument, Error))
    std::abort();
  Server->start("main");
  for (int I = 0; I < 10; ++I)
    D.world().stepSlice();
  Client->start("main");
  while (!Client->Exited && D.world().cycles() < 2'000'000'000ull)
    D.world().stepSlice();

  PingPongResult R{Client->CyclesUsed, Server->CyclesUsed, 0};
  if (Instrument) {
    // Count sync records via reconstruction of both sides.
    TracebackRuntime *CR = D.runtimeFor(*Client, Technology::Native);
    TracebackRuntime *SR = D.runtimeFor(*Server, Technology::Native);
    for (TracebackRuntime *RT : {CR, SR}) {
      SnapFile Snap = *RT->takeSnap(SnapReason::External, 0);
      ReconstructedTrace T = D.reconstruct(Snap);
      for (const ThreadTrace &Th : T.Threads)
        for (const TraceEvent &E : Th.Events)
          if (E.EventKind == TraceEvent::Kind::Sync)
            ++R.SyncRecords;
    }
  }
  return R;
}

// ---------------------------------------------------------------------------
// Snap transport: cycles and frames to move snaps to the collector over
// the simulated network (reliable framing, acks, retransmit clock).
// ---------------------------------------------------------------------------

struct TransportResult {
  uint64_t Snaps = 0;         ///< Snaps arriving at the collector.
  uint64_t DeliveryCycles = 0; ///< World cycles pumpNetwork consumed.
  uint64_t FramesSent = 0;
  uint64_t FramesRetried = 0;
  uint64_t AcksSent = 0;
  bool Quiesced = false;
};

TransportResult runTransportDelivery(unsigned Snappers) {
  MetricsRegistry Reg;
  Deployment D;
  D.Policy = quietPolicy();
  D.Policy.SnapOnApi = true;
  D.Metrics = &Reg;
  std::string Error;
  Module M = compileBench(R"(
fn main() export {
  var x = 1;
  snap(1);
  print(x);
}
)",
                          "snapper");
  std::vector<Process *> Procs;
  for (unsigned I = 0; I < Snappers; ++I) {
    Machine *Box = D.addMachine(formatv("box%u", I));
    Procs.push_back(Box->createProcess(formatv("snapper%u", I)));
  }
  D.enableNetworkTransport();
  for (Process *P : Procs)
    if (!D.deploy(*P, M, true, Error))
      std::abort();
  for (Process *P : Procs)
    P->start("main");
  D.world().run(500'000'000ull);

  TransportResult R;
  uint64_t Before = D.world().cycles();
  R.Quiesced = D.pumpNetwork();
  R.DeliveryCycles = D.world().cycles() - Before;
  R.Snaps = D.snaps().size();
  R.FramesSent = Reg.counter("daemon.net.frames_sent").value();
  R.FramesRetried = Reg.counter("daemon.net.frames_retried").value();
  R.AcksSent = Reg.counter("daemon.net.acks_sent").value();
  return R;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

void writeJson(const PingPongResult &Plain, const PingPongResult &Traced,
               const std::vector<std::pair<unsigned, TransportResult>>
                   &Transport) {
  const double N = rpcCount();
  double PlainPer = (Plain.ClientCycles + Plain.ServerCycles) / N;
  double TracedPer = (Traced.ClientCycles + Traced.ServerCycles) / N;
  std::string J = "{\n  \"bench\": \"distributed\",\n";
  J += formatv("  \"rpc_count\": %u,\n", rpcCount());
  J += formatv(
      "  \"sync_overhead\": {\"cycles_per_rpc_plain\": %.1f, "
      "\"cycles_per_rpc_traced\": %.1f, \"overhead_pct\": %.1f, "
      "\"sync_records\": %llu},\n",
      PlainPer, TracedPer, (TracedPer / PlainPer - 1) * 100,
      static_cast<unsigned long long>(Traced.SyncRecords));
  J += "  \"transport\": [\n";
  for (size_t I = 0; I < Transport.size(); ++I) {
    const auto &[Machines, R] = Transport[I];
    J += formatv(
        "    {\"machines\": %u, \"snaps_delivered\": %llu, "
        "\"delivery_cycles\": %llu, \"frames_sent\": %llu, "
        "\"frames_retried\": %llu, \"acks_sent\": %llu, "
        "\"quiesced\": %s}%s\n",
        Machines, static_cast<unsigned long long>(R.Snaps),
        static_cast<unsigned long long>(R.DeliveryCycles),
        static_cast<unsigned long long>(R.FramesSent),
        static_cast<unsigned long long>(R.FramesRetried),
        static_cast<unsigned long long>(R.AcksSent),
        R.Quiesced ? "true" : "false",
        I + 1 < Transport.size() ? "," : "");
  }
  J += "  ]\n}\n";
  const char *Name = smokeMode() ? "BENCH_distributed_smoke.json"
                                 : "BENCH_distributed.json";
  if (!writeFileText(Name, J)) {
    std::fprintf(stderr, "cannot write %s\n", Name);
    std::abort();
  }
}

void printSyncOverhead() {
  PingPongResult Plain = runPingPong(false);
  PingPongResult Traced = runPingPong(true);
  const double N = rpcCount();
  double PlainPer = (Plain.ClientCycles + Plain.ServerCycles) / N;
  double TracedPer = (Traced.ClientCycles + Traced.ServerCycles) / N;
  std::printf("Distributed tracing overhead (cross-machine RPC "
              "ping-pong, %u calls)\n",
              rpcCount());
  printRule();
  std::printf("  CPU cycles/RPC uninstrumented: %10.1f\n", PlainPer);
  std::printf("  CPU cycles/RPC instrumented:   %10.1f (+%.1f%%)\n",
              TracedPer, (TracedPer / PlainPer - 1) * 100);
  std::printf("  SYNC records recovered:        %10llu (paper: 4 per "
              "RPC; ring may overwrite old ones)\n",
              static_cast<unsigned long long>(Traced.SyncRecords));
  printRule();
  std::printf("Each RPC produces CallSend/CallRecv/ReplySend/ReplyRecv "
              "records with one logical\nthread id and increasing sequence "
              "numbers (section 5.1).\n\n");

  std::vector<std::pair<unsigned, TransportResult>> Transport;
  for (unsigned Machines : {2u, smokeMode() ? 4u : 8u}) {
    TransportResult R = runTransportDelivery(Machines);
    Transport.push_back({Machines, R});
  }
  std::printf("Snap transport to the collector (reliable frames over the "
              "simulated network)\n");
  printRule();
  for (const auto &[Machines, R] : Transport)
    std::printf("  %2u machines: %3llu snaps in %8llu cycles "
                "(%llu frames, %llu retries, %llu acks)%s\n",
                Machines, static_cast<unsigned long long>(R.Snaps),
                static_cast<unsigned long long>(R.DeliveryCycles),
                static_cast<unsigned long long>(R.FramesSent),
                static_cast<unsigned long long>(R.FramesRetried),
                static_cast<unsigned long long>(R.AcksSent),
                R.Quiesced ? "" : "  [DID NOT QUIESCE]");
  printRule();
  std::printf("\n");

  writeJson(Plain, Traced, Transport);
}

void BM_RpcPingPongInstrumented(benchmark::State &State) {
  for (auto _ : State) {
    PingPongResult R = runPingPong(true);
    benchmark::DoNotOptimize(R.ClientCycles);
  }
}
BENCHMARK(BM_RpcPingPongInstrumented)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printSyncOverhead();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
