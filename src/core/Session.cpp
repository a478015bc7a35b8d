//===- core/Session.cpp - End-to-end TraceBack deployment -----------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include "isa/Assembler.h"
#include "vm/Scribe.h"
#include "vm/Syscalls.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace traceback;

/// Fans snaps out to the deployment's archive. The whole daemon path hands
/// one immutable snap around by pointer; the single archival copy happens
/// here, at the terminal sink.
class Deployment::Collector : public SnapSink {
public:
  explicit Collector(Deployment &D) : D(D) {}
  void onSnap(const std::shared_ptr<const SnapFile> &Snap) override {
    // Images pushed before this snap arrived first: decode them ahead of
    // it so snaps() stays in arrival order.
    D.decodePending();
    D.Snaps.push_back(*Snap);
  }

private:
  Deployment &D;
};

Deployment::Deployment() : Sink(std::make_unique<Collector>(*this)) {
  // A permissive default policy: snap on everything interesting. Benches
  // override with quieter policies.
  Policy.SnapOnAnyException = true;
  Policy.SnapOnUnhandled = true;
  Policy.SnapOnApi = true;
}

Deployment::~Deployment() = default;

Machine *Deployment::addMachine(const std::string &Name,
                                const std::string &OsName,
                                int64_t ClockOffset, uint64_t RateNum,
                                uint64_t RateDen) {
  Machine *M = W.createMachine(Name, OsName, ClockOffset, RateNum, RateDen);
  auto Daemon = std::make_unique<ServiceDaemon>(*M, Sink.get(), Metrics);
  // Daemons on different machines forward group snaps to each other.
  for (auto &Other : Daemons) {
    Other->addPeer(Daemon.get());
    Daemon->addPeer(Other.get());
  }
  Daemons.push_back(std::move(Daemon));
  if (NetEnabled)
    attachEndpoint(*Daemons.back());
  return M;
}

uint64_t Deployment::enableNetworkTransport() {
  if (NetEnabled)
    return CollectorM->Id;
  NetEnabled = true;
  // The collector is its own machine — snap pushes cross the (faultable)
  // network even in single-machine deployments, which is exactly what the
  // chaos sweeps need to exercise.
  CollectorM = W.createMachine("collector", "simos", 0, 1, 1);
  CollectorEP = std::make_unique<TransportEndpoint>(W, CollectorM->Id,
                                                    Metrics);
  // Pushed images stay encoded until snaps() is read: a consumer that only
  // stores them (a CollectorService chained onto this handler) never pays
  // for the decode.
  CollectorEP->Handler = [this](const WireFrame &F) {
    if (F.Type == FrameType::SnapPush)
      PendingImages.push_back(F.Payload);
  };
  for (auto &D : Daemons)
    attachEndpoint(*D);
  return CollectorM->Id;
}

void Deployment::attachEndpoint(ServiceDaemon &D) {
  auto EP = std::make_unique<TransportEndpoint>(W, D.machine().Id, Metrics);
  D.configureTransport(*EP, CollectorM->Id);
  Endpoints.push_back(std::move(EP));
}

TransportEndpoint *Deployment::endpointFor(Machine &M) {
  for (auto &E : Endpoints)
    if (E->machineId() == M.Id)
      return E.get();
  if (CollectorEP && CollectorEP->machineId() == M.Id)
    return CollectorEP.get();
  return nullptr;
}

bool Deployment::pumpNetwork(uint64_t MaxCycles) {
  if (!NetEnabled)
    return true;
  std::vector<ServiceDaemon *> Ds;
  Ds.reserve(Daemons.size());
  for (auto &D : Daemons)
    Ds.push_back(D.get());
  return pumpNetworkUntilQuiet(W, Ds, {CollectorEP.get()}, MaxCycles);
}

ServiceDaemon *Deployment::daemonFor(Machine &M) {
  for (auto &D : Daemons)
    if (&D->machine() == &M)
      return D.get();
  return nullptr;
}

TracebackRuntime *Deployment::runtimeFor(Process &P, Technology Tech) {
  if (RuntimeHooks *Existing = P.runtimeForTech(Tech))
    return static_cast<TracebackRuntime *>(Existing);
  // Runtimes report snaps through their machine's service daemon so the
  // daemon can coordinate group snaps; the daemon forwards downstream.
  ServiceDaemon *Daemon = P.Host ? daemonFor(*P.Host) : nullptr;
  SnapSink *RtSink = Daemon ? static_cast<SnapSink *>(Daemon) : Sink.get();
  auto RT = std::make_unique<TracebackRuntime>(P, Tech, Policy, RtSink,
                                               &BaseFile, Metrics);
  TracebackRuntime *Result = RT.get();
  P.attachRuntime(Result);
  if (Daemon)
    Daemon->watch(P, *Result);
  Runtimes.push_back(std::move(RT));
  return Result;
}

bool Deployment::instrumentOnly(const Module &Orig,
                                const InstrumentOptions &Opts, Module &Out,
                                std::string &Error, InstrumentStats *Stats) {
  MapFile Map;
  if (!instrumentModule(Orig, Opts, Out, Map, Stats, Error))
    return false;
  Maps.add(std::move(Map));
  return true;
}

LoadedModule *Deployment::deploy(Process &P, const Module &Orig,
                                 bool Instrument, std::string &Error) {
  InstrumentOptions Opts;
  return deploy(P, Orig, Instrument, Opts, Error);
}

LoadedModule *Deployment::deploy(Process &P, const Module &Orig,
                                 bool Instrument,
                                 const InstrumentOptions &Opts,
                                 std::string &Error) {
  // Record the pre-instrumentation module: replay re-deploys from the
  // original image with the same options, reproducing layout exactly.
  if (W.Scribe)
    W.Scribe->onDeploy(P, Orig, Instrument, Opts);
  if (!Instrument)
    return P.loadModule(Orig, Error);

  Module Instr;
  if (!instrumentOnly(Orig, Opts, Instr, Error))
    return nullptr;
  // The runtime must exist before loading so the rebase hook fires.
  runtimeFor(P, Orig.Tech);
  return P.loadModule(Instr, Error);
}

void Deployment::decodePending() const {
  for (const std::vector<uint8_t> &Image : PendingImages) {
    SnapFile S;
    if (SnapFile::deserialize(Image, S))
      Snaps.push_back(std::move(S));
  }
  PendingImages.clear();
}

const std::vector<SnapFile> &Deployment::snaps() const {
  decodePending();
  return Snaps;
}

std::vector<SnapFile> &Deployment::snaps() {
  decodePending();
  return Snaps;
}

ReconstructedTrace Deployment::reconstruct(const SnapFile &Snap) const {
  Reconstructor R(Maps, Metrics);
  return R.reconstruct(Snap);
}

// ----------------------------------------------------------------------------
// libtbc.
// ----------------------------------------------------------------------------

std::string traceback::libTbcSource() {
  // A tiny C-runtime: deliberately includes the unbounded strcpy that
  // enables Figure 5's overflow scenario.
  return R"(.module libtbc
.file "tbc.c"
.func memcpy export
; r0 = dst, r1 = src, r2 = n; returns dst
.line 10
  mov r4, r0
memcpy_loop:
.line 11
  brz r2, memcpy_done
  ld8 r5, [r1]
  st8 [r4], r5
.line 12
  addi r4, r4, 1
  addi r1, r1, 1
  addi r2, r2, -1
  br memcpy_loop
memcpy_done:
.line 13
  ret
.endfunc
.func strcpy export
; r0 = dst, r1 = src; returns dst. No bounds check, as tradition demands.
.line 20
  mov r4, r0
strcpy_loop:
.line 21
  ld8 r5, [r1]
  st8 [r4], r5
.line 22
  brz r5, strcpy_done
  addi r4, r4, 1
  addi r1, r1, 1
  br strcpy_loop
strcpy_done:
.line 23
  ret
.endfunc
.func memset export
; r0 = dst, r1 = byte, r2 = n; returns dst
.line 30
  mov r4, r0
memset_loop:
.line 31
  brz r2, memset_done
  st8 [r4], r1
  addi r4, r4, 1
  addi r2, r2, -1
  br memset_loop
memset_done:
.line 32
  ret
.endfunc
.func strlen export
; r0 = s; returns length
.line 40
  movi r4, 0
strlen_loop:
.line 41
  ld8 r5, [r0]
  brz r5, strlen_done
  addi r4, r4, 1
  addi r0, r0, 1
  br strlen_loop
strlen_done:
.line 42
  mov r0, r4
  ret
.endfunc
)";
}

Module traceback::buildLibTbc() {
  Assembler Asm(syscallAssemblerConstants());
  Module M;
  std::string Error;
  if (!Asm.assemble(libTbcSource(), M, Error)) {
    std::fprintf(stderr, "internal error assembling libtbc: %s\n",
                 Error.c_str());
    std::abort();
  }
  return M;
}
