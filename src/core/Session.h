//===- core/Session.h - End-to-end TraceBack deployment ---------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Deployment` is the public entry point tying the pipeline together:
/// instrument modules (collecting mapfiles), create machines/processes,
/// attach per-technology TraceBack runtimes, run the world, gather snaps,
/// and reconstruct traces. The examples and benches are written against
/// this API.
///
/// Typical use:
/// \code
///   Deployment D;
///   Machine *M = D.addMachine("web01");
///   Process *P = M->createProcess("server");
///   D.deploy(*P, MyModule, /*Instrument=*/true);
///   P->start("main");
///   D.world().run();
///   for (const SnapFile &S : D.snaps())
///     puts(renderFaultView(S, D.reconstruct(S)).c_str());
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_CORE_SESSION_H
#define TRACEBACK_CORE_SESSION_H

#include "distributed/ServiceDaemon.h"
#include "instrument/Instrumenter.h"
#include "reconstruct/Reconstructor.h"
#include "reconstruct/Trace.h"
#include "runtime/Runtime.h"
#include "vm/World.h"

#include <memory>
#include <string>
#include <vector>

namespace traceback {

/// Owns a simulated world plus all TraceBack machinery attached to it.
class Deployment {
public:
  Deployment();
  ~Deployment();

  World &world() { return W; }

  /// Creates a machine with an optional skewed/drifting clock and its
  /// service daemon (section 3.6.1).
  Machine *addMachine(const std::string &Name,
                      const std::string &OsName = "simos",
                      int64_t ClockOffset = 0, uint64_t RateNum = 1,
                      uint64_t RateDen = 1);

  /// Instruments \p Orig (storing the mapfile), ensures a runtime for the
  /// module's technology is attached to \p P, and loads the instrumented
  /// module. With \p Instrument false the module is loaded as-is
  /// (untraced code paths, section 1). Returns the loaded module or null
  /// with \p Error set.
  LoadedModule *deploy(Process &P, const Module &Orig, bool Instrument,
                       std::string &Error);
  LoadedModule *deploy(Process &P, const Module &Orig, bool Instrument,
                       const InstrumentOptions &Opts, std::string &Error);

  /// Instruments without loading (for tests/benches that drive loading
  /// themselves). The mapfile is still registered.
  bool instrumentOnly(const Module &Orig, const InstrumentOptions &Opts,
                      Module &Out, std::string &Error,
                      InstrumentStats *Stats = nullptr);

  /// Ensures \p P has a runtime for \p Tech attached; returns it.
  TracebackRuntime *runtimeFor(Process &P, Technology Tech);

  /// Service daemon of a machine (heartbeats, group snaps).
  ServiceDaemon *daemonFor(Machine &M);

  // --- Network transport mode --------------------------------------------

  /// Switches snap movement onto the simulated network: a dedicated
  /// collector machine is created, every service daemon (existing and
  /// future) gets a TransportEndpoint, snaps travel to the collector as
  /// SnapPush frames and cross-machine group fan-out as GroupSnapRequest
  /// frames — all subject to the fault injector's network fault classes
  /// (drop, duplicate, reorder, delay, partition). Snaps then surface in
  /// snaps() only after pumpNetwork() drains delivery. Idempotent;
  /// returns the collector's machine id.
  uint64_t enableNetworkTransport();
  bool networkEnabled() const { return NetEnabled; }

  /// The collector machine's endpoint (null until network mode is on).
  TransportEndpoint *collectorEndpoint() { return CollectorEP.get(); }
  /// The dedicated collector machine (null until network mode is on) —
  /// lets replay tell the collector apart when rebuilding a topology.
  Machine *collectorMachine() { return CollectorM; }
  /// The endpoint of \p M's daemon, or the collector's (null if neither).
  TransportEndpoint *endpointFor(Machine &M);

  /// Pumps every daemon and the collector until the network is quiet (see
  /// pumpNetworkUntilQuiet). Returns false on a transport hang; true
  /// immediately when network mode is off.
  bool pumpNetwork(uint64_t MaxCycles = 4000000);

  /// All snaps produced so far, in arrival order. In network mode the
  /// collector endpoint keeps each pushed image encoded; the first call
  /// after new images arrived decodes them (an image that fails to
  /// deserialize is dropped). A call may therefore write the list:
  /// concurrent calls must not race, and references into it last only
  /// until the next snap arrives.
  const std::vector<SnapFile> &snaps() const;
  std::vector<SnapFile> &snaps();

  ReconstructedTrace reconstruct(const SnapFile &Snap) const;

  MapFileStore &maps() { return Maps; }

  /// Policy applied to runtimes created after the change.
  RtPolicy Policy;
  /// DAG base file consulted by new runtimes; an empty one assigns no
  /// module a base, so each keeps its compiled default.
  DagBaseFile BaseFile;
  /// Registry that receives self-telemetry from runtimes, daemons and
  /// reconstruction created by this deployment. Set before addMachine /
  /// deploy to isolate a test; null = the process-global registry.
  MetricsRegistry *Metrics = nullptr;

private:
  class Collector;

  void attachEndpoint(ServiceDaemon &D);
  /// Appends the pushed images not yet decoded to Snaps.
  void decodePending() const;

  World W;
  MapFileStore Maps;
  /// Decoded snaps in arrival order, then the images pushed since the last
  /// decode, still encoded. snaps() moves the images over, so a const
  /// read writes both.
  mutable std::vector<SnapFile> Snaps;
  mutable std::vector<std::vector<uint8_t>> PendingImages;
  std::unique_ptr<Collector> Sink;
  std::vector<std::unique_ptr<TracebackRuntime>> Runtimes;
  std::vector<std::unique_ptr<ServiceDaemon>> Daemons;

  bool NetEnabled = false;
  Machine *CollectorM = nullptr;
  std::unique_ptr<TransportEndpoint> CollectorEP;
  std::vector<std::unique_ptr<TransportEndpoint>> Endpoints;
};

/// TB-ISA assembly source of "libtbc", the tiny C-runtime-style native
/// module (memcpy, strcpy, memset, strlen) used by the crash examples —
/// including the classic unbounded-strcpy overflow of Figure 5.
std::string libTbcSource();

/// Assembles libtbc. Aborts on internal error (the source is a constant).
Module buildLibTbc();

} // namespace traceback

#endif // TRACEBACK_CORE_SESSION_H
