//===- collector/CollectorService.h - Fleet snap ingestion ------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet-facing half of the collector: an ingestion front that
/// drains snap images handed to push() (TransportEndpoint snap pushes
/// included) into a SnapStore. Arriving images wait in one bounded
/// arrival-order queue, and drain() stores them in that order, so the
/// store's contents are a deterministic function of the arrival stream.
/// A full queue drains inline — ingest back-pressure must never drop a
/// fault snap.
///
/// attachTransport() hooks a TransportEndpoint's delivery handler:
/// SnapPush frames are enqueued with their source machine id, and every
/// frame — SnapPush included — also reaches the previous handler, so a
/// Deployment's snaps() view stays intact while the collector indexes.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_COLLECTOR_COLLECTORSERVICE_H
#define TRACEBACK_COLLECTOR_COLLECTORSERVICE_H

#include "collector/SnapStore.h"
#include "support/Metrics.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace traceback {

class TransportEndpoint;

/// Ingestion-front settings.
struct CollectorOptions {
  /// Destination of the "collector.ingest." instrument family
  /// (null = the process-global registry).
  MetricsRegistry *Metrics = nullptr;
};

/// Drains snap pushes into a SnapStore.
class CollectorService {
public:
  /// Bound on queued images. An enqueue into a full queue drains it
  /// inline first (deterministic, never drops).
  static constexpr size_t QueueCapacity = 1024;

  /// \p Store must outlive the service and be open for writing.
  CollectorService(SnapStore &Store, const CollectorOptions &O = {});

  /// Enqueues one serialized snap image from \p SrcMachineId (0 = a
  /// local/direct source, such as a SnapSource loop). The only way in:
  /// transport pushes arrive here too. Returns false only when the
  /// inline-drain fallback hit a store error (recorded in lastError()).
  bool push(std::vector<uint8_t> Image, uint64_t SrcMachineId);

  /// Hooks \p EP's delivery handler (see file comment). The previous
  /// handler is preserved and restored by detachTransport().
  void attachTransport(TransportEndpoint &EP);
  void detachTransport();

  /// Drains every queued image into the store in arrival order.
  /// Returns how many snaps were stored (dedup hits included).
  size_t drain();

  size_t pending() const { return Queue.size(); }

  // --- Stats ---------------------------------------------------------------

  uint64_t received() const { return CM.Received->value(); }
  uint64_t ingested() const { return CM.Ingested->value(); }
  uint64_t errors() const { return CM.Errors->value(); }
  const std::string &lastError() const { return LastError; }
  SnapStore &store() { return Store; }

private:
  struct Item {
    uint64_t SrcMachineId = 0;
    std::vector<uint8_t> Image;
  };

  bool ingestOne(const Item &It);

  SnapStore &Store;
  std::vector<Item> Queue; ///< Arrival order.

  TransportEndpoint *EP = nullptr;
  std::function<void(const struct WireFrame &)> PrevHandler;

  std::string LastError;

  struct Instruments {
    Counter *Received = nullptr;
    Counter *Ingested = nullptr;
    Counter *Errors = nullptr;
    Counter *InlineDrains = nullptr;
    Gauge *QueueDepth = nullptr;
  };
  Instruments CM;
};

} // namespace traceback

#endif // TRACEBACK_COLLECTOR_COLLECTORSERVICE_H
