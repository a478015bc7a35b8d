//===- collector/CollectorService.cpp - Fleet snap ingestion --------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "collector/CollectorService.h"

#include "distributed/Transport.h"
#include "distributed/Wire.h"

using namespace traceback;

CollectorService::CollectorService(SnapStore &Store, const CollectorOptions &O)
    : Store(Store) {
  MetricsRegistry &R = O.Metrics ? *O.Metrics : MetricsRegistry::global();
  CM.Received = &R.counter("collector.ingest.received");
  CM.Ingested = &R.counter("collector.ingest.ingested");
  CM.Errors = &R.counter("collector.ingest.errors");
  CM.InlineDrains = &R.counter("collector.ingest.inline_drains");
  CM.QueueDepth = &R.gauge("collector.ingest.queue_depth");
}

bool CollectorService::push(std::vector<uint8_t> Image,
                            uint64_t SrcMachineId) {
  CM.Received->add();
  bool Ok = true;
  if (Queue.size() >= QueueCapacity) {
    // Full queue: drain it inline, preserving arrival order, and keep
    // going — back-pressure degrades latency, never durability.
    CM.InlineDrains->add();
    size_t Queued = Queue.size();
    Ok = drain() == Queued;
  }
  Queue.push_back({SrcMachineId, std::move(Image)});
  CM.QueueDepth->set(static_cast<int64_t>(Queue.size()));
  return Ok;
}

void CollectorService::attachTransport(TransportEndpoint &Endpoint) {
  detachTransport();
  EP = &Endpoint;
  PrevHandler = Endpoint.Handler;
  Endpoint.Handler = [this, Prev = PrevHandler](const WireFrame &F) {
    if (F.Type == FrameType::SnapPush)
      push(F.Payload, F.SrcMachine);
    if (Prev)
      Prev(F);
  };
}

void CollectorService::detachTransport() {
  if (!EP)
    return;
  EP->Handler = PrevHandler;
  PrevHandler = nullptr;
  EP = nullptr;
}

bool CollectorService::ingestOne(const Item &It) {
  SnapStore::AppendResult R;
  std::string Error;
  if (!Store.append(It.Image, It.SrcMachineId, R, &Error)) {
    LastError = Error;
    CM.Errors->add();
    return false;
  }
  CM.Ingested->add();
  return true;
}

size_t CollectorService::drain() {
  size_t Stored = 0;
  for (const Item &It : Queue)
    if (ingestOne(It))
      ++Stored;
  Queue.clear();
  CM.QueueDepth->set(0);
  return Stored;
}
