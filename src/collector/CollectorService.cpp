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
    : Store(Store), Opt(O) {
  if (Opt.Shards == 0)
    Opt.Shards = 1;
  Queues.resize(Opt.Shards);
  MetricsRegistry &R = Opt.Metrics ? *Opt.Metrics : MetricsRegistry::global();
  CM.Received = &R.counter("collector.ingest.received");
  CM.Ingested = &R.counter("collector.ingest.ingested");
  CM.Errors = &R.counter("collector.ingest.errors");
  CM.InlineDrains = &R.counter("collector.ingest.inline_drains");
  CM.QueueDepth = &R.gauge("collector.ingest.queue_depth");
}

bool CollectorService::push(std::vector<uint8_t> Image,
                            uint64_t SrcMachineId) {
  ++ReceivedCount;
  CM.Received->add();
  std::deque<Item> &Q = Queues[SrcMachineId % Opt.Shards];
  bool Ok = true;
  if (Opt.QueueCapacity != 0 && Q.size() >= Opt.QueueCapacity) {
    // Full shard: drain everything inline, preserving global order, and
    // keep going — back-pressure degrades latency, never durability.
    CM.InlineDrains->add();
    size_t Before = ErrorCount;
    drain();
    Ok = ErrorCount == Before;
  }
  Item It;
  It.Seq = NextSeq++;
  It.SrcMachineId = SrcMachineId;
  It.Image = std::move(Image);
  Q.push_back(std::move(It));
  CM.QueueDepth->set(static_cast<int64_t>(pending()));
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
    ++ErrorCount;
    LastError = Error;
    CM.Errors->add();
    return false;
  }
  ++IngestedCount;
  CM.Ingested->add();
  return true;
}

size_t CollectorService::drain() {
  // Merge the shards back into global arrival order: repeatedly take the
  // queue whose head carries the lowest sequence. Shard layout becomes
  // invisible — the store sees exactly the arrival stream.
  size_t Stored = 0;
  for (;;) {
    std::deque<Item> *Best = nullptr;
    for (std::deque<Item> &Q : Queues)
      if (!Q.empty() && (!Best || Q.front().Seq < Best->front().Seq))
        Best = &Q;
    if (!Best)
      break;
    if (ingestOne(Best->front()))
      ++Stored;
    Best->pop_front();
  }
  CM.QueueDepth->set(0);
  return Stored;
}

size_t CollectorService::pending() const {
  size_t N = 0;
  for (const std::deque<Item> &Q : Queues)
    N += Q.size();
  return N;
}
