//===- distributed/ServiceDaemon.cpp - Per-machine service process --------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "distributed/ServiceDaemon.h"

#include "vm/World.h"

using namespace traceback;

ServiceDaemon::ServiceDaemon(Machine &M, SnapSink *Downstream,
                             MetricsRegistry *Metrics)
    : M(M), Downstream(Downstream) {
  MetricsRegistry &Reg = Metrics ? *Metrics : MetricsRegistry::global();
  DM.SnapsReceived = &Reg.counter("daemon.snaps_received");
  DM.GroupSnapFanout = &Reg.counter("daemon.group_snap_fanout");
  DM.HeartbeatSamples = &Reg.counter("daemon.heartbeat_samples");
  DM.HangSnaps = &Reg.counter("daemon.hang_snaps");
  DM.PostMortemSnaps = &Reg.counter("daemon.postmortem_snaps");
  DM.WatchedProcesses = &Reg.gauge("daemon.watched_processes");
  DM.NetSnapPushes = &Reg.counter("daemon.net.snap_pushes");
  DM.NetSnapsReceived = &Reg.counter("daemon.net.snaps_received");
  DM.NetPushFallback = &Reg.counter("daemon.net.push_fallback");
  DM.NetGroupRequests = &Reg.counter("daemon.net.group_requests");
  DM.NetGroupAcks = &Reg.counter("daemon.net.group_acks");
  DM.NetMissingPeerMarkers = &Reg.counter("daemon.net.missing_peer_markers");
  DM.NetHeartbeatsSeen = &Reg.counter("daemon.net.heartbeats_seen");
}

void ServiceDaemon::watch(Process &P, TracebackRuntime &RT,
                          const std::string &Group) {
  Processes.push_back({&P, &RT, Group, 0, false});
  DM.WatchedProcesses->add(1);
}

void ServiceDaemon::onSnap(const std::shared_ptr<const SnapFile> &Snap) {
  DM.SnapsReceived->add();
  deliver(Snap);
}

void ServiceDaemon::deliver(const std::shared_ptr<const SnapFile> &Snap) {
  if (Net)
    pushSnapOverNet(Snap);
  else if (Downstream)
    Downstream->onSnap(Snap);
  // Group snaps are best-effort and must not recurse: peers are snapped
  // with reason GroupPeer, which does not propagate further.
  if (Snap->Reason == SnapReason::GroupPeer || InGroupSnap)
    return;
  for (const Watched &W : Processes) {
    if (W.P->Pid != Snap->Pid)
      continue;
    InGroupSnap = true;
    groupSnap(W.Group, Snap->Pid);
    for (ServiceDaemon *Peer : Peers) {
      if (Net) {
        // Cross-machine fan-out goes over the wire: one request per peer,
        // acked by the peer daemon once its members are snapped. A peer
        // already judged unreachable degrades immediately.
        GroupSnapRequestMsg Req;
        Req.RequestId = NextRequestId++;
        Req.Group = W.Group;
        Req.ExceptPid = Snap->Pid;
        std::vector<uint8_t> Payload;
        encodeGroupSnapRequest(Req, Payload);
        uint64_t PeerMachine = Peer->machine().Id;
        if (Net->send(FrameType::GroupSnapRequest, PeerMachine,
                      std::move(Payload))) {
          DM.NetGroupRequests->add();
          PendingRequests[Req.RequestId] = {PeerMachine,
                                            Peer->machine().Name, W.Group};
        } else {
          emitMissingPeerMarker(PeerMachine, Peer->machine().Name, W.Group);
        }
        continue;
      }
      Peer->InGroupSnap = true;
      Peer->groupSnap(W.Group, Snap->Pid);
      Peer->InGroupSnap = false;
    }
    InGroupSnap = false;
    return;
  }
}

size_t ServiceDaemon::groupSnap(const std::string &Group, uint64_t ExceptPid) {
  size_t Count = 0;
  for (const Watched &W : Processes) {
    if (W.Group != Group || W.P->Pid == ExceptPid)
      continue;
    // The group snap is "not perfectly synchronized but useful in
    // practice" (section 3.6.1) — it is taken when the notification
    // arrives, not at the fault instant. The shared return is discarded:
    // delivery already happened through the runtime's sink, copy-free.
    DM.GroupSnapFanout->add();
    W.RT->takeSnap(SnapReason::GroupPeer, 0);
    ++Count;
  }
  return Count;
}

//===----------------------------------------------------------------------===//
// Network transport
//===----------------------------------------------------------------------===//

void ServiceDaemon::configureTransport(TransportEndpoint &EP,
                                       uint64_t Collector) {
  Net = &EP;
  CollectorMachine = Collector;
  EP.Handler = [this](const WireFrame &F) { onNetFrame(F); };
}

void ServiceDaemon::pushSnapOverNet(
    const std::shared_ptr<const SnapFile> &Snap) {
  std::vector<uint8_t> Image;
  Snap->serializeTo(Image);
  if (Net->send(FrameType::SnapPush, CollectorMachine, Image)) {
    DM.NetSnapPushes->add();
    return;
  }
  // Collector unreachable: a snap is never dropped — fall back to the
  // direct downstream call (a real daemon would spill to local disk and
  // re-push after the heal; the simulation's downstream is that disk).
  DM.NetPushFallback->add();
  if (Downstream)
    Downstream->onSnap(Snap);
}

void ServiceDaemon::onNetFrame(const WireFrame &F) {
  switch (F.Type) {
  case FrameType::SnapPush: {
    auto Snap = std::make_shared<SnapFile>();
    if (!SnapFile::deserialize(F.Payload, *Snap))
      return;
    DM.NetSnapsReceived->add();
    if (Downstream)
      Downstream->onSnap(std::shared_ptr<const SnapFile>(std::move(Snap)));
    return;
  }
  case FrameType::GroupSnapRequest: {
    GroupSnapRequestMsg Req;
    if (!decodeGroupSnapRequest(F.Payload, Req))
      return;
    // Remote fan-out must not recurse into another round of fan-out.
    InGroupSnap = true;
    size_t Taken = groupSnap(Req.Group, Req.ExceptPid);
    InGroupSnap = false;
    GroupSnapAckMsg Ack;
    Ack.RequestId = Req.RequestId;
    Ack.SnapsTaken = Taken;
    std::vector<uint8_t> Payload;
    encodeGroupSnapAck(Ack, Payload);
    Net->send(FrameType::GroupSnapAck, F.SrcMachine, std::move(Payload));
    return;
  }
  case FrameType::GroupSnapAck: {
    GroupSnapAckMsg Ack;
    if (!decodeGroupSnapAck(F.Payload, Ack))
      return;
    DM.NetGroupAcks->add();
    PendingRequests.erase(Ack.RequestId);
    return;
  }
  case FrameType::Heartbeat: {
    HeartbeatMsg HB;
    if (!decodeHeartbeat(F.Payload, HB))
      return;
    DM.NetHeartbeatsSeen->add();
    PeerHeartbeats[F.SrcMachine] = HB;
    return;
  }
  case FrameType::Ack:
    return; // Never reaches the handler.
  }
}

void ServiceDaemon::emitMissingPeerMarker(uint64_t PeerMachine,
                                          const std::string &PeerName,
                                          const std::string &Group) {
  DM.NetMissingPeerMarkers->add();
  // The degradation record of a partial group snap: MachineName is the
  // peer that is absent, ProcessName the group the snap is partial for,
  // ReasonDetail the peer's machine id. It travels and archives like any
  // snap; reconstruction reports it instead of silently missing a member.
  auto Marker = std::make_shared<SnapFile>();
  Marker->Reason = SnapReason::MissingPeer;
  Marker->ReasonDetail = static_cast<uint16_t>(PeerMachine);
  Marker->ProcessName = Group;
  Marker->MachineName = PeerName;
  Marker->OsName = M.OsName;
  Marker->Timestamp = M.nowGlobal();
  deliver(Marker);
}

size_t ServiceDaemon::pumpTransport() {
  if (!Net)
    return 0;
  size_t Delivered = Net->pump();
  // A request outstanding toward a peer now judged unreachable will never
  // be acked: degrade the group snap to a partial snap right here rather
  // than waiting on a reply that cannot come.
  for (auto It = PendingRequests.begin(); It != PendingRequests.end();) {
    if (Net->peerUnreachable(It->second.PeerMachine)) {
      PendingGroupReq Req = It->second;
      It = PendingRequests.erase(It);
      emitMissingPeerMarker(Req.PeerMachine, Req.PeerName, Req.Group);
    } else {
      ++It;
    }
  }
  return Delivered;
}

void ServiceDaemon::broadcastHeartbeat() {
  if (!Net)
    return;
  HeartbeatMsg HB;
  HB.DaemonClock = M.nowGlobal();
  HB.WatchedProcesses = Processes.size();
  for (ServiceDaemon *Peer : Peers) {
    std::vector<uint8_t> Payload;
    encodeHeartbeat(HB, Payload);
    Net->send(FrameType::Heartbeat, Peer->machine().Id, std::move(Payload));
  }
}

bool traceback::pumpNetworkUntilQuiet(
    World &W, const std::vector<ServiceDaemon *> &Daemons,
    const std::vector<TransportEndpoint *> &Extra, uint64_t MaxCycles) {
  std::vector<TransportEndpoint *> Endpoints;
  for (ServiceDaemon *D : Daemons)
    if (D->transport())
      Endpoints.push_back(D->transport());
  Endpoints.insert(Endpoints.end(), Extra.begin(), Extra.end());
  uint64_t Start = W.cycles();
  for (;;) {
    for (ServiceDaemon *D : Daemons)
      D->pumpTransport();
    for (TransportEndpoint *E : Extra)
      E->pump();
    bool Quiet = true;
    for (TransportEndpoint *E : Endpoints)
      if (E->inFlightTotal() || W.netQueued(E->machineId()))
        Quiet = false;
    for (ServiceDaemon *D : Daemons)
      if (D->pendingGroupRequests())
        Quiet = false;
    if (Quiet)
      return true;
    if (W.cycles() - Start >= MaxCycles)
      return false;
    // Nothing runnable: idle time is what lets retransmit and gap timers
    // fire, so partitions resolve into verdicts instead of spinning.
    W.advanceIdle(1000);
  }
}

void ServiceDaemon::sampleHeartbeats() {
  for (Watched &W : Processes) {
    W.LastSample = W.P->totalInstrRetired();
    W.SeenSample = true;
    DM.HeartbeatSamples->add();
  }
}

std::vector<Process *> ServiceDaemon::detectHangs() const {
  std::vector<Process *> Hung;
  for (const Watched &W : Processes) {
    if (!W.SeenSample || W.P->Exited)
      continue;
    if (W.P->totalInstrRetired() == W.LastSample)
      Hung.push_back(W.P);
  }
  return Hung;
}

size_t ServiceDaemon::snapHungProcesses() {
  size_t Count = 0;
  for (Process *P : detectHangs()) {
    for (const Watched &W : Processes)
      if (W.P == P) {
        DM.HangSnaps->add();
        W.RT->takeSnap(SnapReason::Hang, 0);
        ++Count;
      }
  }
  return Count;
}

std::vector<std::shared_ptr<const SnapFile>>
ServiceDaemon::collectPostMortem(Process &P) {
  std::vector<std::shared_ptr<const SnapFile>> Result;
  for (const Watched &W : Processes) {
    if (W.P != &P)
      continue;
    // The buffers live in the process's memory image (the memory-mapped
    // file); the snap reads them from there regardless of process state.
    DM.PostMortemSnaps->add();
    Result.push_back(W.RT->takeSnap(SnapReason::External, 0));
  }
  return Result;
}
