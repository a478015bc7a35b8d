//===- distributed/Transport.cpp - Reliable snap transport ----------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "distributed/Transport.h"

#include "vm/World.h"

#include <algorithm>

using namespace traceback;

TransportEndpoint::TransportEndpoint(World &W, uint64_t MachineId,
                                     MetricsRegistry *Metrics)
    : W(W), MachineId(MachineId) {
  MetricsRegistry &Reg = Metrics ? *Metrics : MetricsRegistry::global();
  NM.FramesSent = &Reg.counter("daemon.net.frames_sent");
  NM.FramesRetried = &Reg.counter("daemon.net.frames_retried");
  NM.FramesReceived = &Reg.counter("daemon.net.frames_received");
  NM.FramesDelivered = &Reg.counter("daemon.net.frames_delivered");
  NM.FramesCorrupt = &Reg.counter("daemon.net.frames_corrupt");
  NM.DupsDiscarded = &Reg.counter("daemon.net.dups_discarded");
  NM.FramesHeld = &Reg.counter("daemon.net.frames_held");
  NM.FramesLost = &Reg.counter("daemon.net.frames_lost");
  NM.AcksSent = &Reg.counter("daemon.net.acks_sent");
  NM.SendsRefused = &Reg.counter("daemon.net.sends_refused");
  NM.PeersUnreachable = &Reg.counter("daemon.net.peers_unreachable");
  NM.PeersRecovered = &Reg.counter("daemon.net.peers_recovered");
  NM.GapSkips = &Reg.counter("daemon.net.gap_skips");
}

uint64_t TransportEndpoint::send(FrameType Type, uint64_t Dst,
                                 std::vector<uint8_t> Payload) {
  // The receiver would reject the frame as corrupt, and the retries would
  // write off the whole window with it: refuse it here instead.
  if (Payload.size() > MaxFramePayload) {
    NM.SendsRefused->add();
    return 0;
  }
  Channel &C = Channels[Dst];
  if (C.Unreachable) {
    // The caller degrades instead of blocking: a refused send is an
    // explicit "this peer is gone" answer, not a silent queue.
    NM.SendsRefused->add();
    return 0;
  }
  WireFrame F;
  F.Type = Type;
  F.SrcMachine = MachineId;
  F.DstMachine = Dst;
  F.Seq = C.NextSendSeq++;
  F.AckSeq = C.NextRecvSeq - 1; // Piggybacked cumulative ack.
  F.Payload = std::move(Payload);

  Unacked U;
  U.Seq = F.Seq;
  encodeFrame(F, U.Bytes);
  U.Attempts = 1;
  U.NextRetryAt = W.cycles() + RetryBase;
  W.netSend(MachineId, Dst, U.Bytes);
  NM.FramesSent->add();
  C.Window.push_back(std::move(U));
  return F.Seq;
}

void TransportEndpoint::noteAck(Channel &C, uint64_t AckSeq) {
  if (AckSeq <= C.HighestAcked)
    return;
  C.HighestAcked = AckSeq;
  while (!C.Window.empty() && C.Window.front().Seq <= AckSeq)
    C.Window.pop_front();
}

void TransportEndpoint::deliverInOrder(Channel &C, uint64_t Src,
                                       size_t &DeliveredOut) {
  for (;;) {
    auto It = C.HeldFrames.find(C.NextRecvSeq);
    if (It == C.HeldFrames.end())
      return;
    WireFrame F = std::move(It->second.Frame);
    C.HeldFrames.erase(It);
    ++C.NextRecvSeq;
    ++C.Delivered;
    ++DeliveredOut;
    NM.FramesDelivered->add();
    if (Handler)
      Handler(F);
  }
}

void TransportEndpoint::handleArrived(const WireFrame &F,
                                      size_t &DeliveredOut) {
  Channel &C = Channels[F.SrcMachine];
  if (C.Unreachable) {
    // Any valid frame is evidence of life: the partition healed.
    C.Unreachable = false;
    NM.PeersRecovered->add();
  }
  noteAck(C, F.AckSeq);
  if (F.Type == FrameType::Ack)
    return;

  // Data frame: dedup + reorder into contiguous sequence.
  C.AckDue = true;
  if (F.Seq < C.NextRecvSeq) {
    NM.DupsDiscarded->add();
    return;
  }
  if (F.Seq == C.NextRecvSeq) {
    ++C.NextRecvSeq;
    ++C.Delivered;
    ++DeliveredOut;
    NM.FramesDelivered->add();
    if (Handler)
      Handler(F);
    deliverInOrder(C, F.SrcMachine, DeliveredOut);
    return;
  }
  // Future frame: hold until the gap fills (bounded; beyond the bound
  // the retransmit path re-delivers it later anyway).
  if (C.HeldFrames.count(F.Seq)) {
    NM.DupsDiscarded->add();
    return;
  }
  if (C.HeldFrames.size() < MaxHeld) {
    C.HeldFrames[F.Seq] = {F, W.cycles()};
    NM.FramesHeld->add();
  }
}

void TransportEndpoint::sendAck(uint64_t Dst, Channel &C) {
  WireFrame F;
  F.Type = FrameType::Ack;
  F.SrcMachine = MachineId;
  F.DstMachine = Dst;
  F.Seq = 0; // Unreliable: never retried, never acked itself.
  F.AckSeq = C.NextRecvSeq - 1;
  std::vector<uint8_t> Bytes;
  encodeFrame(F, Bytes);
  W.netSend(MachineId, Dst, std::move(Bytes));
  NM.AcksSent->add();
}

void TransportEndpoint::runRetries() {
  uint64_t Now = W.cycles();
  for (auto &[Dst, C] : Channels) {
    if (C.Unreachable || C.Window.empty())
      continue;
    bool Exhausted = false;
    for (Unacked &U : C.Window) {
      if (U.NextRetryAt > Now)
        continue;
      if (U.Attempts >= MaxAttempts) {
        Exhausted = true;
        break;
      }
      W.netSend(MachineId, Dst, U.Bytes);
      ++U.Attempts;
      uint64_t Backoff = RetryBase << U.Attempts;
      U.NextRetryAt = Now + std::min(Backoff, RetryCap);
      NM.FramesRetried->add();
    }
    if (Exhausted) {
      // Retry budget gone: the peer is partitioned away. Write off the
      // whole window — those frames were never acked and are reported
      // lost, so the caller can degrade instead of waiting forever.
      C.Unreachable = true;
      NM.PeersUnreachable->add();
      for (const Unacked &U : C.Window) {
        C.LostSeqs.push_back(U.Seq);
        NM.FramesLost->add();
      }
      C.Window.clear();
    }
  }
}

size_t TransportEndpoint::pump() {
  size_t Delivered = 0;
  NetPacket P;
  while (W.netPoll(MachineId, P)) {
    NM.FramesReceived->add();
    WireFrame F;
    std::string Error;
    if (!decodeFrame(P.Bytes, F, Error) || F.DstMachine != MachineId) {
      NM.FramesCorrupt->add();
      continue;
    }
    handleArrived(F, Delivered);
  }

  // Receive-side resync: a sequence gap that outlived the sender's whole
  // retry horizon means those frames were written off at the other end;
  // skip past them so a healed channel cannot deadlock on lost history.
  uint64_t Now = W.cycles();
  for (auto &[Src, C] : Channels) {
    if (C.HeldFrames.empty() || C.NextRecvSeq >= C.HeldFrames.begin()->first)
      continue;
    if (C.HeldFrames.begin()->second.HeldSince + GapTimeout > Now)
      continue;
    C.NextRecvSeq = C.HeldFrames.begin()->first;
    NM.GapSkips->add();
    deliverInOrder(C, Src, Delivered);
    C.AckDue = true;
  }

  for (auto &[Dst, C] : Channels) {
    if (!C.AckDue)
      continue;
    C.AckDue = false;
    sendAck(Dst, C);
  }

  runRetries();
  return Delivered;
}

size_t TransportEndpoint::inFlight(uint64_t Dst) const {
  auto It = Channels.find(Dst);
  return It == Channels.end() ? 0 : It->second.Window.size();
}

size_t TransportEndpoint::inFlightTotal() const {
  size_t N = 0;
  for (const auto &[Dst, C] : Channels)
    N += C.Window.size();
  return N;
}

uint64_t TransportEndpoint::highestAcked(uint64_t Dst) const {
  auto It = Channels.find(Dst);
  return It == Channels.end() ? 0 : It->second.HighestAcked;
}

uint64_t TransportEndpoint::ackedDelivered(uint64_t Dst) const {
  auto It = Channels.find(Dst);
  if (It == Channels.end())
    return 0;
  const Channel &C = It->second;
  uint64_t LostBelow = 0;
  for (uint64_t S : C.LostSeqs)
    if (S <= C.HighestAcked)
      ++LostBelow;
  return C.HighestAcked - LostBelow;
}

uint64_t TransportEndpoint::lostFrames(uint64_t Dst) const {
  auto It = Channels.find(Dst);
  return It == Channels.end() ? 0 : It->second.LostSeqs.size();
}

uint64_t TransportEndpoint::deliveredFrom(uint64_t Src) const {
  auto It = Channels.find(Src);
  return It == Channels.end() ? 0 : It->second.Delivered;
}

bool TransportEndpoint::peerUnreachable(uint64_t Dst) const {
  auto It = Channels.find(Dst);
  return It != Channels.end() && It->second.Unreachable;
}

std::vector<uint64_t> TransportEndpoint::unreachablePeers() const {
  std::vector<uint64_t> Out;
  for (const auto &[Dst, C] : Channels)
    if (C.Unreachable)
      Out.push_back(Dst);
  return Out;
}

void TransportEndpoint::resetPeer(uint64_t Dst) {
  auto It = Channels.find(Dst);
  if (It == Channels.end())
    return;
  if (It->second.Unreachable) {
    It->second.Unreachable = false;
    NM.PeersRecovered->add();
  }
}
