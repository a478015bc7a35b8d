//===- distributed/Transport.h - Reliable snap transport --------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reliability layer of the cross-machine snap transport: one
/// `TransportEndpoint` per machine, speaking `WireFrame`s over the raw,
/// lossy datagram fabric in `World` (per-machine mailboxes the fault
/// injector can drop, duplicate, delay, reorder or partition).
///
/// Guarantees, per (src, dst) channel:
///  - data frames are delivered to the handler exactly once, in send
///    order (receive-side dedup + a bounded reorder hold);
///  - a data frame is retransmitted with bounded exponential backoff
///    until covered by a cumulative acknowledgement;
///  - when the retry budget is exhausted the peer is declared
///    unreachable (partition detected) and the un-acked frames are
///    reported lost instead of blocking forever — the caller degrades
///    (a group snap becomes a partial snap) rather than hangs;
///  - after a heal, evidence of life from the peer (any valid frame)
///    clears the verdict, and the receiver resyncs across the seqs the
///    sender wrote off, so a healed channel never deadlocks.
///
/// The invariant the chaos sweeps pin down: a sequence number counted as
/// acked by the sender was delivered to the receiving handler exactly
/// once. Frames lost to a partition are never counted as acked.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_DISTRIBUTED_TRANSPORT_H
#define TRACEBACK_DISTRIBUTED_TRANSPORT_H

#include "distributed/Wire.h"
#include "support/Metrics.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

namespace traceback {

class World;

/// One machine's endpoint on the snap-transport network.
class TransportEndpoint {
public:
  /// Cycles before the first retransmit.
  static constexpr uint64_t RetryBase = 8000;
  /// Backoff ceiling per attempt.
  static constexpr uint64_t RetryCap = 64000;
  /// Attempts before the peer is declared unreachable.
  static constexpr unsigned MaxAttempts = 6;
  /// Reorder-hold bound per channel.
  static constexpr size_t MaxHeld = 64;
  /// How long a receive-side sequence gap may persist before the receiver
  /// concludes the sender gave up on the missing frames and resyncs past
  /// them. It exceeds the sender's whole retry horizon.
  static constexpr uint64_t GapTimeout = (MaxAttempts + 2) * RetryCap;

  /// Transport counters land in \p Metrics under "daemon.net." (null =
  /// the process-global registry).
  TransportEndpoint(World &W, uint64_t MachineId,
                    MetricsRegistry *Metrics = nullptr);

  uint64_t machineId() const { return MachineId; }
  World &world() { return W; }

  /// Reliable send of one data frame to machine \p Dst. Returns the
  /// assigned channel sequence number, or 0 when the send was refused
  /// because \p Dst is currently considered unreachable or \p Payload
  /// is over MaxFramePayload (the caller degrades; it does not block).
  /// A refused send leaves the channel as it was.
  uint64_t send(FrameType Type, uint64_t Dst, std::vector<uint8_t> Payload);

  /// Invoked for every newly delivered in-order data frame.
  std::function<void(const WireFrame &)> Handler;

  /// Drains the machine mailbox (decode, ack handling, dedup, reorder,
  /// handler delivery, ack emission) and runs the retransmit clock.
  /// Returns how many data frames were delivered to the handler.
  size_t pump();

  // --- Introspection -------------------------------------------------------

  /// Un-acked data frames outstanding toward \p Dst.
  size_t inFlight(uint64_t Dst) const;
  /// Un-acked frames outstanding toward every peer.
  size_t inFlightTotal() const;
  /// Highest cumulative sequence \p Dst acknowledged.
  uint64_t highestAcked(uint64_t Dst) const;
  /// Data frames counted as acked-and-delivered toward \p Dst: the
  /// cumulative ack minus sequences previously written off as lost.
  uint64_t ackedDelivered(uint64_t Dst) const;
  /// Frames written off after retry exhaustion toward \p Dst.
  uint64_t lostFrames(uint64_t Dst) const;
  /// Data frames delivered in order from \p Src to the handler.
  uint64_t deliveredFrom(uint64_t Src) const;
  /// True while \p Dst is considered unreachable.
  bool peerUnreachable(uint64_t Dst) const;
  /// Machines currently considered unreachable.
  std::vector<uint64_t> unreachablePeers() const;
  /// Clears the unreachable verdict for \p Dst (a heal was observed or
  /// forced); queued traffic is gone, new traffic flows again.
  void resetPeer(uint64_t Dst);

private:
  struct Unacked {
    uint64_t Seq = 0;
    std::vector<uint8_t> Bytes; ///< Encoded frame, retransmitted verbatim.
    unsigned Attempts = 0;
    uint64_t NextRetryAt = 0;
  };

  struct Held {
    WireFrame Frame;
    uint64_t HeldSince = 0;
  };

  /// Per-peer channel state (both directions).
  struct Channel {
    // Sender side.
    uint64_t NextSendSeq = 1;
    uint64_t HighestAcked = 0;
    /// Seqs written off after retry exhaustion. A later skip-ack may
    /// cover them, so ackedDelivered() subtracts the ones <= HighestAcked.
    std::vector<uint64_t> LostSeqs;
    std::deque<Unacked> Window;
    bool Unreachable = false;
    // Receiver side.
    uint64_t NextRecvSeq = 1;
    uint64_t Delivered = 0;
    std::map<uint64_t, Held> HeldFrames;
    bool AckDue = false;
  };

  void handleArrived(const WireFrame &F, size_t &DeliveredOut);
  void deliverInOrder(Channel &C, uint64_t Src, size_t &DeliveredOut);
  void noteAck(Channel &C, uint64_t AckSeq);
  void sendAck(uint64_t Dst, Channel &C);
  void runRetries();

  World &W;
  uint64_t MachineId;
  std::map<uint64_t, Channel> Channels;

  struct Instruments {
    Counter *FramesSent = nullptr;
    Counter *FramesRetried = nullptr;
    Counter *FramesReceived = nullptr;
    Counter *FramesDelivered = nullptr;
    Counter *FramesCorrupt = nullptr;
    Counter *DupsDiscarded = nullptr;
    Counter *FramesHeld = nullptr;
    Counter *FramesLost = nullptr;
    Counter *AcksSent = nullptr;
    Counter *SendsRefused = nullptr;
    Counter *PeersUnreachable = nullptr;
    Counter *PeersRecovered = nullptr;
    Counter *GapSkips = nullptr;
  };
  Instruments NM;
};

} // namespace traceback

#endif // TRACEBACK_DISTRIBUTED_TRANSPORT_H
