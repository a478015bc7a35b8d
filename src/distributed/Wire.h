//===- distributed/Wire.h - Transport frame format --------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed message format of the cross-machine snap transport: every
/// datagram on the simulated network fabric carries exactly one frame —
/// a snap push, a group-snap request/ack, a peer heartbeat, or a bare
/// acknowledgement. Frames carry per-channel sequence numbers (assigned
/// by distributed/Transport) plus a CRC32C checksum over the header and
/// the payload, and the decoder is fully defensive: truncated,
/// bit-flipped or oversized-length input must produce an error, never a
/// crash — damaged frames are the normal weather of the network this
/// transport is built for.
///
/// The checksum field sits between the header and the payload. CRC32C
/// detects every single-bit flip in a frame, and every burst of up to 32
/// flipped bits that lies wholly inside the header, the checksum field
/// or the payload. A burst that straddles the checksum field escapes
/// with probability 2^-32. Version 1 frames, checksummed with FNV-1a,
/// are rejected.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_DISTRIBUTED_WIRE_H
#define TRACEBACK_DISTRIBUTED_WIRE_H

#include <cstdint>
#include <string>
#include <vector>

namespace traceback {

/// What a frame carries.
enum class FrameType : uint16_t {
  Ack = 1,              ///< Bare cumulative acknowledgement (unreliable).
  SnapPush = 2,         ///< A serialized v4 snap image.
  GroupSnapRequest = 3, ///< "Snap every member of this group you watch."
  GroupSnapAck = 4,     ///< Reply: how many members were snapped.
  Heartbeat = 5,        ///< Peer-daemon liveness beacon.
};

const char *frameTypeName(FrameType T);

/// One transport frame. Data frames (everything but Ack) carry Seq >= 1,
/// the per-(src, dst) channel sequence number the receiver dedups and
/// reorders by; every frame piggybacks AckSeq, the highest contiguous
/// sequence the sender has delivered from the destination.
struct WireFrame {
  FrameType Type = FrameType::Ack;
  uint64_t SrcMachine = 0;
  uint64_t DstMachine = 0;
  uint64_t Seq = 0;    ///< 0 for pure Acks (unreliable, never retried).
  uint64_t AckSeq = 0; ///< Cumulative: all of 1..AckSeq were delivered.
  std::vector<uint8_t> Payload;
};

/// Payloads bigger than this are refused by TransportEndpoint::send and
/// rejected on decode: no snap image approaches it, and it caps what a
/// corrupted length field can ask the decoder to allocate.
constexpr uint32_t MaxFramePayload = 64u << 20;

/// Appends the encoded frame to \p Out.
void encodeFrame(const WireFrame &F, std::vector<uint8_t> &Out);

/// Decodes one frame. Returns false (with \p Error set) on anything
/// malformed: short input, bad magic/version, unknown type, payload
/// length beyond the input or MaxFramePayload, or checksum mismatch.
bool decodeFrame(const std::vector<uint8_t> &Bytes, WireFrame &Out,
                 std::string &Error);

// --- Payload codecs ---------------------------------------------------------

/// GroupSnapRequest payload.
struct GroupSnapRequestMsg {
  uint64_t RequestId = 0;  ///< Originator-unique id echoed by the ack.
  std::string Group;       ///< Process-group name to fan out to.
  uint64_t ExceptPid = 0;  ///< The already-snapped faulting process.
};

/// GroupSnapAck payload.
struct GroupSnapAckMsg {
  uint64_t RequestId = 0;
  uint64_t SnapsTaken = 0;
};

/// Heartbeat payload.
struct HeartbeatMsg {
  uint64_t DaemonClock = 0; ///< Sender machine's clock at send time.
  uint64_t WatchedProcesses = 0;
};

void encodeGroupSnapRequest(const GroupSnapRequestMsg &M,
                            std::vector<uint8_t> &Out);
bool decodeGroupSnapRequest(const std::vector<uint8_t> &Bytes,
                            GroupSnapRequestMsg &Out);
void encodeGroupSnapAck(const GroupSnapAckMsg &M, std::vector<uint8_t> &Out);
bool decodeGroupSnapAck(const std::vector<uint8_t> &Bytes,
                        GroupSnapAckMsg &Out);
void encodeHeartbeat(const HeartbeatMsg &M, std::vector<uint8_t> &Out);
bool decodeHeartbeat(const std::vector<uint8_t> &Bytes, HeartbeatMsg &Out);

} // namespace traceback

#endif // TRACEBACK_DISTRIBUTED_WIRE_H
