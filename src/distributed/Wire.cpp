//===- distributed/Wire.cpp - Transport frame format ----------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "distributed/Wire.h"

#include "support/ByteStream.h"
#include "support/Hash.h"
#include "support/Text.h"

using namespace traceback;

namespace {

constexpr uint32_t FrameMagic = 0x464E4254; // "TBNF", little endian.
/// Version 2 replaced version 1's byte-serial FNV-1a checksum with CRC32C;
/// the layout is unchanged.
constexpr uint16_t FrameVersion = 2;

/// CRC32C over the header fields up to the checksum field, then the
/// payload, so a flipped sequence number is rejected just like a flipped
/// payload byte.
uint32_t frameChecksum(const uint8_t *Header, size_t HeaderSize,
                       const std::vector<uint8_t> &Payload) {
  return crc32c(crc32c(0, Header, HeaderSize), Payload.data(),
                Payload.size());
}

} // namespace

const char *traceback::frameTypeName(FrameType T) {
  switch (T) {
  case FrameType::Ack:
    return "ack";
  case FrameType::SnapPush:
    return "snap-push";
  case FrameType::GroupSnapRequest:
    return "group-snap-request";
  case FrameType::GroupSnapAck:
    return "group-snap-ack";
  case FrameType::Heartbeat:
    return "heartbeat";
  }
  return "unknown";
}

void traceback::encodeFrame(const WireFrame &F, std::vector<uint8_t> &Out) {
  size_t Start = Out.size();
  ByteWriter W(Out);
  W.writeU32(FrameMagic);
  W.writeU16(FrameVersion);
  W.writeU16(static_cast<uint16_t>(F.Type));
  W.writeU64(F.SrcMachine);
  W.writeU64(F.DstMachine);
  W.writeU64(F.Seq);
  W.writeU64(F.AckSeq);
  W.writeU32(static_cast<uint32_t>(F.Payload.size()));
  W.writeU32(frameChecksum(Out.data() + Start, Out.size() - Start,
                           F.Payload));
  W.writeBytes(F.Payload.data(), F.Payload.size());
}

bool traceback::decodeFrame(const std::vector<uint8_t> &Bytes, WireFrame &Out,
                            std::string &Error) {
  ByteReader R(Bytes);
  if (R.readU32() != FrameMagic || R.failed()) {
    Error = "bad frame magic";
    return false;
  }
  uint16_t Version = R.readU16();
  if (Version != FrameVersion || R.failed()) {
    Error = formatv("unsupported frame version %u", Version);
    return false;
  }
  uint16_t RawType = R.readU16();
  if (RawType < static_cast<uint16_t>(FrameType::Ack) ||
      RawType > static_cast<uint16_t>(FrameType::Heartbeat)) {
    Error = formatv("unknown frame type %u", RawType);
    return false;
  }
  Out.Type = static_cast<FrameType>(RawType);
  Out.SrcMachine = R.readU64();
  Out.DstMachine = R.readU64();
  Out.Seq = R.readU64();
  Out.AckSeq = R.readU64();
  uint32_t Len = R.readU32();
  uint32_t Sum = R.readU32();
  if (R.failed()) {
    Error = "truncated frame header";
    return false;
  }
  // An oversized length field must fail the bounds check, never drive an
  // allocation: compare against what is actually left in the input.
  if (Len > MaxFramePayload || Len > R.remaining()) {
    Error = formatv("payload length %u exceeds input", Len);
    return false;
  }
  if (R.remaining() != Len) {
    Error = "trailing garbage after payload";
    return false;
  }
  Out.Payload.assign(Bytes.end() - Len, Bytes.end());
  // Everything up to (but excluding) the checksum field is covered.
  size_t HeaderSize = Bytes.size() - Len - 4;
  if (frameChecksum(Bytes.data(), HeaderSize, Out.Payload) != Sum) {
    Error = "frame checksum mismatch";
    return false;
  }
  return true;
}

// ----------------------------------------------------------------------------
// Payload codecs.
// ----------------------------------------------------------------------------

void traceback::encodeGroupSnapRequest(const GroupSnapRequestMsg &M,
                                       std::vector<uint8_t> &Out) {
  ByteWriter W(Out);
  W.writeU64(M.RequestId);
  W.writeString(M.Group);
  W.writeU64(M.ExceptPid);
}

bool traceback::decodeGroupSnapRequest(const std::vector<uint8_t> &Bytes,
                                       GroupSnapRequestMsg &Out) {
  ByteReader R(Bytes);
  Out.RequestId = R.readU64();
  Out.Group = R.readString();
  Out.ExceptPid = R.readU64();
  return !R.failed() && R.atEnd();
}

void traceback::encodeGroupSnapAck(const GroupSnapAckMsg &M,
                                   std::vector<uint8_t> &Out) {
  ByteWriter W(Out);
  W.writeU64(M.RequestId);
  W.writeU64(M.SnapsTaken);
}

bool traceback::decodeGroupSnapAck(const std::vector<uint8_t> &Bytes,
                                   GroupSnapAckMsg &Out) {
  ByteReader R(Bytes);
  Out.RequestId = R.readU64();
  Out.SnapsTaken = R.readU64();
  return !R.failed() && R.atEnd();
}

void traceback::encodeHeartbeat(const HeartbeatMsg &M,
                                std::vector<uint8_t> &Out) {
  ByteWriter W(Out);
  W.writeU64(M.DaemonClock);
  W.writeU64(M.WatchedProcesses);
}

bool traceback::decodeHeartbeat(const std::vector<uint8_t> &Bytes,
                                HeartbeatMsg &Out) {
  ByteReader R(Bytes);
  Out.DaemonClock = R.readU64();
  Out.WatchedProcesses = R.readU64();
  return !R.failed() && R.atEnd();
}
