//===- support/ByteStream.h - Binary serialization helpers ------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian binary writer/reader used by the TBO module format, the
/// mapfile format and the snap file format.
///
/// The reader is defensive: every accessor reports malformed input through
/// a sticky error flag instead of asserting, because snap and module files
/// arrive from "outside" (disk) in the deployment story this repo models.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_SUPPORT_BYTESTREAM_H
#define TRACEBACK_SUPPORT_BYTESTREAM_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace traceback {

/// Most bytes putVarU64 writes.
constexpr size_t MaxVarU64Bytes = 10;

/// Writes \p V at \p P as an LEB128-style unsigned varint and returns the
/// end. ByteWriter::writeVarU64 and the execution log's event encoder
/// both write through it.
inline uint8_t *putVarU64(uint8_t *P, uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<uint8_t>(V) | 0x80;
    V >>= 7;
  }
  *P++ = static_cast<uint8_t>(V);
  return P;
}

/// Appends little-endian encoded primitives to a byte vector.
class ByteWriter {
public:
  explicit ByteWriter(std::vector<uint8_t> &Out) : Out(Out) {}

  void writeU8(uint8_t V) { Out.push_back(V); }

  void writeU16(uint16_t V) {
    for (int I = 0; I < 2; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }

  void writeU32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }

  void writeU64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }

  void writeI64(int64_t V) { writeU64(static_cast<uint64_t>(V)); }

  /// LEB128-style unsigned varint.
  void writeVarU64(uint64_t V) {
    uint8_t Buf[MaxVarU64Bytes];
    Out.insert(Out.end(), Buf, putVarU64(Buf, V));
  }

  /// Length-prefixed UTF-8 string.
  void writeString(const std::string &S) {
    writeVarU64(S.size());
    Out.insert(Out.end(), S.begin(), S.end());
  }

  void writeBytes(const void *Data, size_t Size) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Out.insert(Out.end(), P, P + Size);
  }

  /// Length-prefixed blob.
  void writeBlob(const std::vector<uint8_t> &Blob) {
    writeVarU64(Blob.size());
    Out.insert(Out.end(), Blob.begin(), Blob.end());
  }

  size_t size() const { return Out.size(); }

private:
  std::vector<uint8_t> &Out;
};

/// Reads little-endian encoded primitives from a byte span.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size)
      : Data(Data), Size(Size), Pos(0), Failed(false) {}

  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}

  /// True once any read ran past the end of the input.
  bool failed() const { return Failed; }
  bool atEnd() const { return Pos >= Size; }
  size_t position() const { return Pos; }
  size_t remaining() const { return Failed ? 0 : Size - Pos; }

  uint8_t readU8() {
    if (!require(1))
      return 0;
    return Data[Pos++];
  }

  uint16_t readU16() { return static_cast<uint16_t>(readLE(2)); }
  uint32_t readU32() { return static_cast<uint32_t>(readLE(4)); }
  uint64_t readU64() { return readLE(8); }
  int64_t readI64() { return static_cast<int64_t>(readU64()); }

  uint64_t readVarU64() {
    uint64_t V = 0;
    int Shift = 0;
    for (;;) {
      if (!require(1) || Shift > 63)
        return 0;
      uint8_t B = Data[Pos++];
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return V;
      Shift += 7;
    }
  }

  std::string readString() {
    uint64_t Len = readVarU64();
    if (!require(Len))
      return std::string();
    std::string S(reinterpret_cast<const char *>(Data + Pos),
                  static_cast<size_t>(Len));
    Pos += static_cast<size_t>(Len);
    return S;
  }

  std::vector<uint8_t> readBlob() {
    uint64_t Len = readVarU64();
    if (!require(Len))
      return {};
    std::vector<uint8_t> B(Data + Pos, Data + Pos + Len);
    Pos += static_cast<size_t>(Len);
    return B;
  }

  bool readBytes(void *Dst, size_t N) {
    if (!require(N))
      return false;
    std::memcpy(Dst, Data + Pos, N);
    Pos += N;
    return true;
  }

  /// Advances past \p N bytes without reading them.
  bool skip(uint64_t N) {
    if (!require(N))
      return false;
    Pos += static_cast<size_t>(N);
    return true;
  }

private:
  bool require(uint64_t N) {
    if (Failed || N > Size - Pos) {
      Failed = true;
      return false;
    }
    return true;
  }

  uint64_t readLE(int N) {
    if (!require(static_cast<uint64_t>(N)))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < N; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (I * 8);
    Pos += N;
    return V;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos;
  bool Failed;
};

} // namespace traceback

#endif // TRACEBACK_SUPPORT_BYTESTREAM_H
