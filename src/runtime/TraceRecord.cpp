//===- runtime/TraceRecord.cpp - Trace record format ----------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "runtime/TraceRecord.h"

#include <cassert>

using namespace traceback;

void traceback::appendExtHeader(std::vector<uint32_t> &Out, ExtType Type,
                                uint16_t Inline, unsigned PayloadU64s) {
  assert(static_cast<uint8_t>(Type) != 0 && "subtype 0 is reserved");
  unsigned Cont = extContinuationWords(PayloadU64s);
  assert(Cont <= 255 && "payload too large for the length field");
  uint32_t Header = (static_cast<uint32_t>(Type) << 24) | (Cont << 16) |
                    Inline;
  assert(isExtHeader(Header) && "header encoding overflowed its fields");
  Out.push_back(Header);
}

std::vector<uint32_t> traceback::encodeExtRecord(const ExtRecord &R) {
  std::vector<uint32_t> Words;
  Words.reserve(1 + extContinuationWords(
                        static_cast<unsigned>(R.Payload.size())));
  appendExtHeader(Words, R.Type, R.Inline,
                  static_cast<unsigned>(R.Payload.size()));
  for (uint64_t V : R.Payload)
    appendExtPayload(Words, V);
  return Words;
}

bool traceback::decodeExtRecord(const uint32_t *Words, size_t Count,
                                size_t &Pos, ExtRecord &Out) {
  assert(Pos < Count && isExtHeader(Words[Pos]) && "not at a header");
  uint32_t Header = Words[Pos];
  uint8_t Type = static_cast<uint8_t>((Header >> 24) & 0x3F);
  unsigned Cont = (Header >> 16) & 0xFF;
  if (Type == 0 || Cont % 3 != 0)
    return false;
  if (Pos + 1 + Cont > Count)
    return false; // Truncated (e.g. torn at the ring seam).
  for (unsigned I = 0; I < Cont; ++I)
    if (!isExtContinuation(Words[Pos + 1 + I]))
      return false; // Overwritten mid-record.

  Out = ExtRecord();
  Out.Type = static_cast<ExtType>(Type);
  Out.Inline = static_cast<uint16_t>(Header & 0xFFFF);
  for (unsigned I = 0; I < Cont; I += 3) {
    uint64_t Lo = Words[Pos + 1 + I] & 0x3FFFFFFF;
    uint64_t Mid = Words[Pos + 2 + I] & 0x3FFFFFFF;
    uint64_t Hi = Words[Pos + 3 + I] & 0xF;
    Out.Payload.push_back(Lo | (Mid << 30) | (Hi << 60));
  }
  Pos += 1 + Cont;
  return true;
}
