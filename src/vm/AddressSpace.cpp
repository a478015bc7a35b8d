//===- vm/AddressSpace.cpp - Sparse guest memory --------------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "vm/AddressSpace.h"

using namespace traceback;

void AddressSpace::map(uint64_t Addr, uint64_t Size) {
  if (Size == 0)
    return;
  uint64_t First = Addr / PageSize;
  uint64_t Last = (Addr + Size - 1) / PageSize;
  for (uint64_t P = First; P <= Last; ++P)
    if (!Pages.find(P)) // make_unique<T[]> value-initializes: zero-filled.
      Pages.insertOrAssign(P, std::make_unique<uint8_t[]>(PageSize));
}

bool AddressSpace::isMapped(uint64_t Addr, uint64_t Size) const {
  if (Size == 0)
    return true;
  uint64_t First = Addr / PageSize;
  uint64_t Last = (Addr + Size - 1) / PageSize;
  for (uint64_t P = First; P <= Last; ++P)
    if (!Pages.find(P))
      return false;
  return true;
}

bool AddressSpace::read(uint64_t Addr, void *Dst, uint64_t Size) const {
  uint8_t *Out = static_cast<uint8_t *>(Dst);
  while (Size > 0) {
    const uint8_t *Page = pageFor(Addr);
    if (!Page)
      return false;
    uint64_t InPage = Addr % PageSize;
    uint64_t Chunk = PageSize - InPage;
    if (Chunk > Size)
      Chunk = Size;
    std::memcpy(Out, Page + InPage, Chunk);
    Out += Chunk;
    Addr += Chunk;
    Size -= Chunk;
  }
  return true;
}

bool AddressSpace::readInto(uint64_t Addr, uint64_t Size,
                            std::vector<uint8_t> &Out) const {
  Out.reserve(Out.size() + Size);
  while (Size > 0) {
    const uint8_t *Page = pageFor(Addr);
    if (!Page) {
      Out.insert(Out.end(), Size, 0);
      return false;
    }
    uint64_t InPage = Addr % PageSize;
    uint64_t Chunk = PageSize - InPage;
    if (Chunk > Size)
      Chunk = Size;
    Out.insert(Out.end(), Page + InPage, Page + InPage + Chunk);
    Addr += Chunk;
    Size -= Chunk;
  }
  return true;
}

bool AddressSpace::write(uint64_t Addr, const void *Src, uint64_t Size) {
  const uint8_t *In = static_cast<const uint8_t *>(Src);
  while (Size > 0) {
    uint8_t *Page = pageFor(Addr);
    if (!Page)
      return false;
    uint64_t InPage = Addr % PageSize;
    uint64_t Chunk = PageSize - InPage;
    if (Chunk > Size)
      Chunk = Size;
    std::memcpy(Page + InPage, In, Chunk);
    In += Chunk;
    Addr += Chunk;
    Size -= Chunk;
  }
  return true;
}

bool AddressSpace::fill(uint64_t Addr, uint8_t Value, uint64_t Size) {
  while (Size > 0) {
    uint8_t *Page = pageFor(Addr);
    if (!Page)
      return false;
    uint64_t InPage = Addr % PageSize;
    uint64_t Chunk = PageSize - InPage;
    if (Chunk > Size)
      Chunk = Size;
    std::memset(Page + InPage, Value, Chunk);
    Addr += Chunk;
    Size -= Chunk;
  }
  return true;
}

uint64_t AddressSpace::readN(uint64_t Addr, unsigned N, bool &Ok) const {
  uint8_t Buf[8] = {};
  if (!read(Addr, Buf, N)) {
    Ok = false;
    return 0;
  }
  uint64_t V = 0;
  for (unsigned I = 0; I < N; ++I)
    V |= static_cast<uint64_t>(Buf[I]) << (I * 8);
  return V;
}

bool AddressSpace::writeN(uint64_t Addr, uint64_t V, unsigned N) {
  uint8_t Buf[8];
  for (unsigned I = 0; I < N; ++I)
    Buf[I] = static_cast<uint8_t>(V >> (I * 8));
  return write(Addr, Buf, N);
}

bool AddressSpace::readCString(uint64_t Addr, std::string &Out,
                               uint64_t MaxLen) const {
  Out.clear();
  for (uint64_t I = 0; I < MaxLen; ++I) {
    bool Ok = true;
    uint8_t C = read8(Addr + I, Ok);
    if (!Ok)
      return false;
    if (C == 0)
      return true;
    Out.push_back(static_cast<char>(C));
  }
  return false;
}
