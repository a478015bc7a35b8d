//===- vm/AddressSpace.cpp - Sparse guest memory --------------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "vm/AddressSpace.h"

using namespace traceback;

alignas(64) const uint8_t AddressSpace::SharedZeroPage[PageSize] = {};

uint8_t *AddressSpace::allocatePage() {
  // Storage comes ChunkPages at a time. Pages allocated one at a time,
  // between a run's other allocations, changed how the heap was reused:
  // the buffers of a snap taken later landed on fresh memory, the
  // recorded runs of the record gate (bench_replay) took ~2,000 page
  // faults where allocating at map time took ~600, and the gate read over
  // its bound in 4 of 10 runs. With 32 KiB chunks it passed 10 of 10.
  if (ChunkUsed == ChunkPages) {
    Owned.push_back(
        std::make_unique_for_overwrite<uint8_t[]>(ChunkPages * PageSize));
    ChunkUsed = 0;
  }
  uint8_t *Page = Owned.back().get() + ChunkUsed++ * PageSize;
  std::memset(Page, 0, PageSize); // the zeros the shared page showed
  return Page;
}

void AddressSpace::map(uint64_t Addr, uint64_t Size) {
  if (Size == 0)
    return;
  uint64_t First = Addr / PageSize;
  uint64_t Last = (Addr + Size - 1) / PageSize;
  for (uint64_t P = First; P <= Last; ++P)
    if (!Pages.find(P))
      Pages.insertOrAssign(P, SharedZeroPage);
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
                            std::vector<uint8_t> &Out,
                            std::vector<ZeroRange> *Zeros) const {
  const size_t Base = Out.size();
  Out.reserve(Base + Size);
  if (Zeros)
    Zeros->clear();
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
    if (Page == SharedZeroPage) {
      size_t At = Out.size() - Base;
      Out.insert(Out.end(), Chunk, 0);
      if (Zeros && !Zeros->empty() && Zeros->back().End == At)
        Zeros->back().End += Chunk; // the previous page was shared too
      else if (Zeros)
        Zeros->push_back({At, At + Chunk});
    } else {
      Out.insert(Out.end(), Page + InPage, Page + InPage + Chunk);
    }
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
    const uint8_t **Page = Pages.find(Addr / PageSize);
    if (!Page)
      return false;
    uint64_t InPage = Addr % PageSize;
    uint64_t Chunk = PageSize - InPage;
    if (Chunk > Size)
      Chunk = Size;
    // Zeros on the shared page are already there.
    if (Value != 0 || *Page != SharedZeroPage)
      std::memset(writable(*Page) + InPage, Value, Chunk);
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
