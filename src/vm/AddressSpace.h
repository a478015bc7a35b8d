//===- vm/AddressSpace.h - Sparse guest memory ------------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sparse, page-granular guest address space. Accesses to unmapped pages
/// fail (the VM turns that into a SEGV-style guest fault). The TraceBack
/// runtime's trace buffers live in this memory, mirroring the paper's
/// memory-mapped files: after a process dies — even from `kill -9` — the
/// service process can still copy the buffer bytes out (section 3.1).
///
/// A mapped page starts as one shared, read-only zero page and gets its
/// own storage on the first store to it (copy-on-write), as an OS maps
/// fresh anonymous memory. Mapping is therefore cheap, a zero fill leaves
/// a never-written page shared, and readInto appends a shared page's
/// zeros without reading them — reporting where they went, so a snap's
/// encoder can step over them (support/SnapCodec.h). Trace rings are
/// mostly space nothing has written yet, so a snap pays for what the
/// process wrote, not for the size of its rings.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_VM_ADDRESSSPACE_H
#define TRACEBACK_VM_ADDRESSSPACE_H

#include "support/FlatMap.h"
#include "support/SnapCodec.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace traceback {

/// Sparse paged memory.
class AddressSpace {
public:
  static constexpr uint64_t PageSize = 4096;

  /// Maps all pages covering [Addr, Addr+Size) that are not mapped yet,
  /// each as the shared zero page.
  void map(uint64_t Addr, uint64_t Size);

  /// True if every byte of [Addr, Addr+Size) is mapped.
  bool isMapped(uint64_t Addr, uint64_t Size) const;

  /// Bulk copy out; false (partial copy possible) on unmapped access.
  bool read(uint64_t Addr, void *Dst, uint64_t Size) const;

  /// Appends exactly \p Size bytes of [Addr, Addr+Size) to \p Out. Unlike
  /// resize-then-read, each output byte is touched once (no zero-fill
  /// pass), which matters when snapping large trace buffers; a shared
  /// page's bytes are appended as zeros without being read. When \p Zeros
  /// is given, it is set to the bytes that came from shared pages: sorted,
  /// merged ranges of offsets from the first byte this call appended. On
  /// an unmapped access the remainder is appended as zeros (not reported)
  /// and false is returned.
  bool readInto(uint64_t Addr, uint64_t Size, std::vector<uint8_t> &Out,
                std::vector<ZeroRange> *Zeros = nullptr) const;

  /// Bulk copy in; false on unmapped access.
  bool write(uint64_t Addr, const void *Src, uint64_t Size);

  /// Sets every byte of [Addr, Addr+Size) to \p Value, a page at a time;
  /// false (pages before the hole filled) on unmapped access. Filling a
  /// shared page with zeros leaves it shared.
  bool fill(uint64_t Addr, uint8_t Value, uint64_t Size);

  // Fixed-width helpers; Ok is cleared on fault (never set to true). An
  // access inside one page touches that page directly; one that straddles
  // a page boundary takes the bulk path, so running into an unmapped page
  // faults (and a store leaves the mapped part written, with storage)
  // exactly as a byte-wise copy would.
  uint64_t read64(uint64_t Addr, bool &Ok) const {
    return load<uint64_t>(Addr, Ok);
  }
  uint32_t read32(uint64_t Addr, bool &Ok) const {
    return load<uint32_t>(Addr, Ok);
  }
  uint8_t read8(uint64_t Addr, bool &Ok) const {
    return load<uint8_t>(Addr, Ok);
  }
  bool write64(uint64_t Addr, uint64_t V) { return store<uint64_t>(Addr, V); }
  bool write32(uint64_t Addr, uint32_t V) { return store<uint32_t>(Addr, V); }
  bool write8(uint64_t Addr, uint8_t V) { return store<uint8_t>(Addr, V); }

  /// Reads a NUL-terminated string (bounded); false on fault or overlong.
  bool readCString(uint64_t Addr, std::string &Out,
                   uint64_t MaxLen = 65536) const;

private:
  /// Guest memory is little endian; so is every host this builds for, but
  /// say so rather than assume it.
  static constexpr bool HostIsLittleEndian =
      std::endian::native == std::endian::little;

  template <typename T> T load(uint64_t Addr, bool &Ok) const {
    uint64_t InPage = Addr % PageSize;
    if (!HostIsLittleEndian || InPage > PageSize - sizeof(T))
      return static_cast<T>(readN(Addr, sizeof(T), Ok));
    const uint8_t *Page = pageFor(Addr);
    if (!Page) {
      Ok = false;
      return 0;
    }
    T V;
    std::memcpy(&V, Page + InPage, sizeof V);
    return V;
  }

  template <typename T> bool store(uint64_t Addr, T V) {
    uint64_t InPage = Addr % PageSize;
    if (!HostIsLittleEndian || InPage > PageSize - sizeof(T))
      return writeN(Addr, V, sizeof(T));
    uint8_t *Page = pageFor(Addr);
    if (!Page)
      return false;
    std::memcpy(Page + InPage, &V, sizeof V);
    return true;
  }

  uint64_t readN(uint64_t Addr, unsigned N, bool &Ok) const;
  bool writeN(uint64_t Addr, uint64_t V, unsigned N);

  /// Every mapped page nothing has stored to. Read-only: const data, so a
  /// stray write through it would fault rather than leak into every
  /// address space.
  alignas(64) static const uint8_t SharedZeroPage[PageSize];

  /// The page holding \p Addr for reading (the shared zero page for a
  /// never-written page), or nullptr when unmapped.
  const uint8_t *pageFor(uint64_t Addr) const {
    const uint8_t *const *Page = Pages.find(Addr / PageSize);
    return Page ? *Page : nullptr;
  }
  /// The page holding \p Addr for writing, or nullptr when unmapped. Gives
  /// a shared page its own storage first, so no caller ever holds a
  /// writable pointer to the shared zero page. Stores only.
  uint8_t *pageFor(uint64_t Addr) {
    const uint8_t **Page = Pages.find(Addr / PageSize);
    return Page ? writable(*Page) : nullptr;
  }
  /// The page table entry \p Slot made writable: a shared page gets a
  /// fresh zero-filled page of its own first.
  uint8_t *writable(const uint8_t *&Slot) {
    if (Slot == SharedZeroPage)
      Slot = allocatePage();
    // Every page other than the shared one is a non-const allocation.
    return const_cast<uint8_t *>(Slot);
  }
  uint8_t *allocatePage();

  /// Pages per allocation of page storage.
  static constexpr unsigned ChunkPages = 8;

  /// Page number -> page: SharedZeroPage or a page of Owned. Nothing
  /// unmaps, so the map never erases.
  FlatMap64<const uint8_t *> Pages;
  /// Storage of the pages something has stored to, ChunkPages at a time.
  std::vector<std::unique_ptr<uint8_t[]>> Owned;
  /// Pages of Owned.back() handed out so far.
  unsigned ChunkUsed = ChunkPages;
};

} // namespace traceback

#endif // TRACEBACK_VM_ADDRESSSPACE_H
