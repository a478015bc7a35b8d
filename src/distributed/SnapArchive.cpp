//===- distributed/SnapArchive.cpp - Append-only snap archive -------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "distributed/SnapArchive.h"

#include <cstdio>

using namespace traceback;

static const uint32_t ArchiveMagic = 0x52414254; // "TBAR"
static const uint32_t ArchiveVersion = 1;
static const uint8_t EntryMarker = 0xA5;

static void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (I * 8)));
}

static uint32_t getU32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

bool SnapArchiveWriter::open(const std::string &Path) {
  close();
  std::FILE *File = std::fopen(Path.c_str(), "ab");
  if (!File)
    return false;
  F = File;
  Ok = true;
  // "ab" positions at end-of-file; a fresh archive starts empty.
  if (std::ftell(File) == 0) {
    std::vector<uint8_t> Header;
    putU32(Header, ArchiveMagic);
    putU32(Header, ArchiveVersion);
    Ok = std::fwrite(Header.data(), 1, Header.size(), File) ==
         Header.size();
  }
  return Ok;
}

bool SnapArchiveWriter::append(const std::vector<uint8_t> &Image) {
  if (!F)
    return false;
  std::FILE *File = static_cast<std::FILE *>(F);
  uint8_t Head[5];
  Head[0] = EntryMarker;
  for (int I = 0; I < 4; ++I)
    Head[1 + I] = static_cast<uint8_t>(Image.size() >> (I * 8));
  bool This = std::fwrite(Head, 1, 5, File) == 5 &&
              (Image.empty() ||
               std::fwrite(Image.data(), 1, Image.size(), File) ==
                   Image.size());
  Ok &= This;
  return This;
}

uint64_t SnapArchiveWriter::tell() const {
  if (!F)
    return 0;
  long At = std::ftell(static_cast<std::FILE *>(F));
  return At < 0 ? 0 : static_cast<uint64_t>(At);
}

bool SnapArchiveWriter::flush() {
  if (!F)
    return false;
  bool This = std::fflush(static_cast<std::FILE *>(F)) == 0;
  Ok &= This;
  return This;
}

bool SnapArchiveWriter::close() {
  if (!F)
    return Ok;
  bool Closed = std::fclose(static_cast<std::FILE *>(F)) == 0;
  F = nullptr;
  Ok &= Closed;
  return Ok;
}

bool SnapArchive::append(const std::string &Path,
                         const std::vector<uint8_t> &Image) {
  SnapArchiveWriter W;
  return W.open(Path) && W.append(Image) && W.close();
}

bool SnapArchive::appendSnap(const std::string &Path, const SnapFile &S) {
  std::vector<uint8_t> Image;
  S.serializeTo(Image);
  return append(Path, Image);
}

static bool readAll(const std::string &Path, std::vector<uint8_t> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  if (Size < 0) {
    std::fclose(F);
    return false;
  }
  Out.resize(static_cast<size_t>(Size));
  bool Ok = Size == 0 ||
            std::fread(Out.data(), 1, Out.size(), F) == Out.size();
  std::fclose(F);
  return Ok;
}

/// Walks the entry frames, calling \p Fn(frame offset, image size) for
/// each intact entry; the image starts 5 bytes past its frame. A torn
/// final frame (crashed daemon) ends the walk cleanly.
template <typename FnT>
static bool walkEntries(const std::vector<uint8_t> &Bytes, FnT Fn) {
  if (Bytes.size() < 8 || getU32(Bytes.data()) != ArchiveMagic ||
      getU32(Bytes.data() + 4) != ArchiveVersion)
    return false;
  size_t Pos = 8;
  while (Pos < Bytes.size()) {
    if (Bytes[Pos] != EntryMarker)
      return false; // Mid-stream garbage is corruption, not a torn tail.
    if (Bytes.size() - Pos < 5)
      break;
    uint64_t Size = getU32(Bytes.data() + Pos + 1);
    if (Bytes.size() - Pos - 5 < Size)
      break; // Torn tail: the last append never completed.
    Fn(Pos, Size);
    Pos += 5 + static_cast<size_t>(Size);
  }
  return true;
}

bool SnapArchive::list(const std::string &Path,
                       std::vector<SnapArchiveEntry> &Out) {
  Out.clear();
  std::vector<uint8_t> Bytes;
  if (!readAll(Path, Bytes))
    return false;
  return walkEntries(Bytes, [&](size_t Frame, uint64_t Size) {
    SnapArchiveEntry E;
    E.Offset = Frame;
    E.ImageBytes = Size;
    std::vector<uint8_t> Image(Bytes.begin() + Frame + 5,
                               Bytes.begin() + Frame + 5 + Size);
    std::vector<SnapSectionStat> Stats;
    if (!snapSectionStats(Image, E.FormatVersion, Stats))
      E.FormatVersion = 0;
    E.HeaderOk = SnapFile::deserializeHeader(Image, E.Header);
    // v2/v3 images fall back to a full parse inside deserializeHeader;
    // keep the listing lightweight either way.
    E.Header.Buffers.clear();
    E.Header.Memory.clear();
    E.Header.Telemetry.clear();
    Out.push_back(std::move(E));
  });
}

bool SnapArchive::extract(const std::string &Path, size_t Index,
                          std::vector<uint8_t> &Image) {
  Image.clear();
  std::vector<uint8_t> Bytes;
  if (!readAll(Path, Bytes))
    return false;
  bool Found = false;
  size_t I = 0;
  bool Ok = walkEntries(Bytes, [&](size_t Frame, uint64_t Size) {
    if (I++ == Index) {
      Image.assign(Bytes.begin() + Frame + 5,
                   Bytes.begin() + Frame + 5 + Size);
      Found = true;
    }
  });
  return Ok && Found;
}

bool SnapArchive::readImageAt(const std::string &Path, uint64_t FrameOffset,
                              uint64_t ImageBytes, std::vector<uint8_t> &Out) {
  Out.clear();
  if (ImageBytes > (1ull << 32))
    return false; // No entry frame can record more than a u32 size.
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  uint8_t Head[5];
  bool Ok = std::fseek(F, static_cast<long>(FrameOffset), SEEK_SET) == 0 &&
            std::fread(Head, 1, 5, F) == 5 && Head[0] == EntryMarker &&
            getU32(Head + 1) == ImageBytes;
  if (Ok) {
    Out.resize(static_cast<size_t>(ImageBytes));
    Ok = ImageBytes == 0 ||
         std::fread(Out.data(), 1, Out.size(), F) == Out.size();
  }
  std::fclose(F);
  if (!Ok)
    Out.clear();
  return Ok;
}
