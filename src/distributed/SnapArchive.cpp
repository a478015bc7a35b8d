//===- distributed/SnapArchive.cpp - Append-only snap archive -------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "distributed/SnapArchive.h"

#include <cstdio>
#include <cstring>

using namespace traceback;

static const uint32_t ArchiveMagic = 0x52414254; // "TBAR"
static const uint32_t ArchiveVersion = 1;
static const uint8_t EntryMarker = 0xA5;

static void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (I * 8)));
}

/// The 8-byte file header every TBAR file starts with.
static std::vector<uint8_t> archiveHeader() {
  std::vector<uint8_t> Header;
  putU32(Header, ArchiveMagic);
  putU32(Header, ArchiveVersion);
  return Header;
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
    std::vector<uint8_t> Header = archiveHeader();
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

SnapArchiveReader::~SnapArchiveReader() {
  if (F)
    std::fclose(static_cast<std::FILE *>(F));
}

bool SnapArchiveReader::open(const std::string &Path, uint64_t Start) {
  if (F)
    std::fclose(static_cast<std::FILE *>(F));
  F = nullptr;
  FileBytes = Pos = 0;
  Stop = End::Corrupt;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  F = File;
  long Size = std::fseek(File, 0, SEEK_END) == 0 ? std::ftell(File) : -1;
  if (Size < 0 || std::fseek(File, 0, SEEK_SET) != 0)
    return false;
  FileBytes = static_cast<uint64_t>(Size);
  std::vector<uint8_t> Expected = archiveHeader();
  uint8_t Header[8];
  size_t Want = FileBytes < sizeof(Header) ? static_cast<size_t>(FileBytes)
                                           : sizeof(Header);
  if (std::fread(Header, 1, Want, File) != Want ||
      std::memcmp(Header, Expected.data(), Want) != 0)
    return false;
  if (Want < sizeof(Header)) {
    Stop = End::TornTail; // The header's write never completed.
    return false;
  }
  Pos = Start < sizeof(Header) ? sizeof(Header) : Start;
  if (Pos > FileBytes ||
      std::fseek(File, static_cast<long>(Pos), SEEK_SET) != 0)
    return false;
  Stop = End::Clean;
  return true;
}

bool SnapArchiveReader::next(uint64_t &FrameOffset,
                             std::vector<uint8_t> *Body) {
  if (!F || Stop != End::Clean || Pos == FileBytes)
    return false;
  std::FILE *File = static_cast<std::FILE *>(F);
  uint8_t Head[5];
  size_t Want = FileBytes - Pos < 5 ? static_cast<size_t>(FileBytes - Pos) : 5;
  if (std::fread(Head, 1, Want, File) != Want || Head[0] != EntryMarker) {
    Stop = End::Corrupt; // Mid-stream garbage is corruption, not a tail.
    return false;
  }
  uint64_t Size = Want == 5 ? getU32(Head + 1) : 0;
  if (Want < 5 || FileBytes - Pos - 5 < Size) {
    Stop = End::TornTail; // The last append never completed.
    return false;
  }
  bool Ok = true;
  if (Body) {
    Body->resize(static_cast<size_t>(Size));
    Ok = Size == 0 || std::fread(Body->data(), 1, Body->size(), File) ==
                          Body->size();
  } else {
    Ok = std::fseek(File, static_cast<long>(Size), SEEK_CUR) == 0;
  }
  if (!Ok) {
    Stop = End::TornTail; // The file shrank under the walk.
    return false;
  }
  FrameOffset = Pos;
  Pos += 5 + Size;
  return true;
}

bool SnapArchive::list(const std::string &Path,
                       std::vector<SnapArchiveEntry> &Out) {
  Out.clear();
  SnapArchiveReader R;
  if (!R.open(Path))
    return false;
  uint64_t Frame = 0;
  std::vector<uint8_t> Image;
  while (R.next(Frame, &Image)) {
    SnapArchiveEntry E;
    E.Offset = Frame;
    E.ImageBytes = Image.size();
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
  }
  return R.end() != SnapArchiveReader::End::Corrupt;
}

bool SnapArchive::extract(const std::string &Path, size_t Index,
                          std::vector<uint8_t> &Image) {
  Image.clear();
  SnapArchiveReader R;
  if (!R.open(Path))
    return false;
  uint64_t Frame = 0;
  for (size_t I = 0; R.next(Frame, I == Index ? &Image : nullptr); ++I)
    if (I == Index)
      return true;
  return false;
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
