//===- support/SnapSource.h - Unified snap ingest interface -----*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One pull interface for the stored ways snaps reach a tool: a directory
/// of .tbsnap files (tbtool batch modes) and a TBAR archive (such as a
/// snap store's payload shard). Readers loop over
/// `SnapSource::next`/`nextImage`, so the directory and archive cases
/// differ only in which source is constructed. Live network pushes go
/// straight to CollectorService::push.
///
/// Header-only by design: tb_support gains no link dependencies; a TU
/// that instantiates ArchiveSnapSource links tb_distributed exactly as
/// it did when calling SnapArchive directly.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_SUPPORT_SNAPSOURCE_H
#define TRACEBACK_SUPPORT_SNAPSOURCE_H

#include "distributed/SnapArchive.h"
#include "runtime/Snap.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace traceback {

/// A stream of snaps from somewhere.
class SnapSource {
public:
  virtual ~SnapSource() = default;

  /// Produces the next snap's serialized image. \p Label is provenance —
  /// the file path, or the archive path plus entry index. Returns false
  /// when the source is exhausted.
  virtual bool nextImage(std::vector<uint8_t> &Image, std::string &Label) = 0;

  /// Produces the next snap in object form. The default deserializes
  /// nextImage(), skipping malformed entries.
  virtual bool next(SnapFile &Out, std::string &Label) {
    std::vector<uint8_t> Image;
    while (nextImage(Image, Label))
      if (SnapFile::deserialize(Image, Out))
        return true;
    return false;
  }
};

/// Sorted scan of a directory's .tbsnap files, loaded one at a time —
/// the directory is never materialized as a vector of parsed snaps.
class DirectorySnapSource : public SnapSource {
public:
  explicit DirectorySnapSource(const std::string &Dir,
                               const std::string &Extension = ".tbsnap") {
    std::error_code EC;
    std::filesystem::directory_iterator It(Dir, EC), End;
    for (; !EC && It != End; It.increment(EC)) {
      if (It->is_regular_file(EC) && It->path().extension() == Extension)
        Paths.push_back(It->path().string());
    }
    std::sort(Paths.begin(), Paths.end());
  }

  /// The sorted file list — for consumers that schedule by path (the
  /// parallel batch reconstructor) rather than stream in order.
  const std::vector<std::string> &paths() const { return Paths; }

  bool nextImage(std::vector<uint8_t> &Image, std::string &Label) override {
    while (Pos < Paths.size()) {
      const std::string &P = Paths[Pos++];
      if (readWhole(P, Image)) {
        Label = P;
        return true;
      }
    }
    return false;
  }

private:
  static bool readWhole(const std::string &Path, std::vector<uint8_t> &Out) {
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    if (!F)
      return false;
    std::fseek(F, 0, SEEK_END);
    long Size = std::ftell(F);
    std::fseek(F, 0, SEEK_SET);
    bool Ok = Size >= 0;
    if (Ok) {
      Out.resize(static_cast<size_t>(Size));
      Ok = Size == 0 ||
           std::fread(Out.data(), 1, Out.size(), F) == Out.size();
    }
    std::fclose(F);
    return Ok;
  }

  std::vector<std::string> Paths;
  size_t Pos = 0;
};

/// The intact entries of one TBAR archive. The constructor lists the
/// archive once; each image is then one seek and one bounded read at its
/// recorded frame offset, so a full pass reads the file twice, never once
/// per entry.
class ArchiveSnapSource : public SnapSource {
public:
  explicit ArchiveSnapSource(const std::string &Path) : Path(Path) {
    SnapArchive::list(Path, Entries);
  }

  size_t entryCount() const { return Entries.size(); }

  bool nextImage(std::vector<uint8_t> &Image, std::string &Label) override {
    while (Pos < Entries.size()) {
      size_t I = Pos++;
      if (SnapArchive::readImageAt(Path, Entries[I].Offset,
                                   Entries[I].ImageBytes, Image)) {
        Label = Path + "#" + std::to_string(I);
        return true;
      }
    }
    return false;
  }

private:
  std::string Path;
  std::vector<SnapArchiveEntry> Entries;
  size_t Pos = 0;
};

} // namespace traceback

#endif // TRACEBACK_SUPPORT_SNAPSOURCE_H
