//===- distributed/SnapArchive.h - Append-only snap archive -----*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TBAR, the append-only framing of the snap store's payload shards and
/// its index journal (collector/SnapStore). `tbtool archive` lists and
/// extracts the snaps of a TBAR file.
///
/// File layout: u32 magic "TBAR", u32 archive version, then frames of
/// `u8 0xA5 marker, u32 body size, body bytes`. In a payload shard each
/// body is a complete serialized snap (any supported format version); the
/// index journal uses the same framing for its records. The marker byte
/// lets a reader detect a torn tail from a crashed writer and stop at the
/// last intact frame instead of failing the whole file.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_DISTRIBUTED_SNAPARCHIVE_H
#define TRACEBACK_DISTRIBUTED_SNAPARCHIVE_H

#include "runtime/Snap.h"

#include <cstdint>
#include <string>
#include <vector>

namespace traceback {

/// One archive entry as reported by SnapArchive::list.
struct SnapArchiveEntry {
  uint64_t Offset = 0;     ///< Byte offset of the entry frame (readImageAt).
  uint64_t ImageBytes = 0; ///< Serialized image size.
  uint32_t FormatVersion = 0; ///< Snap format version (0 = unparsable).
  bool HeaderOk = false;   ///< Whether the header-only parse succeeded.
  SnapFile Header;         ///< Header fields when HeaderOk (payloads empty).
};

/// Static readers over the archive file format (they do not lock; writes
/// go through SnapArchiveWriter).
class SnapArchive {
public:
  /// Lists every intact entry, parsing each image's header (never its
  /// payload sections). A torn final entry is ignored. Returns false when
  /// the file is missing or not an archive, or at a corrupt frame (the
  /// entries before it are listed).
  static bool list(const std::string &Path,
                   std::vector<SnapArchiveEntry> &Out);

  /// Copies entry \p Index's raw image into \p Image.
  static bool extract(const std::string &Path, size_t Index,
                      std::vector<uint8_t> &Image);

  /// Random-access read of one image whose frame begins at byte
  /// \p FrameOffset (as returned by SnapArchiveWriter::tell() before the
  /// append). Validates the entry marker and the recorded size before
  /// copying \p ImageBytes bytes — an offset pointing into garbage fails
  /// instead of returning noise. This is the snap store's point-read
  /// path: one seek, one bounded read, never the whole archive.
  static bool readImageAt(const std::string &Path, uint64_t FrameOffset,
                          uint64_t ImageBytes, std::vector<uint8_t> &Out);
};

/// Streams the frames of a TBAR file, one at a time, without reading the
/// whole file. The torn-tail rule: a final frame the file ends inside
/// (or a file that ends inside its own header) is a crashed writer's
/// tail and ends the walk cleanly; a frame that does not start with the
/// marker byte is corruption.
class SnapArchiveReader {
public:
  /// How a walk ended.
  enum class End { Clean, TornTail, Corrupt };

  SnapArchiveReader() = default;
  ~SnapArchiveReader();
  SnapArchiveReader(const SnapArchiveReader &) = delete;
  SnapArchiveReader &operator=(const SnapArchiveReader &) = delete;

  /// Opens \p Path, checks the file header and positions at the frame
  /// beginning at byte \p Start (0 = the first frame). Returns false when
  /// the file cannot be read, its header is not TBAR's, or \p Start lies
  /// past its end; end() is then TornTail for a file that ends inside a
  /// valid header prefix, Corrupt otherwise.
  bool open(const std::string &Path, uint64_t Start = 0);

  /// Steps to the next intact frame and reports its byte offset; its
  /// body is read into \p Body when non-null and skipped otherwise.
  /// Returns false once the walk ends; end() says why.
  bool next(uint64_t &FrameOffset, std::vector<uint8_t> *Body);

  End end() const { return Stop; }
  /// Byte offset just past the last intact frame (or the header) — where
  /// a writer cuts a torn tail off before appending.
  uint64_t intactEnd() const { return Pos; }

private:
  void *F = nullptr; ///< FILE*, kept out of this header.
  uint64_t FileBytes = 0;
  uint64_t Pos = 0;
  End Stop = End::Clean;
};

/// Appends frames to a TBAR file, keeping it open across a batch of
/// appends: one open/close per batch instead of per snap, which matters
/// when a group snap lands hundreds of entries at once.
class SnapArchiveWriter {
public:
  SnapArchiveWriter() = default;
  ~SnapArchiveWriter() { close(); }
  SnapArchiveWriter(const SnapArchiveWriter &) = delete;
  SnapArchiveWriter &operator=(const SnapArchiveWriter &) = delete;

  /// Opens \p Path for appending, writing the file header if the archive
  /// is new. Returns false on I/O failure.
  bool open(const std::string &Path);
  bool isOpen() const { return F != nullptr; }

  /// Appends one entry frame. Returns false on I/O failure (the writer
  /// stays open; the entry may be torn, which readers tolerate).
  bool append(const std::vector<uint8_t> &Image);

  /// Current end-of-archive byte offset (where the next entry frame will
  /// begin) — the value an index stores so readImageAt can seek straight
  /// to the entry later. Returns 0 when the writer is closed.
  uint64_t tell() const;

  /// Pushes buffered appends to the file so a concurrent reader (the
  /// store's point-read path opens its own descriptor) sees them.
  /// Returns false on I/O failure.
  bool flush();

  /// Flushes and closes. Returns false if any write was lost.
  bool close();

private:
  void *F = nullptr; ///< FILE*, kept out of this header.
  bool Ok = true;
};

} // namespace traceback

#endif // TRACEBACK_DISTRIBUTED_SNAPARCHIVE_H
