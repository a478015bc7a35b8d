//===- collector/PagedIndex.cpp - Snap index journal + checkpoint ---------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "collector/PagedIndex.h"

#include "distributed/SnapArchive.h"
#include "support/ByteStream.h"
#include "support/Hash.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <map>

using namespace traceback;

//===----------------------------------------------------------------------===//
// Entry codec and journal records
//===----------------------------------------------------------------------===//

void traceback::encodeStoreEntry(const SnapStoreEntry &E,
                                 std::vector<uint8_t> &Out) {
  ByteWriter W(Out);
  W.writeVarU64(E.Id);
  W.writeVarU64(E.Shard);
  W.writeVarU64(E.Offset);
  W.writeVarU64(E.ImageBytes);
  W.writeU64(E.PayloadHash);
  W.writeU64(E.Fingerprint);
  W.writeString(E.Kind);
  W.writeString(E.MachineName);
  W.writeVarU64(E.MachineId);
  W.writeString(E.ProcessName);
  W.writeVarU64(E.Pid);
  W.writeVarU64(E.Timestamp);
  W.writeVarU64(E.Reason);
  W.writeVarU64(E.RefCount);
  W.writeU8(E.Dead ? 1 : 0);
  W.writeVarU64(E.ModuleNames.size());
  for (size_t I = 0; I < E.ModuleNames.size(); ++I) {
    W.writeString(E.ModuleNames[I]);
    W.writeU64(E.ModuleKeys[I]);
    W.writeU8(E.ModuleInstrumented[I] ? 1 : 0);
  }
  W.writeVarU64(E.Markers.size());
  for (const std::string &M : E.Markers)
    W.writeString(M);
}

bool traceback::decodeStoreEntry(const uint8_t *Data, size_t Len,
                                 SnapStoreEntry &E) {
  ByteReader R(Data, Len);
  E.Id = R.readVarU64();
  uint64_t Shard = R.readVarU64();
  E.Offset = R.readVarU64();
  E.ImageBytes = R.readVarU64();
  E.PayloadHash = R.readU64();
  E.Fingerprint = R.readU64();
  E.Kind = R.readString();
  E.MachineName = R.readString();
  E.MachineId = R.readVarU64();
  E.ProcessName = R.readString();
  E.Pid = R.readVarU64();
  E.Timestamp = R.readVarU64();
  uint64_t Reason = R.readVarU64();
  E.RefCount = R.readVarU64();
  uint8_t Dead = R.readU8();
  // A module takes at least 10 bytes and a marker 1, so a count the rest
  // of the input cannot hold is rejected before anything is allocated.
  uint64_t NMods = R.readVarU64();
  if (R.failed() || Shard > UINT32_MAX || Reason > UINT16_MAX ||
      E.RefCount == 0 || Dead > 1 || NMods > R.remaining() / 10)
    return false;
  E.Shard = static_cast<uint32_t>(Shard);
  E.Reason = static_cast<uint16_t>(Reason);
  E.Dead = Dead != 0;
  E.ModuleNames.resize(NMods);
  E.ModuleKeys.resize(NMods);
  E.ModuleInstrumented.resize(NMods);
  for (uint64_t I = 0; I < NMods; ++I) {
    E.ModuleNames[I] = R.readString();
    E.ModuleKeys[I] = R.readU64();
    E.ModuleInstrumented[I] = R.readU8();
    if (E.ModuleInstrumented[I] > 1)
      return false;
  }
  uint64_t NMarks = R.readVarU64();
  if (R.failed() || NMarks > R.remaining())
    return false;
  E.Markers.resize(NMarks);
  for (std::string &M : E.Markers)
    M = R.readString();
  return !R.failed() && R.atEnd();
}

std::vector<uint8_t> traceback::journalAddRecord(const SnapStoreEntry &E) {
  std::vector<uint8_t> Body{static_cast<uint8_t>(JournalRecord::Add)};
  encodeStoreEntry(E, Body);
  return Body;
}

std::vector<uint8_t> traceback::journalIdRecord(JournalRecord Kind,
                                                uint64_t Id) {
  std::vector<uint8_t> Body{static_cast<uint8_t>(Kind)};
  ByteWriter(Body).writeVarU64(Id);
  return Body;
}

bool traceback::decodeJournalRecord(const std::vector<uint8_t> &Body,
                                    JournalRecord &Kind, uint64_t &Id,
                                    SnapStoreEntry &E) {
  if (Body.empty())
    return false;
  Kind = static_cast<JournalRecord>(Body[0]);
  if (Kind == JournalRecord::Add) {
    if (!decodeStoreEntry(Body.data() + 1, Body.size() - 1, E))
      return false;
    Id = E.Id;
    return true;
  }
  if (Kind != JournalRecord::Ref && Kind != JournalRecord::Evict)
    return false;
  ByteReader R(Body.data() + 1, Body.size() - 1);
  Id = R.readVarU64();
  return !R.failed() && R.atEnd();
}

bool traceback::writeIndexJournal(
    const std::string &Path,
    const std::function<bool(SnapStoreEntry &)> &NextEntry,
    std::string &Error) {
  std::string Tmp = Path + ".tmp";
  std::remove(Tmp.c_str());
  SnapArchiveWriter W;
  bool Ok = W.open(Tmp);
  SnapStoreEntry E;
  while (Ok) {
    E = SnapStoreEntry();
    if (!NextEntry(E))
      break;
    Ok = W.append(journalAddRecord(E));
  }
  Ok = W.close() && Ok;
  if (Ok)
    Ok = std::rename(Tmp.c_str(), Path.c_str()) == 0;
  if (!Ok) {
    std::remove(Tmp.c_str());
    Error = "index journal write failed: " + Path;
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Checkpoint layout
//===----------------------------------------------------------------------===//

namespace {

/// Data-page checksum: a 4-lane multiply-xor hash over the page's 64-bit
/// words. Open validates every data page of a potentially multi-hundred-
/// megabyte checkpoint in one streaming pass, so the page hash runs
/// word-wise with four independent dependency chains instead of FNV's
/// serial byte chain — same fixed-page granularity, ~an order of
/// magnitude faster. FNV-1a stays the hash for the small inputs (header,
/// page-sum table, journal windows) where simplicity wins. The lane step
/// rotates before it multiplies, as XXH64's round does: without it a
/// difference in bit 63 stays in bit 63, and two bit-63 flips in one lane
/// (32 bytes apart) cancel.
uint64_t pageSum64(const uint8_t *P) {
  constexpr uint64_t M = 0x9ddfea08eb382d69ull;
  uint64_t H0 = 0x9e3779b97f4a7c15ull, H1 = 0xc2b2ae3d27d4eb4full,
           H2 = 0x165667b19e3779f9ull, H3 = 0x27d4eb2f165667c5ull;
  for (size_t I = 0; I < TbixPageSize; I += 32) {
    uint64_t W0, W1, W2, W3;
    std::memcpy(&W0, P + I, 8);
    std::memcpy(&W1, P + I + 8, 8);
    std::memcpy(&W2, P + I + 16, 8);
    std::memcpy(&W3, P + I + 24, 8);
    H0 = std::rotl(H0 ^ W0, 31) * M;
    H1 = std::rotl(H1 ^ W1, 31) * M;
    H2 = std::rotl(H2 ^ W2, 31) * M;
    H3 = std::rotl(H3 ^ W3, 31) * M;
  }
  uint64_t H = (H0 ^ (H1 >> 29)) * M + H1;
  H = (H ^ (H2 >> 29)) * M + H2;
  H = (H ^ (H3 >> 29)) * M + H3;
  return H ^ (H >> 32);
}

constexpr uint32_t TbixMagic = 0x32584254; // "TBX2"
/// Version 4 added pageSum64's rotate. An older checkpoint fails open as
/// "unsupported version" and the store replays its journal instead.
constexpr uint32_t TbixVersion = 4;

/// Header field order (see serializeHeader). The header occupies page 0;
/// everything after UsedBytes is zero padding.
struct HeaderFields {
  uint64_t FileBytes = 0;
  uint64_t EntryCount = 0;
  uint64_t NextId = 1;
  uint64_t LiveCount = 0;
  uint64_t LiveBytes = 0;
  uint64_t LiveRefs = 0;
  uint64_t JournalBytes = 0;
  uint64_t JournalHeadHash = 0;
  uint64_t JournalTailHash = 0;
  // Regions: entry blob, entry dir, 4x key table, 4x postings, time,
  // dedup, page-sum table — (offset, length) pairs.
  uint64_t Regions[13][2] = {};
  uint64_t TableHash = 0; ///< FNV of the page-sum table bytes.
};

constexpr size_t RegEntryBlob = 0, RegEntryDir = 1, RegKeyFirst = 2,
                 RegPostFirst = 6, RegTime = 10, RegDedup = 11,
                 RegPageSums = 12;

std::vector<uint8_t> serializeHeader(const HeaderFields &H) {
  std::vector<uint8_t> B;
  B.reserve(TbixPageSize);
  ByteWriter W(B);
  W.writeU32(TbixMagic);
  W.writeU32(TbixVersion);
  W.writeU32(static_cast<uint32_t>(TbixPageSize));
  W.writeU32(0); // reserved
  for (uint64_t V : {H.FileBytes, H.EntryCount, H.NextId, H.LiveCount,
                     H.LiveBytes, H.LiveRefs, H.JournalBytes,
                     H.JournalHeadHash, H.JournalTailHash})
    W.writeU64(V);
  for (const auto &R : H.Regions) {
    W.writeU64(R[0]);
    W.writeU64(R[1]);
  }
  W.writeU64(H.TableHash);
  // The header's self-hash is its last field.
  W.writeU64(fnv1a64(B.data(), B.size(), Fnv1a64ShortBasis));
  B.resize(TbixPageSize, 0);
  return B;
}

bool deserializeHeader(const uint8_t *P, HeaderFields &H, std::string &Why) {
  ByteReader R(P, TbixPageSize);
  if (R.readU32() != TbixMagic) {
    Why = "bad magic";
    return false;
  }
  if (R.readU32() != TbixVersion) {
    Why = "unsupported version";
    return false;
  }
  if (R.readU32() != TbixPageSize) {
    Why = "page size mismatch";
    return false;
  }
  R.readU32(); // reserved
  for (uint64_t *V : {&H.FileBytes, &H.EntryCount, &H.NextId, &H.LiveCount,
                      &H.LiveBytes, &H.LiveRefs, &H.JournalBytes,
                      &H.JournalHeadHash, &H.JournalTailHash})
    *V = R.readU64();
  for (auto &Reg : H.Regions) {
    Reg[0] = R.readU64();
    Reg[1] = R.readU64();
  }
  H.TableHash = R.readU64();
  size_t Hashed = R.position();
  if (fnv1a64(P, Hashed, Fnv1a64ShortBasis) != R.readU64()) {
    Why = "header checksum mismatch";
    return false;
  }
  return true;
}

/// Streams bytes to a file while hashing each TbixPageSize-aligned page
/// as it completes. Page 0 (the header) is written as zeros first and
/// patched at the end; its hash lives inside the header itself, not in
/// the table.
class PageStreamWriter {
public:
  explicit PageStreamWriter(std::FILE *F) : F(F) {}

  bool write(const void *Data, size_t Len) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    while (Len) {
      size_t Room = TbixPageSize - Fill;
      size_t N = Len < Room ? Len : Room;
      std::memcpy(Buf + Fill, P, N);
      Fill += N;
      P += N;
      Len -= N;
      Written += N;
      if (Fill == TbixPageSize && !flushPage())
        return false;
    }
    return true;
  }

  /// Pads the current page with zeros up to the page boundary.
  bool padToPage() {
    if (Fill == 0)
      return true;
    static const uint8_t Zeros[256] = {};
    while (Fill != 0) {
      size_t N = TbixPageSize - Fill;
      if (N > sizeof(Zeros))
        N = sizeof(Zeros);
      if (!write(Zeros, N))
        return false;
    }
    return true;
  }

  uint64_t offset() const { return Written; }
  const std::vector<uint64_t> &pageSums() const { return Sums; }

private:
  bool flushPage() {
    // Page 0 is the header placeholder — not in the table.
    if (PageIdx > 0)
      Sums.push_back(pageSum64(Buf));
    ++PageIdx;
    Fill = 0;
    return std::fwrite(Buf, 1, TbixPageSize, F) == TbixPageSize;
  }

  std::FILE *F;
  uint8_t Buf[TbixPageSize];
  size_t Fill = 0;
  uint64_t PageIdx = 0;
  uint64_t Written = 0;
  std::vector<uint64_t> Sums;
};

} // namespace

//===----------------------------------------------------------------------===//
// Checkpoint writer
//===----------------------------------------------------------------------===//

bool traceback::writePagedIndex(
    const std::string &Path, const PagedIndexHeaderInfo &HI,
    const std::function<bool(SnapStoreEntry &)> &NextEntry,
    std::string &Error) {
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    Error = "cannot create checkpoint: " + Tmp;
    return false;
  }

  HeaderFields H;
  H.NextId = HI.NextId;
  H.LiveCount = HI.LiveCount;
  H.LiveBytes = HI.LiveBytes;
  H.LiveRefs = HI.LiveRefs;
  H.JournalBytes = HI.JournalBytes;
  H.JournalHeadHash = HI.JournalHeadHash;
  H.JournalTailHash = HI.JournalTailHash;

  PageStreamWriter W(F);
  bool Ok = true;
  // Placeholder header page; patched after everything else is laid out.
  {
    std::vector<uint8_t> Zero(TbixPageSize, 0);
    Ok = W.write(Zero.data(), Zero.size());
  }

  // --- Entry blob (streamed) + accumulated side tables -------------------
  struct DirRow {
    uint64_t Id, Off;
    uint32_t Len;
  };
  std::vector<DirRow> Dir;
  // std::map keys the tables deterministically (sorted), which makes the
  // checkpoint byte-reproducible for equal store state.
  std::map<uint64_t, std::vector<uint64_t>> Post[4];
  std::vector<std::pair<uint64_t, uint64_t>> Time;
  std::vector<TbixDedupRow> Dedup;

  H.Regions[RegEntryBlob][0] = W.offset();
  {
    SnapStoreEntry E;
    std::vector<uint8_t> Rec;
    while (Ok) {
      E = SnapStoreEntry();
      if (!NextEntry(E))
        break;
      Rec.clear();
      encodeStoreEntry(E, Rec);
      Dir.push_back({E.Id, W.offset() - H.Regions[RegEntryBlob][0],
                     static_cast<uint32_t>(Rec.size())});
      forEachPostingKey(E, [&](TbixDim D, uint64_t Key) {
        Post[static_cast<unsigned>(D)][Key].push_back(E.Id);
      });
      Time.push_back({E.Timestamp, E.Id});
      if (!E.Dead)
        Dedup.push_back({E.Fingerprint, E.PayloadHash, E.Id});
      Ok = W.write(Rec.data(), Rec.size());
    }
  }
  H.Regions[RegEntryBlob][1] = W.offset() - H.Regions[RegEntryBlob][0];
  H.EntryCount = Dir.size();

  // --- Entry directory ---------------------------------------------------
  H.Regions[RegEntryDir][0] = W.offset();
  for (const DirRow &R : Dir) {
    uint8_t Row[20];
    std::memcpy(Row, &R.Id, 8);
    std::memcpy(Row + 8, &R.Off, 8);
    std::memcpy(Row + 16, &R.Len, 4);
    if (!(Ok = W.write(Row, sizeof(Row))))
      break;
  }
  H.Regions[RegEntryDir][1] = W.offset() - H.Regions[RegEntryDir][0];

  // --- Key tables + postings per dimension -------------------------------
  for (unsigned D = 0; D < 4 && Ok; ++D) {
    H.Regions[RegKeyFirst + D][0] = W.offset();
    uint64_t Cum = 0;
    for (const auto &KV : Post[D]) {
      uint8_t Row[24];
      uint64_t Count = KV.second.size();
      std::memcpy(Row, &KV.first, 8);
      std::memcpy(Row + 8, &Cum, 8); // id-offset within the posting region
      std::memcpy(Row + 16, &Count, 8);
      Cum += Count;
      if (!(Ok = W.write(Row, sizeof(Row))))
        break;
    }
    H.Regions[RegKeyFirst + D][1] = W.offset() - H.Regions[RegKeyFirst + D][0];
    H.Regions[RegPostFirst + D][0] = W.offset();
    for (const auto &KV : Post[D]) {
      if (!Ok)
        break;
      Ok = W.write(KV.second.data(), KV.second.size() * 8);
    }
    H.Regions[RegPostFirst + D][1] =
        W.offset() - H.Regions[RegPostFirst + D][0];
  }

  // --- Time table (already ascending: entries stream in id order and
  // ties sort by id; sort pairs to get (ts, id) order) --------------------
  std::sort(Time.begin(), Time.end());
  H.Regions[RegTime][0] = W.offset();
  if (Ok && !Time.empty())
    Ok = W.write(Time.data(), Time.size() * 16);
  H.Regions[RegTime][1] = W.offset() - H.Regions[RegTime][0];

  // --- Dedup table -------------------------------------------------------
  std::sort(Dedup.begin(), Dedup.end(),
            [](const TbixDedupRow &A, const TbixDedupRow &B) {
              return A.Fp != B.Fp ? A.Fp < B.Fp : A.Ph < B.Ph;
            });
  H.Regions[RegDedup][0] = W.offset();
  for (const TbixDedupRow &R : Dedup) {
    uint8_t Row[24];
    std::memcpy(Row, &R.Fp, 8);
    std::memcpy(Row + 8, &R.Ph, 8);
    std::memcpy(Row + 16, &R.Id, 8);
    if (!(Ok = W.write(Row, sizeof(Row))))
      break;
  }
  H.Regions[RegDedup][1] = W.offset() - H.Regions[RegDedup][0];

  // --- Page-sum table (page-aligned so every data page is full) ----------
  if (Ok)
    Ok = W.padToPage();
  H.Regions[RegPageSums][0] = W.offset();
  std::vector<uint64_t> Sums = W.pageSums();
  if (Ok && !Sums.empty())
    Ok = W.write(Sums.data(), Sums.size() * 8);
  H.Regions[RegPageSums][1] = W.offset() - H.Regions[RegPageSums][0];
  H.TableHash = fnv1a64(Sums.data(), Sums.size() * 8, Fnv1a64ShortBasis);
  // Flush the table's trailing partial page; FileBytes is the padded,
  // page-aligned size the reader checks against.
  if (Ok)
    Ok = W.padToPage();
  H.FileBytes = W.offset();

  // Patch the header page in place.
  if (Ok) {
    std::vector<uint8_t> HdrBytes = serializeHeader(H);
    Ok = std::fseek(F, 0, SEEK_SET) == 0 &&
         std::fwrite(HdrBytes.data(), 1, HdrBytes.size(), F) ==
             HdrBytes.size();
  }
  Ok = std::fflush(F) == 0 && Ok;
  Ok = std::fclose(F) == 0 && Ok;
  if (Ok)
    Ok = std::rename(Tmp.c_str(), Path.c_str()) == 0;
  if (!Ok) {
    std::remove(Tmp.c_str());
    Error = "checkpoint write failed: " + Path;
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Checkpoint reader
//===----------------------------------------------------------------------===//

PagedIndexReader::~PagedIndexReader() {
  if (File)
    std::fclose(static_cast<std::FILE *>(File));
  if (PI.Resident && CachedBytes)
    PI.Resident->add(-static_cast<int64_t>(CachedBytes));
}

std::unique_ptr<PagedIndexReader>
PagedIndexReader::open(const std::string &Path, const std::string &JournalPath,
                       size_t CacheBytes, const PageCacheInstruments &Inst,
                       std::string &Why) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Why = "no checkpoint";
    return nullptr;
  }
  auto fail = [&](const std::string &W) {
    Why = W;
    std::fclose(F);
    return nullptr;
  };

  uint8_t HdrPage[TbixPageSize];
  if (std::fread(HdrPage, 1, sizeof(HdrPage), F) != sizeof(HdrPage))
    return fail("short checkpoint header");
  HeaderFields H;
  if (!deserializeHeader(HdrPage, H, Why)) {
    std::fclose(F);
    return nullptr;
  }

  if (std::fseek(F, 0, SEEK_END) != 0)
    return fail("seek failed");
  uint64_t FileBytes = static_cast<uint64_t>(std::ftell(F));
  if (FileBytes != H.FileBytes)
    return fail("checkpoint size mismatch (torn tail?)");
  for (const auto &R : H.Regions)
    if (R[0] + R[1] > FileBytes || R[0] + R[1] < R[0])
      return fail("region out of bounds");

  // Page-sum table: read, hash-check, then stream every data page once
  // verifying its checksum. The streaming pass holds one chunk at a time
  // — validation leaves nothing resident.
  uint64_t TableOff = H.Regions[RegPageSums][0];
  uint64_t TableLen = H.Regions[RegPageSums][1];
  if (TableOff % TbixPageSize != 0)
    return fail("misaligned page-sum table");
  uint64_t DataPages = TableOff / TbixPageSize; // pages 0..DataPages-1
  if (DataPages == 0 || TableLen != (DataPages - 1) * 8)
    return fail("page-sum table length mismatch");
  std::vector<uint64_t> Sums(DataPages - 1);
  if (std::fseek(F, static_cast<long>(TableOff), SEEK_SET) != 0 ||
      std::fread(Sums.data(), 8, Sums.size(), F) != Sums.size())
    return fail("cannot read page-sum table");
  if (fnv1a64(Sums.data(), Sums.size() * 8, Fnv1a64ShortBasis) !=
      H.TableHash)
    return fail("page-sum table hash mismatch");
  {
    if (std::fseek(F, TbixPageSize, SEEK_SET) != 0)
      return fail("seek failed");
    std::vector<uint8_t> Chunk(64 * TbixPageSize);
    uint64_t Page = 1;
    while (Page < DataPages) {
      uint64_t N = DataPages - Page;
      if (N > 64)
        N = 64;
      size_t Want = static_cast<size_t>(N) * TbixPageSize;
      if (std::fread(Chunk.data(), 1, Want, F) != Want)
        return fail("cannot read data pages");
      for (uint64_t I = 0; I < N; ++I, ++Page)
        if (pageSum64(Chunk.data() + I * TbixPageSize) != Sums[Page - 1])
          return fail("page " + std::to_string(Page) + " checksum mismatch");
    }
  }

  // Journal coverage: the checkpoint describes the journal's first
  // JournalBytes bytes. The journal is append-only between compactions,
  // so hashing the prefix's first and last 4 KiB windows catches a
  // truncated, rewritten, or swapped journal without re-reading the
  // whole prefix.
  {
    std::FILE *J = std::fopen(JournalPath.c_str(), "rb");
    uint64_t JBytes = 0;
    if (J) {
      std::fseek(J, 0, SEEK_END);
      JBytes = static_cast<uint64_t>(std::ftell(J));
    }
    if (JBytes < H.JournalBytes) {
      if (J)
        std::fclose(J);
      return fail("journal shorter than checkpoint coverage");
    }
    uint8_t Win[TbixPageSize];
    auto hashAt = [&](uint64_t Off, size_t Len, uint64_t &Out) {
      if (std::fseek(J, static_cast<long>(Off), SEEK_SET) != 0 ||
          std::fread(Win, 1, Len, J) != Len)
        return false;
      Out = fnv1a64(Win, Len, Fnv1a64ShortBasis);
      return true;
    };
    if (H.JournalBytes > 0) {
      size_t HeadLen = static_cast<size_t>(
          H.JournalBytes < TbixPageSize ? H.JournalBytes : TbixPageSize);
      size_t TailLen = HeadLen;
      uint64_t HeadHash = 0, TailHash = 0;
      bool HOk = J && hashAt(0, HeadLen, HeadHash) &&
                 hashAt(H.JournalBytes - TailLen, TailLen, TailHash);
      if (J)
        std::fclose(J);
      if (!HOk)
        return fail("cannot read journal coverage windows");
      if (HeadHash != H.JournalHeadHash || TailHash != H.JournalTailHash)
        return fail("journal prefix hash mismatch (stale checkpoint)");
    } else if (J) {
      std::fclose(J);
    }
  }

  auto R = std::unique_ptr<PagedIndexReader>(new PagedIndexReader());
  R->Path = Path;
  R->File = F;
  R->FileBytes = FileBytes;
  R->EntryCount = H.EntryCount;
  R->HdrNextId = H.NextId;
  R->HdrLiveCount = H.LiveCount;
  R->HdrLiveBytes = H.LiveBytes;
  R->HdrLiveRefs = H.LiveRefs;
  R->HdrJournalBytes = H.JournalBytes;
  R->EntryBlob = {H.Regions[RegEntryBlob][0], H.Regions[RegEntryBlob][1]};
  R->EntryDir = {H.Regions[RegEntryDir][0], H.Regions[RegEntryDir][1]};
  for (unsigned D = 0; D < 4; ++D) {
    R->KeyTables[D] = {H.Regions[RegKeyFirst + D][0],
                       H.Regions[RegKeyFirst + D][1]};
    R->Postings[D] = {H.Regions[RegPostFirst + D][0],
                      H.Regions[RegPostFirst + D][1]};
  }
  R->Time = {H.Regions[RegTime][0], H.Regions[RegTime][1]};
  R->Dedup = {H.Regions[RegDedup][0], H.Regions[RegDedup][1]};
  R->TimeRows = R->Time.Len / 16;
  R->DedupRows = R->Dedup.Len / 24;
  // At least two pages of cache, whatever the configured cap, or nothing
  // would ever fit a record spanning a page boundary.
  R->CacheCap = CacheBytes < 2 * TbixPageSize ? 2 * TbixPageSize : CacheBytes;
  R->PI = Inst;
  return R;
}

const uint8_t *PagedIndexReader::pageLocked(uint64_t PageIdx) const {
  auto It = Pages.find(PageIdx);
  if (It != Pages.end()) {
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    if (PI.Hits)
      PI.Hits->add();
    return It->second.Bytes.data();
  }
  if (PI.Misses)
    PI.Misses->add();
  uint64_t Off = PageIdx * TbixPageSize;
  size_t Len = TbixPageSize;
  if (Off + Len > FileBytes)
    Len = static_cast<size_t>(FileBytes - Off);
  Page P;
  P.Bytes.resize(TbixPageSize, 0);
  std::FILE *F = static_cast<std::FILE *>(File);
  if (std::fseek(F, static_cast<long>(Off), SEEK_SET) != 0 ||
      std::fread(P.Bytes.data(), 1, Len, F) != Len)
    return nullptr; // Validated at open; only an I/O fault lands here.
  while (CachedBytes + TbixPageSize > CacheCap && !Lru.empty()) {
    uint64_t Victim = Lru.back();
    Lru.pop_back();
    Pages.erase(Victim);
    CachedBytes -= TbixPageSize;
    if (PI.Evictions)
      PI.Evictions->add();
    if (PI.Resident)
      PI.Resident->add(-static_cast<int64_t>(TbixPageSize));
  }
  Lru.push_front(PageIdx);
  P.LruIt = Lru.begin();
  auto Ins = Pages.emplace(PageIdx, std::move(P));
  CachedBytes += TbixPageSize;
  if (PI.Resident)
    PI.Resident->add(static_cast<int64_t>(TbixPageSize));
  return Ins.first->second.Bytes.data();
}

bool PagedIndexReader::read(uint64_t Off, size_t Len, void *Out) const {
  if (Off + Len > FileBytes)
    return false;
  std::lock_guard<std::mutex> Lock(CacheMutex);
  uint8_t *Dst = static_cast<uint8_t *>(Out);
  while (Len) {
    uint64_t PageIdx = Off / TbixPageSize;
    size_t InPage = static_cast<size_t>(Off % TbixPageSize);
    size_t N = TbixPageSize - InPage;
    if (N > Len)
      N = Len;
    const uint8_t *P = pageLocked(PageIdx);
    if (!P)
      return false;
    std::memcpy(Dst, P + InPage, N);
    Dst += N;
    Off += N;
    Len -= N;
  }
  return true;
}

uint64_t PagedIndexReader::readU64(uint64_t Off) const {
  uint64_t V = 0;
  read(Off, 8, &V);
  return V;
}

bool PagedIndexReader::entryByIndex(uint64_t Idx, SnapStoreEntry &Out) const {
  if (Idx >= EntryCount)
    return false;
  uint8_t Row[20];
  if (!read(EntryDir.Off + Idx * 20, 20, Row))
    return false;
  uint64_t BlobOff;
  uint32_t Len;
  std::memcpy(&BlobOff, Row + 8, 8);
  std::memcpy(&Len, Row + 16, 4);
  if (BlobOff + Len > EntryBlob.Len)
    return false;
  std::vector<uint8_t> Rec(Len);
  return read(EntryBlob.Off + BlobOff, Len, Rec.data()) &&
         decodeStoreEntry(Rec.data(), Rec.size(), Out);
}

bool PagedIndexReader::entryById(uint64_t Id, SnapStoreEntry &Out) const {
  uint64_t Lo = 0, Hi = EntryCount;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    uint64_t MidId = readU64(EntryDir.Off + Mid * 20);
    if (MidId == Id)
      return entryByIndex(Mid, Out);
    if (MidId < Id)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return false;
}

const PagedIndexReader::Region &
PagedIndexReader::keyTable(TbixDim D) const {
  return KeyTables[static_cast<unsigned>(D)];
}
const PagedIndexReader::Region &
PagedIndexReader::postingRegion(TbixDim D) const {
  return Postings[static_cast<unsigned>(D)];
}

bool PagedIndexReader::findPosting(TbixDim D, uint64_t Key,
                                   PostingRef &Out) const {
  const Region &T = keyTable(D);
  uint64_t Rows = T.Len / 24;
  uint64_t Lo = 0, Hi = Rows;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    uint64_t MidKey = readU64(T.Off + Mid * 24);
    if (MidKey == Key) {
      uint64_t IdOff = readU64(T.Off + Mid * 24 + 8);
      Out.Off = postingRegion(D).Off + IdOff * 8;
      Out.Count = readU64(T.Off + Mid * 24 + 16);
      return true;
    }
    if (MidKey < Key)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return false;
}

uint64_t PagedIndexReader::postingIdAt(const PostingRef &P, uint64_t I) const {
  return readU64(P.Off + I * 8);
}

void PagedIndexReader::timeAt(uint64_t I, uint64_t &Ts, uint64_t &Id) const {
  uint8_t Row[16];
  if (!read(Time.Off + I * 16, 16, Row)) {
    Ts = Id = 0;
    return;
  }
  std::memcpy(&Ts, Row, 8);
  std::memcpy(&Id, Row + 8, 8);
}

bool PagedIndexReader::findDedup(uint64_t Fp, uint64_t Ph,
                                 uint64_t &IdOut) const {
  uint64_t Lo = 0, Hi = DedupRows;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    uint64_t MidFp = readU64(Dedup.Off + Mid * 24);
    uint64_t MidPh = readU64(Dedup.Off + Mid * 24 + 8);
    if (MidFp == Fp && MidPh == Ph) {
      IdOut = readU64(Dedup.Off + Mid * 24 + 16);
      return true;
    }
    if (MidFp < Fp || (MidFp == Fp && MidPh < Ph))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return false;
}

size_t PagedIndexReader::residentBytes() const {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return CachedBytes;
}
