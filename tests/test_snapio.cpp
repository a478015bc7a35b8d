//===- tests/test_snapio.cpp - Snap wire format and ingestion I/O ---------===//
//
// Part of the TraceBack reproduction project.
//
// The snap fast path end to end: the trace-aware codec (format v4's
// per-section compression), version compatibility of the serialized
// snap image, a fuzz corpus of damaged images (every byte of a snap may
// cross a machine boundary or a crashed daemon's disk), the append-only
// archive, and the daemon's delivery path.
// Runs in the `snapio` ctest label; seeds replay via TRACEBACK_TEST_SEED.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "core/FileIO.h"
#include "distributed/SnapArchive.h"
#include "distributed/Wire.h"
#include "reconstruct/SynthWorkload.h"
#include "runtime/TraceRecord.h"
#include "support/ByteStream.h"
#include "support/MD5.h"
#include "support/SnapCodec.h"
#include "support/SnapSource.h"
#include "vm/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

using namespace traceback;
using namespace traceback::testing_helpers;

namespace {

void pushWord(std::vector<uint8_t> &Out, uint32_t W) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>(W >> (I * 8)));
}

/// Encodes \p In, decodes the stream, and expects the input back.
/// Returns the encoded size so callers can assert on compression.
size_t expectRoundTrip(const std::vector<uint8_t> &In) {
  std::vector<uint8_t> Stream;
  size_t Encoded = snapEncodeTo(In.data(), In.size(), Stream);
  EXPECT_EQ(Encoded, Stream.size());
  uint64_t Claimed = 0;
  EXPECT_TRUE(snapEncodedRawSize(Stream.data(), Stream.size(), Claimed));
  EXPECT_EQ(Claimed, In.size());
  std::vector<uint8_t> Back;
  EXPECT_TRUE(snapDecode(Stream, Back));
  EXPECT_EQ(Back, In);
  return Encoded;
}

/// A small synthetic snap for format and fuzz tests.
SnapFile synthSnap(uint64_t Seed, bool IncludeCorrupt = false) {
  SynthWorkloadOptions O;
  O.Modules = 4;
  O.DagsPerModule = 8;
  O.Threads = 3;
  O.RecordsPerThread = 400;
  O.IncludeCorrupt = IncludeCorrupt;
  return makeSynthWorkload(Seed, O).Snap;
}

/// The checked-in v2 fixture, byte for byte. Nothing writes v2 or v3,
/// so this file is what pins the v2 reader.
std::vector<uint8_t> goldenV2Image() {
  std::vector<uint8_t> Bytes;
  EXPECT_TRUE(readFileBytes(
      std::string(TB_TESTS_DIR) + "/golden/golden.tbsnap", Bytes));
  return Bytes;
}

/// A v3 image built from a v2 one: v3 is the v2 layout plus one trailing
/// TELEMETRY word stream (varint word count, then the words).
std::vector<uint8_t> legacyV3Image(const std::vector<uint8_t> &V2,
                                   const std::vector<uint32_t> &Telemetry) {
  std::vector<uint8_t> Out = V2;
  Out[4] = 3; // The u32 version word follows the magic.
  ByteWriter W(Out);
  W.writeVarU64(Telemetry.size());
  for (uint32_t Word : Telemetry)
    W.writeU32(Word);
  return Out;
}

} // namespace

// ----------------------------------------------------------------------------
// Codec: each op class round-trips, and the shapes it targets compress.
// ----------------------------------------------------------------------------

TEST(SnapCodecTest, EmptyInputRoundTrips) {
  EXPECT_LE(expectRoundTrip({}), 4u);
}

TEST(SnapCodecTest, ZeroRunCompressesToAFewBytes) {
  std::vector<uint8_t> In(64 * 1024, 0);
  EXPECT_LE(expectRoundTrip(In), 16u);
}

TEST(SnapCodecTest, SentinelRunCompressesToAFewBytes) {
  std::vector<uint8_t> In;
  for (int I = 0; I < 4096; ++I)
    pushWord(In, SentinelRecord);
  EXPECT_LE(expectRoundTrip(In), 16u);
}

TEST(SnapCodecTest, RepeatedWordUsesOneRun) {
  // A non-DAG, non-sentinel word repeated: one literal + one repeat op.
  std::vector<uint8_t> In;
  for (int I = 0; I < 1000; ++I)
    pushWord(In, 0x12345678u);
  EXPECT_LE(expectRoundTrip(In), 16u);
}

TEST(SnapCodecTest, DagDeltaChainRoundTrips) {
  // Consecutive DAG ids with varying path bits: the hot delta-coded case.
  std::vector<uint8_t> In;
  for (uint32_t I = 0; I < 2000; ++I)
    pushWord(In, makeDagRecord(100 + I % 7) | (I % 13));
  size_t Encoded = expectRoundTrip(In);
  // 91 distinct words defeat the dictionary, so this exercises pure delta
  // coding: ~2 bytes per 4-byte record.
  EXPECT_LT(Encoded, In.size() * 5 / 8);
}

TEST(SnapCodecTest, DictionaryCompressesNonAdjacentRecurrences) {
  // Two hot pairs with a large id gap, alternating: delta coding pays the
  // gap every word, the dictionary pays one byte after the first sighting.
  std::vector<uint8_t> In;
  uint32_t A = makeDagRecord(17) | 3;
  uint32_t B = makeDagRecord(9000) | 5;
  for (int I = 0; I < 1000; ++I)
    pushWord(In, I % 2 ? A : B);
  size_t Encoded = expectRoundTrip(In);
  // ~1 byte per word once the dictionary is warm.
  EXPECT_LT(Encoded, 1100u);
}

TEST(SnapCodecTest, LiteralsAndRawTailRoundTrip) {
  // Words outside every special class, with a 3-byte unaligned tail.
  std::vector<uint8_t> In;
  for (uint32_t I = 0; I < 100; ++I)
    pushWord(In, 0x01020304u + I * 2654435761u % 0x40000000u);
  In.push_back(0xAB);
  In.push_back(0xCD);
  In.push_back(0xEF);
  expectRoundTrip(In);
}

TEST(SnapCodecTest, IncompressibleInputFallsBackToRawBlock) {
  // High-entropy bytes: the raw block bounds overhead to the framing.
  std::vector<uint8_t> In;
  Rng R(testSeed() ^ 0xAAAA);
  for (int I = 0; I < 4096; ++I)
    In.push_back(static_cast<uint8_t>(R.next()));
  size_t Encoded = expectRoundTrip(In);
  EXPECT_LE(Encoded, In.size() + 8);
}

TEST(SnapCodecTest, RandomWordSoupSweepRoundTrips) {
  // 100 seeds of adversarial mixtures: zero runs, sentinel runs, hot and
  // cold DAG records, repeats, arbitrary literals, ragged tails. The
  // property: decode(encode(x)) == x, always.
  Rng Seeds(testSeed() ^ 0xC0DEC);
  for (int Run = 0; Run < 100; ++Run) {
    uint64_t Seed = Seeds.next();
    Rng R(Seed);
    std::vector<uint8_t> In;
    unsigned Chunks = 1 + R.below(40);
    for (unsigned C = 0; C < Chunks; ++C) {
      unsigned Kind = static_cast<unsigned>(R.below(6));
      unsigned Len = 1 + static_cast<unsigned>(R.below(200));
      switch (Kind) {
      case 0:
        for (unsigned I = 0; I < Len; ++I)
          pushWord(In, InvalidRecord);
        break;
      case 1:
        for (unsigned I = 0; I < Len; ++I)
          pushWord(In, SentinelRecord);
        break;
      case 2: { // Hot DAG pairs (dictionary + delta paths).
        uint32_t Hot[4];
        for (uint32_t &H : Hot)
          H = makeDagRecord(static_cast<uint32_t>(R.below(MaxDagId))) |
              static_cast<uint32_t>(R.below(1u << PathBitCount));
        for (unsigned I = 0; I < Len; ++I)
          pushWord(In, Hot[R.below(4)]);
        break;
      }
      case 3: // Cold DAG records.
        for (unsigned I = 0; I < Len; ++I)
          pushWord(In, makeDagRecord(static_cast<uint32_t>(
                           R.below(MaxDagId))) |
                           static_cast<uint32_t>(R.below(1u << PathBitCount)));
        break;
      case 4: { // A repeated arbitrary word.
        uint32_t W = static_cast<uint32_t>(R.next());
        for (unsigned I = 0; I < Len; ++I)
          pushWord(In, W);
        break;
      }
      default: // Arbitrary literal words.
        for (unsigned I = 0; I < Len; ++I)
          pushWord(In, static_cast<uint32_t>(R.next()));
      }
    }
    for (uint64_t I = 0, Tail = R.below(4); I < Tail; ++I)
      In.push_back(static_cast<uint8_t>(R.next()));

    std::vector<uint8_t> Stream;
    snapEncodeTo(In.data(), In.size(), Stream);
    std::vector<uint8_t> Back;
    ASSERT_TRUE(snapDecode(Stream, Back)) << "seed " << Seed;
    ASSERT_EQ(Back, In) << "seed " << Seed;
  }
}

TEST(SnapCodecTest, EveryTruncatedStreamIsRejected) {
  std::vector<uint8_t> In;
  for (uint32_t I = 0; I < 64; ++I)
    pushWord(In, makeDagRecord(40 + I % 5) | (I % 3));
  for (int I = 0; I < 16; ++I)
    pushWord(In, 0);
  In.push_back(0x77); // Ragged tail, so OpRawTail framing is covered too.
  std::vector<uint8_t> Stream;
  snapEncodeTo(In.data(), In.size(), Stream);
  std::vector<uint8_t> Back;
  for (size_t Cut = 0; Cut < Stream.size(); ++Cut) {
    Back.clear();
    EXPECT_FALSE(snapDecodeTo(Stream.data(), Cut, Back))
        << "prefix of " << Cut << " bytes must not decode";
  }
}

TEST(SnapCodecTest, BitFlippedStreamsNeverCrash) {
  std::vector<uint8_t> In;
  for (uint32_t I = 0; I < 256; ++I)
    pushWord(In, makeDagRecord(10 + I % 9) | (I % 17));
  std::vector<uint8_t> Stream;
  snapEncodeTo(In.data(), In.size(), Stream);
  // Flip every bit of every byte, one at a time: decode must terminate
  // with either a rejection or a same-length reconstruction.
  std::vector<uint8_t> Back;
  for (size_t I = 0; I < Stream.size(); ++I) {
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::vector<uint8_t> Bad = Stream;
      Bad[I] ^= static_cast<uint8_t>(1 << Bit);
      Back.clear();
      if (snapDecodeTo(Bad.data(), Bad.size(), Back)) {
        EXPECT_EQ(Back.size(), In.size());
      }
    }
  }
}

TEST(SnapCodecTest, OversizedRawClaimIsRejected) {
  // A varint header claiming more than the decoder's allocation ceiling.
  std::vector<uint8_t> Bad;
  uint64_t Claim = SnapCodecMaxRawSize + 1;
  while (Claim >= 0x80) {
    Bad.push_back(static_cast<uint8_t>(Claim) | 0x80);
    Claim >>= 7;
  }
  Bad.push_back(static_cast<uint8_t>(Claim));
  Bad.push_back(0); // Mode byte.
  uint64_t RawSize = 0;
  EXPECT_FALSE(snapEncodedRawSize(Bad.data(), Bad.size(), RawSize));
  std::vector<uint8_t> Back;
  EXPECT_FALSE(snapDecodeTo(Bad.data(), Bad.size(), Back));
}

namespace {

/// A 64 KiB trace ring as the runtime lays one out: four sub-buffers, each
/// ending in a sentinel, the first \p Records slots holding DAG records (a
/// hot working set plus cold ids) and extended-record words, the rest
/// still zero.
std::vector<uint8_t> ringImage(Rng &R, size_t Records) {
  constexpr size_t Words = 16384, SubWords = Words / 4;
  uint32_t Hot[16];
  for (uint32_t &H : Hot)
    H = makeDagRecord(1 + static_cast<uint32_t>(R.below(4000))) |
        static_cast<uint32_t>(R.below(1u << PathBitCount));
  std::vector<uint8_t> Ring;
  size_t Written = 0;
  for (size_t Slot = 0; Slot < Words; ++Slot) {
    uint32_t W = InvalidRecord;
    uint64_t Pick = R.below(100);
    if (Slot % SubWords == SubWords - 1) {
      W = SentinelRecord;
    } else if (Written++ < Records) {
      if (Pick < 85)
        W = Hot[R.below(16)];
      else if (Pick < 95)
        W = makeDagRecord(1 + static_cast<uint32_t>(R.below(MaxDagId))) |
            static_cast<uint32_t>(R.below(1u << PathBitCount));
      else // Extended-record header or continuation word.
        W = (Pick < 97 ? 0u : 0x40000000u) |
            (1 + static_cast<uint32_t>(R.below(0x3FFFFFFF)));
    }
    pushWord(Ring, W);
  }
  return Ring;
}

} // namespace

TEST(SnapCodecTest, EncodingIsPinned) {
  // Round trips alone would pass an encoder that framed runs differently,
  // yet that would change every snap image and defeat store dedup against
  // snaps already stored. The digest pins the exact bytes over runs of
  // every length up to 600 words (each 0-3 words past a 1 KiB boundary,
  // ended by a different word) and over a sparse and a dense ring. The
  // corpus seed is fixed: the digest must not follow TRACEBACK_TEST_SEED.
  Rng R(0x9141'ED00'C0DEULL);
  std::vector<std::vector<uint8_t>> Corpus;
  auto otherThan = [&R](uint32_t W) {
    uint32_t V = static_cast<uint32_t>(R.next());
    return V == W ? ~V : V;
  };
  for (uint32_t W : {InvalidRecord, SentinelRecord, 0x2C6A91E5u}) {
    for (unsigned Len = 0; Len <= 600; ++Len) {
      std::vector<uint8_t> In;
      unsigned Lead = 256 + static_cast<unsigned>(R.below(4));
      for (unsigned I = 0; I < Lead; ++I)
        pushWord(In, otherThan(W));
      for (unsigned I = 0; I < Len; ++I)
        pushWord(In, W);
      pushWord(In, otherThan(W));
      Corpus.push_back(std::move(In));
    }
  }
  Corpus.push_back(ringImage(R, /*Records=*/200));
  Corpus.push_back(ringImage(R, /*Records=*/16384));

  MD5 Hash;
  std::vector<uint8_t> Stream, Back;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    Stream.clear();
    snapEncodeTo(Corpus[I].data(), Corpus[I].size(), Stream);
    ASSERT_TRUE(snapDecode(Stream, Back)) << "corpus entry " << I;
    ASSERT_EQ(Back, Corpus[I]) << "corpus entry " << I;
    Hash.update(Stream.data(), Stream.size());
  }
  EXPECT_EQ(Hash.final().toHex(), "135a132c125fdff5405c8b80bc993265");
}

TEST(SnapCodecTest, ZeroHintsDoNotChangeTheStream) {
  // Capture hints the encoder with the byte ranges of never-written
  // pages. Whatever true hints it gets — none, adjacent, at either end,
  // starting or ending inside a zero run, the whole input — the stream
  // must be the unhinted one, byte for byte.
  Rng R(testSeed() ^ 0x21E0'4147ULL);
  auto randomImage = [&R](bool ZeroEnds) {
    std::vector<uint8_t> In;
    if (ZeroEnds)
      for (uint64_t I = 0, N = 1 + R.below(2000); I < N; ++I)
        pushWord(In, InvalidRecord);
    for (uint64_t Seg = 0, Segs = 1 + R.below(12); Seg < Segs; ++Seg) {
      uint64_t Len = R.below(4) == 0 ? 1 + R.below(3000) : 1 + R.below(40);
      uint64_t Kind = R.below(5);
      for (uint64_t I = 0; I < Len; ++I) {
        uint32_t W = InvalidRecord;
        if (Kind == 1)
          W = SentinelRecord;
        else if (Kind == 2)
          W = makeDagRecord(1 + static_cast<uint32_t>(R.below(300))) |
              static_cast<uint32_t>(R.below(1u << PathBitCount));
        else if (Kind == 3)
          W = static_cast<uint32_t>(R.below(0x40000000u)) | 1;
        else if (Kind == 4) // One non-zero byte: zero bytes at a word's edge.
          W = static_cast<uint32_t>(1 + R.below(255)) << (8 * R.below(4));
        pushWord(In, W);
      }
    }
    if (ZeroEnds)
      for (uint64_t I = 0, N = 1 + R.below(2000); I < N; ++I)
        pushWord(In, InvalidRecord);
    return In;
  };
  /// Maximal runs of zero words, as word index ranges.
  auto zeroRuns = [](const std::vector<uint8_t> &In) {
    std::vector<std::pair<size_t, size_t>> Runs;
    size_t Words = In.size() / 4;
    for (size_t I = 0; I < Words;) {
      if (std::memcmp(In.data() + I * 4, "\0\0\0\0", 4) != 0) {
        ++I;
        continue;
      }
      size_t J = I;
      while (J < Words && std::memcmp(In.data() + J * 4, "\0\0\0\0", 4) == 0)
        ++J;
      Runs.push_back({I, J});
      I = J;
    }
    return Runs;
  };
  /// Random true hints inside the zero runs: whole runs, pieces that
  /// start or end mid-run, and runs split into adjacent ranges.
  auto randomHints = [&R](const std::vector<std::pair<size_t, size_t>> &Runs) {
    std::vector<ZeroRange> Hints;
    for (auto [B, E] : Runs) {
      uint64_t Mode = R.below(4);
      if (Mode == 0)
        continue;
      size_t From = B, To = E;
      if (Mode == 2) {
        From = B + R.below(E - B);
        To = From + 1 + R.below(E - From);
      }
      if (Mode == 3 && E - B >= 2) {
        size_t Mid = B + 1 + R.below(E - B - 1);
        Hints.push_back({B * 4, Mid * 4});
        From = Mid;
      }
      Hints.push_back({From * 4, To * 4});
    }
    return Hints;
  };

  std::vector<std::vector<uint8_t>> Images;
  for (int I = 0; I < 48; ++I)
    Images.push_back(randomImage(/*ZeroEnds=*/I % 2 == 0));
  Images.push_back(ringImage(R, /*Records=*/200));
  Images.push_back(ringImage(R, /*Records=*/9000));
  Images.push_back(std::vector<uint8_t>(64 * 1024, 0));
  std::vector<uint8_t> Lone; // lone words with zero bytes, between zero runs
  for (unsigned Shift = 0; Shift < 32; Shift += 8)
    for (unsigned Gap : {1u, 17u, 40u}) {
      for (unsigned I = 0; I < Gap; ++I)
        pushWord(Lone, InvalidRecord);
      pushWord(Lone, 0xABu << Shift);
    }
  pushWord(Lone, InvalidRecord);
  Images.push_back(Lone);
  std::vector<uint8_t> Ragged = Images[0];
  Ragged.insert(Ragged.end(), {0, 0, 0}); // a tail past the last word
  Images.push_back(Ragged);

  size_t Checked = 0;
  for (size_t Img = 0; Img < Images.size(); ++Img) {
    const std::vector<uint8_t> &In = Images[Img];
    SCOPED_TRACE(::testing::Message() << "image " << Img);
    std::vector<uint8_t> Reference;
    snapEncodeTo(In.data(), In.size(), Reference);
    std::vector<uint8_t> Back;
    ASSERT_TRUE(snapDecode(Reference, Back));
    ASSERT_EQ(Back, In);

    auto Runs = zeroRuns(In);
    std::vector<std::vector<ZeroRange>> HintSets = {{}};
    std::vector<ZeroRange> Whole;
    for (auto [B, E] : Runs)
      Whole.push_back({B * 4, E * 4});
    HintSets.push_back(Whole);
    if (!Runs.empty()) {
      // Only the first and the last run: the ends of a ZeroEnds image.
      HintSets.push_back({Whole.front(), Whole.back()});
      if (Runs.size() == 1)
        HintSets.back().pop_back();
    }
    for (int K = 0; K < 6; ++K)
      HintSets.push_back(randomHints(Runs));
    // Ragged edges round inward to whole words: hint every zero byte
    // next to a zero run, including those in a neighbour that is not
    // zero as a word.
    std::vector<ZeroRange> Ragged;
    for (const ZeroRange &Z : Whole) {
      size_t B = Z.Begin, E = Z.End;
      while (B > 0 && In[B - 1] == 0)
        --B;
      while (E < In.size() && In[E] == 0)
        ++E;
      if (Ragged.empty() || Ragged.back().End < B)
        Ragged.push_back({B, E});
    }
    HintSets.push_back(Ragged);

    for (size_t H = 0; H < HintSets.size(); ++H) {
      std::vector<uint8_t> Hinted;
      snapEncodeTo(In.data(), In.size(), Hinted, HintSets[H]);
      ASSERT_EQ(Hinted, Reference) << "hint set " << H << " of "
                                   << HintSets[H].size() << " ranges";
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 500u);
}

// ----------------------------------------------------------------------------
// Snap format: v4 round trip, legacy compatibility, the encode cache.
// ----------------------------------------------------------------------------

TEST(SnapFormatTest, V4RoundTripSweep100Seeds) {
  // The wire-format property behind the archive: deserialize(serialize(S))
  // preserves every buffer byte, and re-serializing the decoded snap
  // reproduces the image bit for bit (the decoded image carries its codec
  // streams forward as the encode cache).
  Rng Seeds(testSeed() ^ 0x5A4B);
  for (int Run = 0; Run < 100; ++Run) {
    uint64_t Seed = Seeds.next();
    SnapFile S = synthSnap(Seed, /*IncludeCorrupt=*/Run % 2 == 0);
    std::vector<uint8_t> Wire = S.serialize();
    SnapFile Back;
    ASSERT_TRUE(SnapFile::deserialize(Wire, Back)) << "seed " << Seed;
    ASSERT_EQ(Back.Buffers.size(), S.Buffers.size()) << "seed " << Seed;
    for (size_t I = 0; I < S.Buffers.size(); ++I)
      ASSERT_EQ(Back.Buffers[I].Raw, S.Buffers[I].Raw)
          << "seed " << Seed << " buffer " << I;
    ASSERT_EQ(Back.Threads.size(), S.Threads.size());
    ASSERT_EQ(Back.serialize(), Wire) << "seed " << Seed;
  }
}

TEST(SnapFormatTest, LegacyV2AndV3ImagesStillDeserialize) {
  std::vector<uint8_t> V2 = goldenV2Image();
  std::vector<uint32_t> Telemetry = encodeTelemetryRecords("{}");
  SnapFile S, Back;
  ASSERT_TRUE(SnapFile::deserialize(V2, S));
  ASSERT_TRUE(SnapFile::deserialize(legacyV3Image(V2, Telemetry), Back));
  EXPECT_TRUE(S.Telemetry.empty());
  EXPECT_EQ(Back.Telemetry, Telemetry);
  EXPECT_EQ(Back.Pid, S.Pid);
  EXPECT_EQ(Back.ProcessName, S.ProcessName);
  ASSERT_EQ(Back.Buffers.size(), S.Buffers.size());
  for (size_t I = 0; I < S.Buffers.size(); ++I)
    EXPECT_EQ(Back.Buffers[I].Raw, S.Buffers[I].Raw) << "buffer " << I;
  EXPECT_EQ(Back.Threads.size(), S.Threads.size());
  EXPECT_EQ(Back.Modules.size(), S.Modules.size());
}

TEST(SnapFormatTest, EncodeCacheFollowsRawMutations) {
  SnapFile S = synthSnap(11);
  std::vector<uint8_t> Wire = S.serialize();
  SnapFile Back;
  ASSERT_TRUE(SnapFile::deserialize(Wire, Back));
  ASSERT_FALSE(Back.Buffers.empty());
  // The decoded image kept the wire streams: serializing again is a
  // cache append and must be byte-identical.
  ASSERT_FALSE(Back.Buffers[0].Encoded.empty());
  ASSERT_EQ(Back.serialize(), Wire);

  // Mutating Raw and honoring the invariant (clear the cache) must
  // produce an image that round-trips the mutation.
  Back.Buffers[0].Raw[0] ^= 0xFF;
  Back.Buffers[0].Encoded.clear();
  std::vector<uint8_t> Wire2 = Back.serialize();
  EXPECT_NE(Wire2, Wire);
  SnapFile Back2;
  ASSERT_TRUE(SnapFile::deserialize(Wire2, Back2));
  EXPECT_EQ(Back2.Buffers[0].Raw, Back.Buffers[0].Raw);

  // The serializer's backstop: a stale cache whose decoded size no longer
  // matches Raw is ignored, not written.
  SnapFile Stale;
  ASSERT_TRUE(SnapFile::deserialize(Wire, Stale));
  Stale.Buffers[0].Raw.resize(Stale.Buffers[0].Raw.size() - 4);
  std::vector<uint8_t> Wire3 = Stale.serialize();
  SnapFile Back3;
  ASSERT_TRUE(SnapFile::deserialize(Wire3, Back3));
  EXPECT_EQ(Back3.Buffers[0].Raw, Stale.Buffers[0].Raw);
}

TEST(SnapFormatTest, HeaderOnlyParseReadsScalarsWithoutPayload) {
  SnapFile S = synthSnap(13);
  std::vector<uint8_t> Wire = S.serialize();
  SnapFile Header;
  ASSERT_TRUE(SnapFile::deserializeHeader(Wire, Header));
  EXPECT_EQ(Header.Pid, S.Pid);
  EXPECT_EQ(Header.ProcessName, S.ProcessName);
  EXPECT_TRUE(Header.Buffers.empty());
  // Legacy images have no section index; the header parse still works.
  std::vector<uint8_t> V2 = goldenV2Image();
  SnapFile Full, HeaderV2;
  ASSERT_TRUE(SnapFile::deserialize(V2, Full));
  ASSERT_TRUE(SnapFile::deserializeHeader(V2, HeaderV2));
  EXPECT_EQ(HeaderV2.Pid, Full.Pid);
}

TEST(SnapFormatTest, SectionStatsShowCompressedBuffers) {
  SnapFile S = synthSnap(17);
  std::vector<uint8_t> Wire = S.serialize();
  uint32_t Version = 0;
  std::vector<SnapSectionStat> Stats;
  ASSERT_TRUE(snapSectionStats(Wire, Version, Stats));
  EXPECT_EQ(Version, 4u);
  ASSERT_FALSE(Stats.empty());
  bool SawCompressedSection = false;
  for (const SnapSectionStat &St : Stats)
    if (St.EncodedBytes < St.RawBytes)
      SawCompressedSection = true;
  EXPECT_TRUE(SawCompressedSection)
      << "trace buffers must compress in the synthetic workload";
}

// ----------------------------------------------------------------------------
// Fuzz corpus: damaged images of every version must never crash a reader.
// ----------------------------------------------------------------------------

TEST(SnapFuzzTest, CorruptedImagesOfEveryVersionNeverCrash) {
  std::vector<uint8_t> V2 = goldenV2Image();
  std::map<uint32_t, std::vector<uint8_t>> Corpus = {
      {2u, V2},
      {3u, legacyV3Image(V2, encodeTelemetryRecords("{}"))},
      {4u, synthSnap(23).serialize()}};
  for (const auto &[Version, Pristine] : Corpus) {
    Rng Seeds(testSeed() ^ (0xF0'00 + Version));
    int Accepted = 0;
    for (int Run = 0; Run < 120; ++Run) {
      uint64_t Seed = Seeds.next();
      std::vector<uint8_t> Bytes = Pristine;
      FaultInjector::corruptSnapBytes(Bytes, Seed,
                                      /*ByteFlips=*/1 + Run % 32,
                                      /*Truncate=*/(Run % 3) == 0);
      SnapFile Out;
      if (SnapFile::deserialize(Bytes, Out))
        ++Accepted; // Undetected damage is fine; crashing is not.
      SnapFile Header;
      SnapFile::deserializeHeader(Bytes, Header);
      uint32_t V = 0;
      std::vector<SnapSectionStat> Stats;
      snapSectionStats(Bytes, V, Stats);
    }
    // Single-bit damage deep in a payload is not always detectable; the
    // assertion is termination, recorded for the curious.
    SUCCEED() << "v" << Version << ": " << Accepted
              << "/120 damaged images deserialized";
  }
}

TEST(SnapFuzzTest, EveryTruncationOfV4IsHandled) {
  std::vector<uint8_t> Wire = synthSnap(29).serialize();
  for (size_t Cut = 0; Cut < Wire.size(); Cut += 7) {
    std::vector<uint8_t> Prefix(Wire.begin(), Wire.begin() + Cut);
    SnapFile Out;
    EXPECT_FALSE(SnapFile::deserialize(Prefix, Out))
        << "a truncated image must be rejected (cut at " << Cut << ")";
  }
}

// ----------------------------------------------------------------------------
// Transport wire frames: the same fuzz discipline for the network plane.
// A frame carrying a full serialized snap is the largest, richest input
// the decoder ever sees — every damaged variant must fail cleanly.
// ----------------------------------------------------------------------------

namespace {

/// Encodes a SnapPush frame around a real serialized snap image.
std::vector<uint8_t> snapPushFrameBytes(uint64_t Seed) {
  WireFrame F;
  F.Type = FrameType::SnapPush;
  F.SrcMachine = 3;
  F.DstMachine = 9;
  F.Seq = 12;
  F.AckSeq = 11;
  F.Payload = synthSnap(Seed).serialize();
  std::vector<uint8_t> Bytes;
  encodeFrame(F, Bytes);
  return Bytes;
}

} // namespace

TEST(WireFrameFuzzTest, EveryTruncationOfASnapPushIsRejected) {
  std::vector<uint8_t> Wire = snapPushFrameBytes(31);
  for (size_t Cut = 0; Cut < Wire.size(); Cut += 13) {
    std::vector<uint8_t> Prefix(Wire.begin(), Wire.begin() + Cut);
    WireFrame Out;
    std::string Error;
    EXPECT_FALSE(decodeFrame(Prefix, Out, Error))
        << "a truncated frame must be rejected (cut at " << Cut << ")";
  }
}

TEST(WireFrameFuzzTest, BitFlippedFramesAreAlwaysRejected) {
  // Stronger than the snap-image guarantee: the frame checksum covers
  // header AND payload, so unlike a snap image, EVERY single-bit flip in
  // a frame is detectable — and must be detected.
  std::vector<uint8_t> Wire = snapPushFrameBytes(37);
  Rng Picks(testSeed() ^ 0x11f1);
  for (int Round = 0; Round < 600; ++Round) {
    std::vector<uint8_t> Hit = Wire;
    size_t Bit = static_cast<size_t>(Picks.below(Hit.size() * 8));
    Hit[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
    WireFrame Out;
    std::string Error;
    EXPECT_FALSE(decodeFrame(Hit, Out, Error))
        << "undetected single-bit flip at bit " << Bit;
  }
}

TEST(WireFrameFuzzTest, MultiBitCorruptionNeverCrashesTheDecoder) {
  std::vector<uint8_t> Wire = snapPushFrameBytes(41);
  Rng Seeds(testSeed() ^ 0x11f2);
  for (int Round = 0; Round < 200; ++Round) {
    std::vector<uint8_t> Hit = Wire;
    FaultInjector::corruptSnapBytes(Hit, Seeds.next(),
                                    /*ByteFlips=*/1 + Round % 24,
                                    /*Truncate=*/(Round % 4) == 0);
    WireFrame Out;
    std::string Error;
    // Detection is guaranteed for flips (checksum) and truncation
    // (length); the assertion here is clean failure, never a crash or
    // overread. A payload that decodes would mean corruptSnapBytes left
    // the bytes identical, which it never does.
    EXPECT_FALSE(decodeFrame(Hit, Out, Error));
  }
}

TEST(WireFrameFuzzTest, OversizedLengthClaimIsRejectedWithoutAllocating) {
  std::vector<uint8_t> Wire = snapPushFrameBytes(43);
  // The length field follows magic(4) + version(2) + type(2) + 4 x u64.
  const size_t LenOff = 4 + 2 + 2 + 8 * 4;
  for (uint64_t Claim :
       {uint64_t{0xffffffff}, uint64_t{MaxFramePayload} + 1,
        uint64_t{MaxFramePayload} + (64u << 20)}) {
    std::vector<uint8_t> Hit = Wire;
    for (int I = 0; I < 4; ++I)
      Hit[LenOff + I] = static_cast<uint8_t>(Claim >> (8 * I));
    WireFrame Out;
    std::string Error;
    EXPECT_FALSE(decodeFrame(Hit, Out, Error));
    EXPECT_TRUE(Out.Payload.empty())
        << "the decoder must reject before allocating toward the claim";
  }
}

// ----------------------------------------------------------------------------
// Archive: framing, torn tails, the batch writer.
// ----------------------------------------------------------------------------

namespace {

struct TempFile {
  std::string Path;
  explicit TempFile(const char *Name) : Path(Name) {
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
};

} // namespace

TEST(SnapArchiveTest, WriterBatchesAppendsAcrossOpens) {
  TempFile F("test_snapio_writer.tbar");
  std::vector<uint8_t> ImgA = synthSnap(31).serialize();
  std::vector<uint8_t> ImgB = synthSnap(37).serialize();
  {
    SnapArchiveWriter W;
    ASSERT_TRUE(W.open(F.Path));
    EXPECT_TRUE(W.append(ImgA));
    EXPECT_TRUE(W.close());
  }
  {
    // Reopening appends after the existing entries, no second header.
    SnapArchiveWriter W;
    ASSERT_TRUE(W.open(F.Path));
    EXPECT_TRUE(W.append(ImgB));
    EXPECT_TRUE(W.close());
  }
  std::vector<SnapArchiveEntry> Entries;
  ASSERT_TRUE(SnapArchive::list(F.Path, Entries));
  ASSERT_EQ(Entries.size(), 2u);
  EXPECT_EQ(Entries[0].ImageBytes, ImgA.size());
  EXPECT_EQ(Entries[1].ImageBytes, ImgB.size());
  EXPECT_EQ(Entries[0].FormatVersion, 4u);
  EXPECT_TRUE(Entries[0].HeaderOk);
  std::vector<uint8_t> Got;
  ASSERT_TRUE(SnapArchive::extract(F.Path, 1, Got));
  EXPECT_EQ(Got, ImgB);
  EXPECT_FALSE(SnapArchive::extract(F.Path, 2, Got));
}

TEST(SnapArchiveTest, OpenFailsCleanlyOnBadPath) {
  SnapArchiveWriter W;
  EXPECT_FALSE(W.open("no-such-dir/test_snapio.tbar"));
  EXPECT_FALSE(W.isOpen());
  std::vector<uint8_t> Img{1, 2, 3};
  EXPECT_FALSE(W.append(Img));
}

TEST(SnapArchiveTest, TornTailIsToleratedGarbageIsNot) {
  TempFile F("test_snapio_torn.tbar");
  std::vector<uint8_t> Img = synthSnap(41).serialize();
  {
    SnapArchiveWriter W;
    ASSERT_TRUE(W.open(F.Path));
    ASSERT_TRUE(W.append(Img));
    ASSERT_TRUE(W.append(Img));
    ASSERT_TRUE(W.close());
  }
  // A crashed writer: marker + size frame written, image cut short.
  {
    std::FILE *File = std::fopen(F.Path.c_str(), "ab");
    ASSERT_NE(File, nullptr);
    uint8_t Frame[5] = {0xA5, 0x00, 0x01, 0x00, 0x00}; // Claims 256 bytes.
    ASSERT_EQ(std::fwrite(Frame, 1, 5, File), 5u);
    uint8_t Partial[10] = {0};
    ASSERT_EQ(std::fwrite(Partial, 1, 10, File), 10u);
    std::fclose(File);
  }
  std::vector<SnapArchiveEntry> Entries;
  ASSERT_TRUE(SnapArchive::list(F.Path, Entries));
  EXPECT_EQ(Entries.size(), 2u) << "the torn final entry is dropped";

  // Mid-stream garbage (a damaged marker) is corruption, not a torn tail.
  std::vector<uint8_t> Bytes;
  {
    std::FILE *File = std::fopen(F.Path.c_str(), "rb");
    ASSERT_NE(File, nullptr);
    std::fseek(File, 0, SEEK_END);
    Bytes.resize(static_cast<size_t>(std::ftell(File)));
    std::fseek(File, 0, SEEK_SET);
    ASSERT_EQ(std::fread(Bytes.data(), 1, Bytes.size(), File), Bytes.size());
    std::fclose(File);
  }
  Bytes[8] = 0x00; // First entry marker.
  TempFile G("test_snapio_garbage.tbar");
  {
    std::FILE *File = std::fopen(G.Path.c_str(), "wb");
    ASSERT_NE(File, nullptr);
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), File), Bytes.size());
    std::fclose(File);
  }
  EXPECT_FALSE(SnapArchive::list(G.Path, Entries));
}

TEST(SnapArchiveTest, SourceYieldsIntactEntriesOfATornArchive) {
  // ArchiveSnapSource reads each image at the frame offset its one list
  // pass found (the offset SnapArchiveWriter::tell() reported before the
  // append) and must agree with extract() byte for byte.
  TempFile F("test_snapio_source.tbar");
  std::vector<uint64_t> Frames;
  {
    SnapArchiveWriter W;
    ASSERT_TRUE(W.open(F.Path));
    for (uint64_t Seed : {43, 47, 53}) {
      Frames.push_back(W.tell());
      ASSERT_TRUE(W.append(synthSnap(Seed).serialize()));
    }
    ASSERT_TRUE(W.append(std::vector<uint8_t>(64, 0x5A)));
  }
  // A crashed writer: the final frame claims one byte more than follows.
  std::filesystem::resize_file(F.Path, std::filesystem::file_size(F.Path) - 1);
  std::vector<SnapArchiveEntry> Entries;
  ASSERT_TRUE(SnapArchive::list(F.Path, Entries));
  ArchiveSnapSource Src(F.Path);
  std::vector<uint8_t> Image, Expected;
  std::string Label;
  size_t N = 0;
  for (; Src.nextImage(Image, Label); ++N) {
    ASSERT_LT(N, Frames.size()) << "only intact entries are yielded";
    EXPECT_EQ(Entries[N].Offset, Frames[N]);
    ASSERT_TRUE(SnapArchive::extract(F.Path, N, Expected));
    EXPECT_EQ(Image, Expected) << Label;
  }
  EXPECT_EQ(N, Frames.size());
}

// ----------------------------------------------------------------------------
// Daemon delivery: group fan-out and the zero-copy hand-off.
// ----------------------------------------------------------------------------

namespace {

/// Snaps once mid-run via the runtime API, then finishes.
const char *SnapperSource = R"(
fn main() export {
  var x = 1;
  var i = 0;
  while (i < 60) {
    x = x * 3 + 1;
    x = x % 1000003;
    i = i + 1;
    yield();
  }
  snap(1);
  while (i < 120) {
    x = x * 3 + 1;
    x = x % 1000003;
    i = i + 1;
    yield();
  }
  print(x);
}
)";

/// A quiet group peer: never snaps on its own.
const char *PeerSource = R"(
fn main() export {
  var y = 2;
  var i = 0;
  while (i < 150) {
    y = y * 7 + 1;
    y = y % 1000033;
    i = i + 1;
    yield();
  }
  print(y);
}
)";

/// Two instrumented processes in one default process group, with a
/// per-rig metrics registry so counter assertions are isolated.
struct GroupRig {
  MetricsRegistry Reg;
  Deployment D;
  Machine *M = nullptr;
  Process *Snapper = nullptr;
  Process *Peer = nullptr;

  GroupRig() {
    D.Metrics = &Reg;
    M = D.addMachine("host0");
    Snapper = M->createProcess("snapper");
    Peer = M->createProcess("peer");
  }

  void run() {
    std::string Error;
    ASSERT_NE(D.deploy(*Snapper, compileOrDie(SnapperSource, "snapmod"),
                       /*Instrument=*/true, Error),
              nullptr)
        << Error;
    ASSERT_NE(D.deploy(*Peer, compileOrDie(PeerSource, "peermod"),
                       /*Instrument=*/true, Error),
              nullptr)
        << Error;
    ASSERT_NE(Snapper->start("main"), nullptr);
    ASSERT_NE(Peer->start("main"), nullptr);
    EXPECT_EQ(D.world().run(50'000'000), World::RunResult::AllExited);
  }

  uint64_t counter(const char *Name) { return Reg.counter(Name).value(); }
};

} // namespace

TEST(DaemonIngestTest, DeliversFaultThenGroupPeers) {
  // The faulting snap reaches downstream inside its own delivery call,
  // and the group fan-out it triggers follows with the peer's snap.
  GroupRig Rig;
  Rig.run();
  ASSERT_EQ(Rig.D.snaps().size(), 2u);
  EXPECT_EQ(Rig.D.snaps()[0].Pid, Rig.Snapper->Pid);
  EXPECT_EQ(Rig.D.snaps()[1].Pid, Rig.Peer->Pid);
  EXPECT_EQ(Rig.D.snaps()[1].Reason, SnapReason::GroupPeer);
  EXPECT_EQ(Rig.counter("daemon.snaps_received"), 2u);
}

namespace {

/// A downstream that keeps the shared handles it is given.
struct SharedCollectingSink : SnapSink {
  void onSnap(const std::shared_ptr<const SnapFile> &Snap) override {
    Snaps.push_back(Snap);
  }
  std::vector<std::shared_ptr<const SnapFile>> Snaps;
};

} // namespace

TEST(DaemonIngestTest, TakeSnapPointerReachesDownstreamUncopied) {
  // The instance takeSnap returns is the one downstream receives first,
  // and each group member's snap arrives exactly once.
  World W;
  MetricsRegistry Reg;
  Machine *M = W.createMachine("host0");
  SharedCollectingSink Down;
  ServiceDaemon Daemon(*M, &Down, &Reg);
  std::vector<std::unique_ptr<TracebackRuntime>> Runtimes;
  for (int I = 0; I < 3; ++I) {
    Process *P = M->createProcess("member" + std::to_string(I));
    Runtimes.push_back(std::make_unique<TracebackRuntime>(
        *P, Technology::Native, RtPolicy(), &Daemon, nullptr, &Reg));
    P->attachRuntime(Runtimes.back().get());
    Daemon.watch(*P, *Runtimes.back(), "group");
  }
  std::shared_ptr<const SnapFile> Taken =
      Runtimes[0]->takeSnap(SnapReason::External, 0);
  ASSERT_EQ(Down.Snaps.size(), 3u);
  EXPECT_EQ(Down.Snaps[0].get(), Taken.get());
  std::set<uint64_t> Pids;
  for (const auto &S : Down.Snaps)
    Pids.insert(S->Pid);
  EXPECT_EQ(Pids.size(), 3u);
}
