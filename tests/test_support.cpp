//===- tests/test_support.cpp - support library tests ---------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/ByteStream.h"
#include "support/Compress.h"
#include "support/Hash.h"
#include "support/MD5.h"
#include "support/Random.h"
#include "support/SimClock.h"
#include "support/Text.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace traceback;

// RFC 1321 test vectors.
TEST(MD5Test, Rfc1321Vectors) {
  auto HashOf = [](const std::string &S) {
    return MD5::hash(S.data(), S.size()).toHex();
  };
  EXPECT_EQ(HashOf(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(HashOf("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(HashOf("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(HashOf("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(HashOf("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      HashOf("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(HashOf("1234567890123456789012345678901234567890123456789012345678"
                   "9012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(MD5Test, IncrementalMatchesOneShot) {
  std::string Data(10000, 'x');
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<char>('a' + I % 26);
  MD5 Incremental;
  size_t Pos = 0;
  size_t Chunks[] = {1, 63, 64, 65, 1000, 8000, 777};
  for (size_t C : Chunks) {
    size_t Take = std::min(C, Data.size() - Pos);
    Incremental.update(Data.data() + Pos, Take);
    Pos += Take;
  }
  Incremental.update(Data.data() + Pos, Data.size() - Pos);
  EXPECT_EQ(Incremental.final().toHex(),
            MD5::hash(Data.data(), Data.size()).toHex());
}

TEST(MD5Test, HexRoundTrip) {
  MD5Digest D = MD5::hash("hello", 5);
  MD5Digest Back;
  ASSERT_TRUE(MD5Digest::fromHex(D.toHex(), Back));
  EXPECT_EQ(D, Back);
  EXPECT_FALSE(MD5Digest::fromHex("zz", Back));
  EXPECT_FALSE(MD5Digest::fromHex(std::string(32, 'g'), Back));
}

TEST(HashTest, Crc32cKnownAnswers) {
  EXPECT_EQ(crc32c(0, "123456789", 9), 0xE3069283u);
  // RFC 3720 (iSCSI) section B.4, 32-byte inputs.
  uint8_t Buf[32];
  std::memset(Buf, 0, sizeof(Buf));
  EXPECT_EQ(crc32c(0, Buf, 32), 0x8A9136AAu);
  std::memset(Buf, 0xff, sizeof(Buf));
  EXPECT_EQ(crc32c(0, Buf, 32), 0x62A8AB43u);
  for (int I = 0; I < 32; ++I)
    Buf[I] = static_cast<uint8_t>(I);
  EXPECT_EQ(crc32c(0, Buf, 32), 0x46DD794Eu);
  for (int I = 0; I < 32; ++I)
    Buf[I] = static_cast<uint8_t>(31 - I);
  EXPECT_EQ(crc32c(0, Buf, 32), 0x113FDB5Cu);
  EXPECT_EQ(crc32c(0, Buf, 0), 0u);
}

TEST(HashTest, Crc32cContinuesAcrossSplits) {
  std::vector<uint8_t> Data(300);
  Rng Rand(11);
  for (uint8_t &B : Data)
    B = static_cast<uint8_t>(Rand.next());
  uint32_t Whole = crc32c(0, Data.data(), Data.size());
  for (size_t Cut = 0; Cut <= Data.size(); ++Cut)
    EXPECT_EQ(crc32c(crc32c(0, Data.data(), Cut), Data.data() + Cut,
                     Data.size() - Cut),
              Whole)
        << "split at " << Cut;
}

TEST(HashTest, Crc32cTablePathMatchesDispatchedPath) {
  // crc32c runs the SSE4.2 instruction on hosts that have it; there this
  // holds it to the table path at every length and alignment its loops
  // split differently. Elsewhere both calls run the table path.
  std::vector<uint8_t> Data(300 + 8);
  Rng Rand(12);
  for (uint8_t &B : Data)
    B = static_cast<uint8_t>(Rand.next());
  for (size_t Off = 0; Off < 8; ++Off)
    for (size_t Len = 0; Len <= 300; ++Len)
      ASSERT_EQ(crc32c(0x1234567u, Data.data() + Off, Len),
                crc32cPortable(0x1234567u, Data.data() + Off, Len))
          << "offset " << Off << " length " << Len;
}

TEST(HashTest, Hash64KnownAnswersAndBitSensitivity) {
  EXPECT_EQ(hash64("", 0, 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(hash64("abc", 3, 0), 0x44BC2CF5AD770999ull);
  const char *Long = "Nobody inspects the spammish repetition";
  EXPECT_EQ(hash64(Long, std::strlen(Long), 0), 0xFBCEA83C8A378BF1ull);
  std::vector<uint8_t> Data(300);
  Rng Rand(13);
  for (uint8_t &B : Data)
    B = static_cast<uint8_t>(Rand.next());
  uint64_t Base = hash64(Data.data(), Data.size(), 0);
  EXPECT_NE(hash64(Data.data(), Data.size(), 1), Base);
  for (size_t Bit = 0; Bit < Data.size() * 8; ++Bit) {
    Data[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
    EXPECT_NE(hash64(Data.data(), Data.size(), 0), Base) << "bit " << Bit;
    Data[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
  }
}

TEST(ByteStreamTest, PrimitivesRoundTrip) {
  std::vector<uint8_t> Buf;
  ByteWriter W(Buf);
  W.writeU8(0xAB);
  W.writeU16(0xBEEF);
  W.writeU32(0xDEADBEEF);
  W.writeU64(0x0123456789ABCDEFull);
  W.writeI64(-42);
  W.writeVarU64(0);
  W.writeVarU64(127);
  W.writeVarU64(128);
  W.writeVarU64(UINT64_MAX);
  W.writeString("hello world");
  W.writeBlob({1, 2, 3});

  ByteReader R(Buf);
  EXPECT_EQ(R.readU8(), 0xAB);
  EXPECT_EQ(R.readU16(), 0xBEEF);
  EXPECT_EQ(R.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(R.readU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.readI64(), -42);
  EXPECT_EQ(R.readVarU64(), 0u);
  EXPECT_EQ(R.readVarU64(), 127u);
  EXPECT_EQ(R.readVarU64(), 128u);
  EXPECT_EQ(R.readVarU64(), UINT64_MAX);
  EXPECT_EQ(R.readString(), "hello world");
  EXPECT_EQ(R.readBlob(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_FALSE(R.failed());
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteStreamTest, TruncationSetsFailed) {
  std::vector<uint8_t> Buf;
  ByteWriter W(Buf);
  W.writeU32(7);
  ByteReader R(Buf);
  R.readU32();
  R.readU64(); // Past the end.
  EXPECT_TRUE(R.failed());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(ByteStreamTest, MalformedStringLength) {
  std::vector<uint8_t> Buf;
  ByteWriter W(Buf);
  W.writeVarU64(1000); // Claims 1000 bytes follow; none do.
  ByteReader R(Buf);
  EXPECT_EQ(R.readString(), "");
  EXPECT_TRUE(R.failed());
}

TEST(CompressTest, RoundTripVaried) {
  Rng Rand(7);
  for (int Case = 0; Case < 20; ++Case) {
    std::vector<uint8_t> Data;
    size_t Len = Rand.below(20000);
    // Mix of random and repetitive content.
    for (size_t I = 0; I < Len; ++I) {
      if (Rand.chance(3, 4))
        Data.push_back(static_cast<uint8_t>(Rand.below(4)));
      else
        Data.push_back(static_cast<uint8_t>(Rand.next()));
    }
    std::vector<uint8_t> Packed = lzCompress(Data);
    std::vector<uint8_t> Back;
    ASSERT_TRUE(lzDecompress(Packed, Back));
    EXPECT_EQ(Back, Data);
  }
}

TEST(CompressTest, EmptyInput) {
  std::vector<uint8_t> Packed = lzCompress({});
  std::vector<uint8_t> Back{1, 2, 3};
  ASSERT_TRUE(lzDecompress(Packed, Back));
  EXPECT_TRUE(Back.empty());
}

TEST(CompressTest, RepetitiveDataCompressesWell) {
  // Trace-buffer-like content: repeating 32-bit patterns.
  std::vector<uint8_t> Data;
  for (int I = 0; I < 4096; ++I) {
    uint32_t W = 0x80000400u | (I % 7);
    for (int B = 0; B < 4; ++B)
      Data.push_back(static_cast<uint8_t>(W >> (B * 8)));
  }
  std::vector<uint8_t> Packed = lzCompress(Data);
  EXPECT_LT(Packed.size() * 5, Data.size()) << "expected at least 5x";
  std::vector<uint8_t> Back;
  ASSERT_TRUE(lzDecompress(Packed, Back));
  EXPECT_EQ(Back, Data);
}

TEST(CompressTest, CorruptStreamRejected) {
  std::vector<uint8_t> Data(1000, 42);
  std::vector<uint8_t> Packed = lzCompress(Data);
  Packed.resize(Packed.size() / 2); // Truncate.
  std::vector<uint8_t> Back;
  EXPECT_FALSE(lzDecompress(Packed, Back));
}

TEST(SimClockTest, SkewAndDrift) {
  SimClock Base(0, 1, 1);
  SimClock Ahead(1000, 1, 1);
  SimClock Fast(0, 1001, 1000);
  EXPECT_EQ(Base.read(500), 500u);
  EXPECT_EQ(Ahead.read(500), 1500u);
  EXPECT_EQ(Fast.read(1000000), 1001000u);
  // Drift accumulates.
  EXPECT_GT(Fast.read(2000000) - Base.read(2000000),
            Fast.read(1000000) - Base.read(1000000));
}

TEST(TextTest, Helpers) {
  EXPECT_EQ(formatv("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(splitString("a, b,,c", ", "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(trimString("  hi \t"), "hi");
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  int64_t V = 0;
  EXPECT_TRUE(parseInt("0x10", V));
  EXPECT_EQ(V, 16);
  EXPECT_TRUE(parseInt("-5", V));
  EXPECT_EQ(V, -5);
  EXPECT_FALSE(parseInt("12x", V));
  EXPECT_FALSE(parseInt("", V));
}

TEST(TextTest, AppendsMatchPrintf) {
  for (uint64_t V : {uint64_t(0), uint64_t(7), uint64_t(0xabc), uint64_t(999),
                     uint64_t(1000), UINT64_MAX}) {
    std::string S = "<";
    appendDecimal(S, V);
    S += '|';
    appendHex(S, V);
    S += '|';
    appendHex(S, V, 16);
    S += '|';
    appendHex(S, V, 2);
    unsigned long long U = V;
    EXPECT_EQ(S, formatv("<%llu|%llx|%016llx|%02llx", U, U, U, U));
  }
  for (const char *Str : {"", "abc", "thirteen_char", "fourteen_chars",
                          "name_longer_than_fourteen"}) {
    std::string S;
    appendCString(S, Str, 14);
    appendCString(S, Str);
    EXPECT_EQ(S, formatv("%-14s%s", Str, Str));
  }
  // "%s" stops at the first NUL, and pads by what it printed.
  const std::string WithNul("cut\0hidden", 10);
  std::string S;
  appendCString(S, WithNul.c_str(), 5);
  EXPECT_EQ(S, "cut  ");
}

TEST(RandomTest, DeterministicAndRanged) {
  Rng A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
  for (int I = 0; I < 1000; ++I) {
    int64_t V = A.range(-3, 9);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 9);
    double U = A.unit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}
