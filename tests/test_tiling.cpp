//===- tests/test_tiling.cpp - DAG tiling tests ---------------------------===//
//
// Part of the TraceBack reproduction project (paper section 2.1).
//
//===----------------------------------------------------------------------===//

#include "instrument/DagTiling.h"
#include "instrument/Instrumenter.h"
#include "instrument/MapFile.h"
#include "isa/Assembler.h"
#include "lang/CodeGen.h"
#include "reconstruct/Reconstructor.h"
#include "support/Random.h"
#include "vm/Syscalls.h"

#include <gtest/gtest.h>

using namespace traceback;

namespace {
std::vector<FunctionCFG> cfgsOf(const Module &M) {
  std::vector<FunctionCFG> CFGs;
  std::string Error;
  EXPECT_TRUE(buildCFGs(M, CFGs, Error)) << Error;
  return CFGs;
}

Module assemble(const std::string &Src) {
  Assembler Asm(syscallAssemblerConstants());
  Module M;
  std::string Error;
  EXPECT_TRUE(Asm.assemble(Src, M, Error)) << Error;
  return M;
}

/// Generates a random structured MiniLang function body (structured
/// control flow gives realistic reducible CFGs).
std::string randomBody(Rng &Rand, int Depth) {
  std::string S;
  int Stmts = 1 + static_cast<int>(Rand.below(4));
  for (int I = 0; I < Stmts; ++I) {
    switch (Rand.below(Depth > 2 ? 2 : 4)) {
    case 0:
      S += "x = x + " + std::to_string(Rand.below(9)) + ";\n";
      break;
    case 1:
      S += "y = y * 2 + x % 7;\n";
      break;
    case 2:
      S += "if (x % " + std::to_string(2 + Rand.below(5)) + " == 0) {\n" +
           randomBody(Rand, Depth + 1) + "} else {\n" +
           randomBody(Rand, Depth + 1) + "}\n";
      break;
    case 3:
      S += "while (y > " + std::to_string(Rand.below(50)) + ") {\n" +
           randomBody(Rand, Depth + 1) + "y = y / 2;\n}\n";
      break;
    }
  }
  return S;
}
} // namespace

TEST(TilingTest, InvariantsOnStructuredCode) {
  Rng Rand(99);
  for (int Case = 0; Case < 30; ++Case) {
    std::string Source = "fn f(x) {\nvar y = x + 1;\n" +
                         randomBody(Rand, 0) + "return y;\n}\n";
    Module M;
    std::string Error;
    ASSERT_TRUE(minilang::compileMiniLang(Source, "r.ml", "m",
                                          Technology::Native, M, Error))
        << Error << "\n" << Source;
    for (const FunctionCFG &F : cfgsOf(M)) {
      TileOptions Opts;
      FunctionTiling T = tileFunction(F, Opts);
      std::string Violation = checkTilingInvariants(F, T, Opts);
      EXPECT_TRUE(Violation.empty()) << Violation << "\n" << Source;
    }
  }
}

TEST(TilingTest, SmallerBitBudgetMakesMoreDags) {
  Module M;
  std::string Error;
  std::string Source = R"(
fn f(x) {
  var y = 0;
  if (x > 1) { y = 1; } else { y = 2; }
  if (x > 2) { y = y + 1; } else { y = y + 2; }
  if (x > 3) { y = y + 1; } else { y = y + 2; }
  if (x > 4) { y = y + 1; } else { y = y + 2; }
  return y;
}
)";
  ASSERT_TRUE(minilang::compileMiniLang(Source, "r.ml", "m",
                                        Technology::Native, M, Error));
  std::vector<FunctionCFG> CFGs = cfgsOf(M);
  const FunctionCFG *F = nullptr;
  for (const FunctionCFG &C : CFGs)
    if (C.Name == "f")
      F = &C;
  ASSERT_NE(F, nullptr);
  TileOptions Wide, Narrow;
  Wide.PathBits = 10;
  Narrow.PathBits = 2;
  size_t WideDags = tileFunction(*F, Wide).Dags.size();
  size_t NarrowDags = tileFunction(*F, Narrow).Dags.size();
  EXPECT_GT(NarrowDags, WideDags);
  EXPECT_TRUE(
      checkTilingInvariants(*F, tileFunction(*F, Narrow), Narrow).empty());
}

TEST(TilingTest, MandatoryHeaderSites) {
  Module M = assemble(R"(.module m
.func f export
  call g
  movi r1, 1
head:
  addi r1, r1, -1
  brnz r1, head
  ret
.endfunc
.func g
  ret
.endfunc
)");
  std::vector<FunctionCFG> CFGs = cfgsOf(M);
  for (const FunctionCFG &F : CFGs) {
    FunctionTiling T = tileFunction(F, TileOptions());
    for (const BasicBlock &B : F.Blocks) {
      if (B.IsFunctionEntry || B.IsCallReturnPoint || B.IsBackEdgeTarget) {
        EXPECT_TRUE(T.isHeader(B.Index))
            << F.Name << " block " << B.Index;
      }
    }
  }
}

TEST(TilingTest, NoCallHeadersWhenDisabled) {
  Module M = assemble(R"(.module m
.func f export
  call g
  movi r1, 1
  ret
.endfunc
.func g
  ret
.endfunc
)");
  std::vector<FunctionCFG> CFGs = cfgsOf(M);
  TileOptions NoCallBreaks;
  NoCallBreaks.HeadersAtCallReturns = false;
  for (const FunctionCFG &F : CFGs) {
    if (F.Name != "f")
      continue;
    FunctionTiling T = tileFunction(F, NoCallBreaks);
    EXPECT_EQ(T.Dags.size(), 1u)
        << "without call breaks, f is a single DAG";
  }
}

TEST(TilingTest, EveryBlockHeaderMode) {
  Module M = assemble(R"(.module m
.func f export
  brz r0, a
  movi r1, 1
a:
  ret
.endfunc
)");
  std::vector<FunctionCFG> CFGs = cfgsOf(M);
  TileOptions Naive;
  Naive.EveryBlockIsHeader = true;
  for (const FunctionCFG &F : CFGs) {
    FunctionTiling T = tileFunction(F, Naive);
    EXPECT_EQ(T.Dags.size(), F.Blocks.size());
    EXPECT_TRUE(checkTilingInvariants(F, T, Naive).empty());
  }
}

// ---------------------------------------------------------------------------
// Path decode: bit-set -> unique path.
// ---------------------------------------------------------------------------

namespace {
/// Builds a MapDag from an adjacency description. Bit indices follow the
/// order blocks are listed (header first, bitless blocks marked -1).
MapDag makeDag(const std::vector<std::pair<int, std::vector<uint16_t>>> &Blocks) {
  MapDag D;
  for (const auto &[Bit, Succs] : Blocks) {
    MapBlock B;
    B.BitIndex = static_cast<int8_t>(Bit);
    B.Succs = Succs;
    D.Blocks.push_back(B);
  }
  return D;
}
} // namespace

TEST(PathDecodeTest, DiamondPaths) {
  // 0 -> {1, 2} -> 3 (classic diamond; 3 has a bit because its preds
  // branch).
  MapDag D = makeDag({{-1, {1, 2}}, {0, {3}}, {1, {3}}, {2, {}}});
  EXPECT_EQ(decodeDagPath(D, 0b001 | 0b100),
            (std::vector<uint16_t>{0, 1, 3}));
  EXPECT_EQ(decodeDagPath(D, 0b010 | 0b100),
            (std::vector<uint16_t>{0, 2, 3}));
  // Partial execution: crashed inside block 1 before reaching 3.
  EXPECT_EQ(decodeDagPath(D, 0b001), (std::vector<uint16_t>{0, 1}));
  // Header only.
  EXPECT_EQ(decodeDagPath(D, 0), (std::vector<uint16_t>{0}));
  // Inconsistent bits (both arms) decode to nothing.
  EXPECT_TRUE(decodeDagPath(D, 0b011).empty());
}

TEST(PathDecodeTest, ReconvergentChain) {
  // 0 -> {1, 2}; 1 -> 2 (2 reachable two ways: needs a bit; path with both
  // arms is the 0,1,2 path).
  MapDag D = makeDag({{-1, {1, 2}}, {0, {2}}, {1, {}}});
  EXPECT_EQ(decodeDagPath(D, 0b11), (std::vector<uint16_t>{0, 1, 2}));
  EXPECT_EQ(decodeDagPath(D, 0b10), (std::vector<uint16_t>{0, 2}));
  EXPECT_EQ(decodeDagPath(D, 0b01), (std::vector<uint16_t>{0, 1}));
}

TEST(PathDecodeTest, ImpliedBlocksFilledIn) {
  // 0 -> 1 (no bit, single succ chain) -> 2 (no bit) — pure fallthrough.
  MapDag D = makeDag({{-1, {1}}, {-1, {2}}, {-1, {}}});
  EXPECT_EQ(decodeDagPath(D, 0), (std::vector<uint16_t>{0, 1, 2}));
}

TEST(PathDecodeTest, RandomDagsDecodeUniquely) {
  // Property: for random DAG shapes built by the real tiler over random
  // structured code, every root path's bit-set decodes back to that path.
  Rng Rand(123);
  for (int Case = 0; Case < 20; ++Case) {
    std::string Source = "fn f(x) {\nvar y = x;\n" + randomBody(Rand, 0) +
                         "return y;\n}\n";
    Module M;
    std::string Error;
    ASSERT_TRUE(minilang::compileMiniLang(Source, "r.ml", "m",
                                          Technology::Native, M, Error));
    Module Instr;
    MapFile Map;
    InstrumentOptions Opts;
    ASSERT_TRUE(
        instrumentModule(M, Opts, Instr, Map, nullptr, Error))
        << Error;
    for (const MapDag &D : Map.Dags) {
      // Enumerate all root paths by DFS.
      struct Enum {
        const MapDag &D;
        int Checked = 0;
        void walk(uint16_t Cur, uint32_t Bits,
                  std::vector<uint16_t> &Path) {
          // Check this prefix decodes to itself (prefixes model partial
          // execution).
          std::vector<uint16_t> Got = decodeDagPath(D, Bits);
          ASSERT_FALSE(Got.empty());
          // The decode may extend through implied blocks; our enumerated
          // path must be a prefix of the decode or equal after implied
          // extension.
          ASSERT_LE(Path.size(), Got.size());
          for (size_t I = 0; I < Path.size(); ++I)
            ASSERT_EQ(Got[I], Path[I]);
          // The extension beyond the prefix must be bit-free.
          for (size_t I = Path.size(); I < Got.size(); ++I)
            ASSERT_EQ(D.Blocks[Got[I]].BitIndex, -1);
          if (++Checked > 300)
            return; // Bound the walk.
          for (uint16_t S : D.Blocks[Cur].Succs) {
            uint32_t NewBits = Bits;
            if (D.Blocks[S].BitIndex >= 0)
              NewBits |= 1u << D.Blocks[S].BitIndex;
            Path.push_back(S);
            walk(S, NewBits, Path);
            Path.pop_back();
          }
        }
      };
      Enum E{D};
      std::vector<uint16_t> Path{0};
      E.walk(0, 0, Path);
    }
  }
}
