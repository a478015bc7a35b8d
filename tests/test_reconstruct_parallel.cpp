//===- tests/test_reconstruct_parallel.cpp - Pipeline equivalence ---------===//
//
// Part of the TraceBack reproduction project.
//
// The batch reconstruction pipeline (decode cache, memoized resolution,
// worker pool) must be a pure performance change: for ANY snap, the
// rendered traces and the warning stream must be byte-identical to the
// legacy single-threaded uncached reconstruction, for every combination
// of cache setting and worker count. A seeded 100-workload sweep checks
// exactly that, plus unit tests for the new support pieces.
//
//===----------------------------------------------------------------------===//

#include "ReconstructHelpers.h"
#include "reconstruct/Reconstructor.h"
#include "reconstruct/SynthWorkload.h"
#include "reconstruct/Views.h"
#include "support/FlatMap.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

using namespace traceback;
using namespace traceback::testing_helpers;

namespace {

/// Everything observable about a reconstruction, as one string.
std::string renderEverything(const SnapFile &Snap,
                             const ReconstructedTrace &T) {
  std::string Out = renderFaultView(Snap, T);
  for (const ThreadTrace &Thread : T.Threads) {
    Out += renderFlatTrace(Thread);
    Out += renderCallTree(Thread);
  }
  for (const std::string &W : T.Warnings) {
    Out += W;
    Out += '\n';
  }
  return Out;
}

std::string reconstructRendered(const SynthWorkload &W,
                                const MapFileStore &Store,
                                const ReconstructOptions &Opts,
                                ThreadPool *Pool) {
  Reconstructor R(Store, Opts);
  ReconstructedTrace T = R.reconstruct(W.Snap, Pool);
  return renderEverything(W.Snap, T);
}

} // namespace

// ---------------------------------------------------------------------------
// The property: every pipeline configuration renders the legacy bytes.
// ---------------------------------------------------------------------------

TEST(ReconstructParallelProperty, HundredSeedSweepIsByteIdentical) {
  uint64_t Base = seedFromEnv("TRACEBACK_TEST_SEED", 0xB00573D);
  SynthWorkloadOptions O;
  O.Modules = 4;
  O.DagsPerModule = 6;
  O.Threads = 3;
  O.RecordsPerThread = 200;
  O.HotPairs = 8;
  O.HotPercent = 80;
  O.IncludeCorrupt = true; // Warning paths must match too.

  ThreadPool Pool(4);
  for (uint64_t I = 0; I < 100; ++I) {
    uint64_t Seed = Base + I;
    SynthWorkload W = makeSynthWorkload(Seed, O);
    MapFileStore Store;
    for (MapFile &M : W.Maps)
      ASSERT_TRUE(Store.add(std::move(M)));

    ReconstructOptions Legacy;
    Legacy.Cache.LegacyUncached = true;
    std::string Reference = reconstructRendered(W, Store, Legacy, nullptr);
    ASSERT_FALSE(Reference.empty());

    ReconstructOptions Cached;
    ReconstructOptions Uncached;
    Uncached.Cache.Enabled = false;
    struct Variant {
      const char *Name;
      const ReconstructOptions *Opts;
      ThreadPool *Pool;
    } Variants[] = {
        {"cache,jobs=1", &Cached, nullptr},
        {"nocache,jobs=1", &Uncached, nullptr},
        {"cache,jobs=4", &Cached, &Pool},
        {"nocache,jobs=4", &Uncached, &Pool},
    };
    for (const Variant &V : Variants)
      ASSERT_EQ(Reference, reconstructRendered(W, Store, *V.Opts, V.Pool))
          << "variant " << V.Name << " diverged on seed " << Seed;
  }
}

TEST(ReconstructParallelProperty, SharedReconstructorAcrossSnaps) {
  // Batch mode reuses one Reconstructor (one decode cache) across many
  // snaps; the cache must not leak state between them.
  SynthWorkloadOptions O;
  O.Modules = 3;
  O.DagsPerModule = 5;
  O.Threads = 2;
  O.RecordsPerThread = 150;
  uint64_t Base = seedFromEnv("TRACEBACK_TEST_SEED", 0xB00573D) ^ 0x5eed;

  std::vector<SynthWorkload> Snaps;
  for (uint64_t I = 0; I < 4; ++I)
    Snaps.push_back(makeSynthWorkload(Base + I, O));
  MapFileStore Store;
  for (SynthWorkload &W : Snaps)
    for (MapFile &M : W.Maps)
      Store.add(std::move(M));

  std::vector<std::string> Isolated;
  for (SynthWorkload &W : Snaps) {
    Reconstructor R(Store);
    Isolated.push_back(renderEverything(W.Snap, R.reconstruct(W.Snap)));
  }
  MetricsRegistry SharedMetrics;
  Reconstructor Shared(Store, &SharedMetrics);
  for (size_t I = 0; I < Snaps.size(); ++I)
    EXPECT_EQ(Isolated[I], renderEverything(Snaps[I].Snap,
                                            Shared.reconstruct(Snaps[I].Snap)))
        << "snap " << I;
  EXPECT_GT(Shared.pathCache().hits() + Shared.pathCache().misses(), 0u);
}

// ---------------------------------------------------------------------------
// Exception trimming: SynthWorkload emits no Exception records, so this
// sweep hand-builds rings around them.
// ---------------------------------------------------------------------------

namespace {

/// Each DAG of a trim-sweep module occupies this many code bytes; offsets
/// below the first DAG's range and past the last one's fall outside every
/// block.
constexpr uint32_t TrimDagSpan = 1000;

/// A module whose DAGs are diamonds — a root, then- and else-arms on path
/// bits 0 and 1, a join on bit 2 — with one to three lines per block drawn
/// from four line numbers of one file, so adjacent lines repeat within
/// and across records, and random call/entry/return flags.
MapFile trimSweepMap(Rng &R, const std::string &Name, uint32_t DagIdBase,
                     uint32_t Dags) {
  MapFile Map;
  Map.ModuleName = Name;
  Map.Checksum = MD5::hash(Name.data(), Name.size());
  Map.DagIdBase = DagIdBase;
  Map.DagIdCount = Dags;
  Map.Files = {Name + ".c"};
  const uint8_t FlagChoices[] = {0, MBF_FuncEntry, MBF_EndsInCall,
                                 MBF_EndsInRet};
  for (uint32_t D = 0; D < Dags; ++D) {
    MapDag Dag;
    Dag.RelId = D;
    uint32_t Offset = (D + 1) * TrimDagSpan;
    for (int BI = 0; BI < 4; ++BI) {
      MapBlock B;
      B.BitIndex = static_cast<int8_t>(BI - 1);
      B.Flags = FlagChoices[R.below(4)];
      B.Function = BI < 2 ? "f" : "g";
      B.StartOffset = Offset;
      unsigned Lines = 1 + static_cast<unsigned>(R.below(3));
      for (unsigned L = 0; L < Lines; ++L) {
        B.Lines.push_back({0, 1 + static_cast<uint32_t>(R.below(4)), Offset});
        Offset += 4 + static_cast<uint32_t>(R.below(8));
      }
      B.EndOffset = Offset;
      Dag.Blocks.push_back(B);
    }
    Dag.Blocks[0].Succs = {1, 2};
    Dag.Blocks[1].Succs = {3};
    Dag.Blocks[2].Succs = {3};
    Map.Dags.push_back(Dag);
  }
  return Map;
}

struct TrimSweepCase {
  std::vector<MapFile> Maps;
  SnapFile Snap;
};

/// One to three threads of DAG records (mostly valid paths, some that do
/// not decode) interleaved with Exception records faulting before, inside
/// or past the latest DAG record's blocks — in its module or another —
/// plus ExceptionEnd, Sync and Timestamp records.
TrimSweepCase makeTrimSweepCase(uint64_t Seed) {
  Rng R(Seed);
  TrimSweepCase C;
  const uint32_t Dags = 3;
  C.Maps.push_back(trimSweepMap(R, "trima", 10, Dags));
  C.Maps.push_back(trimSweepMap(R, "trimb", 10 + Dags, Dags));
  for (const MapFile &M : C.Maps) {
    SnapModuleInfo MI;
    MI.Name = M.ModuleName;
    MI.Checksum = M.Checksum;
    MI.DagIdBase = M.DagIdBase;
    MI.DagIdCount = M.DagIdCount;
    MI.Instrumented = true;
    C.Snap.Modules.push_back(MI);
  }
  C.Snap.ProcessName = "p";
  C.Snap.MachineName = "m";
  C.Snap.RuntimeId = 9;
  C.Snap.Reason = SnapReason::Unhandled;
  C.Snap.FaultThread = 1;

  const uint32_t ValidBits[] = {0b000, 0b101, 0b110};
  uint64_t Threads = 1 + R.below(3);
  for (uint64_t Tid = 1; Tid <= Threads; ++Tid) {
    std::vector<uint32_t> Words;
    append(Words, threadStart(Tid));
    const MapFile *LastMap = nullptr;
    const MapDag *LastDag = nullptr;
    uint64_t Ts = 10;
    uint64_t Records = 20 + R.below(100);
    for (uint64_t I = 0; I < Records; ++I) {
      uint64_t Kind = R.below(10);
      if (Kind < 5 || !LastDag) {
        LastMap = &C.Maps[R.below(C.Maps.size())];
        uint32_t RelId = static_cast<uint32_t>(R.below(Dags));
        LastDag = &LastMap->Dags[RelId];
        uint32_t Bits = R.chance(1, 12) ? 0b011 : ValidBits[R.below(3)];
        Words.push_back(makeDagRecord(LastMap->DagIdBase + RelId) | Bits);
      } else if (Kind < 8) {
        uint32_t Off;
        switch (R.below(3)) {
        case 0: // Before every block.
          Off = static_cast<uint32_t>(R.below(TrimDagSpan));
          break;
        case 1: { // Inside one of the latest record's DAG's blocks.
          const MapBlock &B = LastDag->Blocks[R.below(4)];
          Off = B.StartOffset +
                static_cast<uint32_t>(R.below(B.EndOffset - B.StartOffset));
          break;
        }
        default: // Past every block.
          Off = (Dags + 1) * TrimDagSpan +
                static_cast<uint32_t>(R.below(TrimDagSpan));
          break;
        }
        uint64_t Key = R.chance(1, 5) ? C.Maps[R.below(2)].Checksum.low64()
                                      : LastMap->Checksum.low64();
        append(Words,
               encodeExtRecord({ExtType::Exception,
                                static_cast<uint16_t>(1 + R.below(5)),
                                {Key, Off, ++Ts}}));
      } else if (Kind == 8) {
        append(Words, encodeExtRecord({ExtType::ExceptionEnd,
                                       static_cast<uint16_t>(1 + R.below(5)),
                                       {++Ts}}));
      } else if (R.chance(1, 2)) {
        append(Words, encodeExtRecord({ExtType::Sync,
                                       static_cast<uint16_t>(R.below(4)),
                                       {Tid, I, 9, ++Ts}}));
      } else {
        append(Words, encodeExtRecord({ExtType::Timestamp, 0, {++Ts}}));
      }
    }
    // All words stay in the first sub-buffer, so the cursor is their end.
    C.Snap.Buffers.push_back(makeBuffer(Words, 2048, 2, UINT32_MAX, Tid));
    SnapThreadInfo TI;
    TI.ThreadId = Tid;
    TI.Cursor = RingRecordsBase + (Words.size() - 1) * 4;
    C.Snap.Threads.push_back(TI);
  }
  return C;
}

} // namespace

TEST(ReconstructParallelProperty, ExceptionTrimSweepIsByteIdentical) {
  uint64_t Base = seedFromEnv("TRACEBACK_TEST_SEED", 0xB00573D) ^ 0x7219;
  ThreadPool Pool(4);
  ReconstructOptions Legacy;
  Legacy.Cache.LegacyUncached = true;
  ReconstructOptions Cached;
  ReconstructOptions Uncached;
  Uncached.Cache.Enabled = false;
  size_t Trimmed = 0, Repeated = 0;
  for (uint64_t I = 0; I < 200; ++I) {
    uint64_t Seed = Base + I;
    TrimSweepCase C = makeTrimSweepCase(Seed);
    MapFileStore Store;
    for (MapFile &M : C.Maps)
      ASSERT_TRUE(Store.add(std::move(M)));

    ReconstructedTrace Ref = Reconstructor(Store, Legacy).reconstruct(C.Snap);
    for (const ThreadTrace &T : Ref.Threads)
      for (const TraceEvent &E : T.Events) {
        Trimmed += E.Trimmed;
        Repeated += E.Repeat > 1;
      }
    std::string Reference = renderEverything(C.Snap, Ref);
    struct Variant {
      const char *Name;
      const ReconstructOptions *Opts;
      ThreadPool *Pool;
    } Variants[] = {
        {"cache,jobs=1", &Cached, nullptr},
        {"nocache,jobs=1", &Uncached, nullptr},
        {"cache,jobs=4", &Cached, &Pool},
        {"nocache,jobs=4", &Uncached, &Pool},
    };
    for (const Variant &V : Variants) {
      Reconstructor R(Store, *V.Opts);
      ReconstructedTrace T = R.reconstruct(C.Snap, V.Pool);
      ASSERT_EQ(Reference, renderEverything(C.Snap, T))
          << "variant " << V.Name << " diverged on seed " << Seed;
    }
  }
  // The sweep is only worth its name if it trims and repeats.
  EXPECT_GT(Trimmed, 100u);
  EXPECT_GT(Repeated, 100u);
}

// ---------------------------------------------------------------------------
// Decode cache.
// ---------------------------------------------------------------------------

namespace {

/// Tiny two-way branch DAG: header -> (a | b) -> join.
MapDag diamondDag() {
  MapDag D;
  D.RelId = 0;
  auto Block = [](uint32_t Start, int8_t Bit) {
    MapBlock B;
    B.StartOffset = Start;
    B.EndOffset = Start + 8;
    B.BitIndex = Bit;
    B.Function = "f";
    B.Lines.push_back({0, Start / 8 + 1, Start});
    return B;
  };
  D.Blocks.push_back(Block(0, -1));
  D.Blocks.push_back(Block(8, 0));
  D.Blocks.push_back(Block(16, 1));
  D.Blocks.push_back(Block(24, 2));
  D.Blocks[0].Succs = {1, 2};
  D.Blocks[1].Succs = {3};
  D.Blocks[2].Succs = {3};
  return D;
}

} // namespace

TEST(DagPathCacheTest, HitsAndContentAddressing) {
  MapDag D = diamondDag();
  MetricsRegistry Reg;
  DagPathCache Cache(Reg);
  SharedDagPath P1 = Cache.decode(1, D, 0b101);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 0u);
  ASSERT_TRUE(P1);
  EXPECT_EQ(*P1, (std::vector<uint16_t>{0, 1, 3}));

  SharedDagPath P2 = Cache.decode(1, D, 0b101);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(P1.get(), P2.get()) << "hit must share the decoded path";

  // A different module key is a different cache line even for the same
  // DAG shape and bits.
  SharedDagPath P3 = Cache.decode(2, D, 0b101);
  EXPECT_EQ(Cache.misses(), 2u);
  EXPECT_EQ(*P3, *P1);

  // Negative results (undecodable bits) are cached too.
  SharedDagPath Bad1 = Cache.decode(1, D, 0b011); // Both arms: impossible.
  ASSERT_TRUE(Bad1);
  EXPECT_TRUE(Bad1->empty());
  uint64_t MissesBefore = Cache.misses();
  SharedDagPath Bad2 = Cache.decode(1, D, 0b011);
  EXPECT_EQ(Cache.misses(), MissesBefore);
  EXPECT_TRUE(Bad2->empty());
}

// ---------------------------------------------------------------------------
// Iterative decoder hardening.
// ---------------------------------------------------------------------------

TEST(DecodeDagPathTest, VeryDeepImpliedChainDecodesIteratively) {
  // header -> 40000 implied blocks -> one bit block. The pre-PR
  // recursive DFS would grow the call stack linearly with the chain;
  // the explicit-stack walk handles it in bounded stack space.
  const uint16_t Chain = 40000;
  MapDag D;
  D.RelId = 0;
  for (uint32_t I = 0; I < Chain + 2u; ++I) {
    MapBlock B;
    B.StartOffset = I * 4;
    B.EndOffset = I * 4 + 4;
    B.BitIndex = -1;
    B.Function = "deep";
    D.Blocks.push_back(std::move(B));
  }
  D.Blocks.back().BitIndex = 0;
  for (uint32_t I = 0; I + 1 < Chain + 2u; ++I)
    D.Blocks[I].Succs = {static_cast<uint16_t>(I + 1)};

  std::vector<uint16_t> Path = decodeDagPath(D, 1u << 0);
  ASSERT_EQ(Path.size(), Chain + 2u);
  EXPECT_EQ(Path.front(), 0u);
  EXPECT_EQ(Path.back(), Chain + 1u);

  // Bit unset: the walk must not claim the chain ran to the bit block.
  EXPECT_EQ(decodeDagPath(D, 0).size(), Chain + 1u)
      << "unset trailing bit stops the tail extension at the bit block";
}

TEST(DecodeDagPathTest, CorruptSuccessorIndexIsIgnored) {
  MapDag D = diamondDag();
  D.Blocks[1].Succs = {999}; // Out of range: edge must be skipped.
  // Arm a no longer reaches the join, so "a then join" cannot decode.
  EXPECT_TRUE(decodeDagPath(D, 0b101).empty());
  // Arm b's route is intact.
  EXPECT_EQ(decodeDagPath(D, 0b110), (std::vector<uint16_t>{0, 2, 3}));
}

TEST(DecodeDagPathTest, CyclicImpliedChainTerminates) {
  // header -> implied a <-> implied b cycle. Corrupt map data must not
  // hang the decoder.
  MapDag D;
  D.RelId = 0;
  for (uint32_t I = 0; I < 3; ++I) {
    MapBlock B;
    B.StartOffset = I * 4;
    B.EndOffset = I * 4 + 4;
    B.BitIndex = -1;
    D.Blocks.push_back(std::move(B));
  }
  D.Blocks[0].Succs = {1};
  D.Blocks[1].Succs = {2};
  D.Blocks[2].Succs = {1}; // Cycle.
  std::vector<uint16_t> Path = decodeDagPath(D, 0);
  EXPECT_EQ(Path, (std::vector<uint16_t>{0, 1, 2}))
      << "tail extension stops at the first revisited block";
}

// ---------------------------------------------------------------------------
// MapFileStore duplicate registration.
// ---------------------------------------------------------------------------

TEST(MapFileStoreTest, DuplicateChecksumLastAddWins) {
  MapFile A;
  A.ModuleName = "first";
  A.Checksum = MD5::hash("same", 4);
  A.DagIdBase = 1;
  A.Dags.push_back(diamondDag());

  MapFile B;
  B.ModuleName = "second";
  B.Checksum = A.Checksum;
  B.DagIdBase = 1;

  MapFileStore Store;
  EXPECT_TRUE(Store.add(A));
  EXPECT_EQ(Store.size(), 1u);

  std::string Warning;
  EXPECT_FALSE(Store.add(B, &Warning));
  EXPECT_EQ(Store.size(), 1u) << "replacement, not accumulation";
  EXPECT_NE(Warning.find("first"), std::string::npos);
  EXPECT_NE(Warning.find("second"), std::string::npos);

  const MapFile *Found = Store.byChecksum(A.Checksum);
  ASSERT_NE(Found, nullptr);
  EXPECT_EQ(Found->ModuleName, "second") << "the newest mapfile wins";
  EXPECT_TRUE(Found->Dags.empty());
}

// ---------------------------------------------------------------------------
// ThreadPool + parallelForIndex.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasksAcrossWaves) {
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  for (int Wave = 0; Wave < 3; ++Wave) {
    for (int I = 0; I < 50; ++I)
      Pool.run([&Count] { Count.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Count.load(), 50 * (Wave + 1));
  }
}

TEST(ThreadPoolTest, ParallelForIndexCoversEveryIndexOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Seen(257);
  parallelForIndex(&Pool, Seen.size(),
                   [&Seen](size_t I) { Seen[I].fetch_add(1); });
  for (size_t I = 0; I < Seen.size(); ++I)
    ASSERT_EQ(Seen[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, ParallelForIndexRunsInlineWithoutPool) {
  std::vector<int> Order;
  parallelForIndex(nullptr, 5, [&Order](size_t I) {
    Order.push_back(static_cast<int>(I)); // No pool: strictly in order.
  });
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ResolveJobsFloorsAtOne) {
  EXPECT_GE(ThreadPool::resolveJobs(0), 1u);
  EXPECT_GE(ThreadPool::resolveJobs(-3), 1u);
  EXPECT_EQ(ThreadPool::resolveJobs(7), 7u);
}

// ---------------------------------------------------------------------------
// FlatMap.
// ---------------------------------------------------------------------------

TEST(FlatMapTest, InsertFindOverwrite) {
  FlatMap64<int> M;
  EXPECT_EQ(M.find(42), nullptr);
  M.insertOrAssign(42, 1);
  ASSERT_NE(M.find(42), nullptr);
  EXPECT_EQ(*M.find(42), 1);
  M.insertOrAssign(42, 2);
  EXPECT_EQ(*M.find(42), 2);
  EXPECT_EQ(M.size(), 1u);
}

TEST(FlatMapTest, ManyKeysSurviveRehash) {
  FlatMap64<uint64_t> M;
  const uint64_t N = 5000;
  for (uint64_t I = 0; I < N; ++I)
    M.insertOrAssign(I * 0x9E3779B97F4A7C15ULL, I);
  EXPECT_EQ(M.size(), N);
  for (uint64_t I = 0; I < N; ++I) {
    const uint64_t *V = M.find(I * 0x9E3779B97F4A7C15ULL);
    ASSERT_NE(V, nullptr) << "key " << I;
    EXPECT_EQ(*V, I);
  }
  EXPECT_EQ(M.find(12345), nullptr);
  M.clear();
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.find(0), nullptr);
}

