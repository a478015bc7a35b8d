//===- tests/test_collector.cpp - Fleet snap collector tests --------------===//
//
// Part of the TraceBack reproduction project.
//
// The collector subsystem's suite (ctest -L collector): SnapStore index
// round-trips across reopen, payload-hash dedup refcounting, deterministic
// retention eviction, query-predicate combinations against a naive
// reference filter, SnapSource unification, the store-residency gauge,
// and the 100-seed ingest-under-network-chaos sweep asserting the indexed
// query path returns byte-identical results to the linear-scan oracle.
//
//===----------------------------------------------------------------------===//

#include "collector/CollectorService.h"
#include "collector/PagedIndex.h"
#include "collector/SnapStore.h"
#include "core/FileIO.h"
#include "distributed/SnapArchive.h"
#include "distributed/Transport.h"
#include "replay/Recorder.h"
#include "replay/ReplayDriver.h"
#include "support/Random.h"
#include "support/SnapSource.h"
#include "triage/Signature.h"
#include "triage/SignatureStore.h"
#include "vm/FaultInjector.h"

#include "TestHelpers.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <unistd.h>

using namespace traceback;
using namespace traceback::testing_helpers;
namespace fs = std::filesystem;

namespace {

/// A fresh store directory under the system temp dir (removed first, so
/// reruns never see a previous run's journal).
std::string tempStoreDir(const std::string &Tag) {
  fs::path P = fs::temp_directory_path() /
               ("tb-collector-" + Tag + "-" + std::to_string(::getpid()));
  std::error_code EC;
  fs::remove_all(P, EC);
  return P.string();
}

struct TestMod {
  std::string Name;
  bool Instrumented = true;
};

/// Hand-builds a header-complete snap. Module checksums derive from the
/// name, so equal names collide across snaps exactly like redeployments
/// of one module do. \p FaultMod names the faulting module (empty =
/// non-fault snap).
SnapFile makeSnap(const std::string &Machine, const std::string &Proc,
                  uint64_t Pid, uint64_t Ts, SnapReason Reason,
                  const std::vector<TestMod> &Mods,
                  const std::string &FaultMod = "",
                  uint16_t FaultCode = 1) {
  SnapFile S;
  S.Reason = Reason;
  S.ProcessName = Proc;
  S.Pid = Pid;
  S.MachineName = Machine;
  S.OsName = "simos";
  S.Timestamp = Ts;
  for (const TestMod &M : Mods) {
    SnapModuleInfo MI;
    MI.Name = M.Name;
    MI.Checksum = MD5::hash(M.Name.data(), M.Name.size());
    MI.Instrumented = M.Instrumented;
    if (M.Name == FaultMod) {
      S.FaultModuleKey = MI.Checksum.low64();
      S.FaultCodeValue = FaultCode;
    }
    S.Modules.push_back(std::move(MI));
  }
  SnapThreadInfo T;
  T.ThreadId = 1;
  S.Threads.push_back(T);
  return S;
}

/// The metadata a test remembers per appended snap — the reference the
/// naive predicate filter below runs against.
struct Remembered {
  uint64_t Id = 0;
  SnapFile Snap;
  uint64_t SrcMachineId = 0;
  std::vector<uint8_t> Image;
};

/// Naive reference filter: re-derives each predicate from first
/// principles (names, not index keys) so a store-side indexing bug can't
/// cancel out in the comparison.
std::vector<uint64_t> naiveFilter(const std::vector<Remembered> &All,
                                  const std::string &Module,
                                  const std::string &Kind,
                                  const std::string &Machine,
                                  uint64_t Since, uint64_t Until,
                                  size_t Top) {
  std::vector<uint64_t> Ids;
  for (const Remembered &R : All) {
    if (!Module.empty()) {
      bool Has = false;
      for (const SnapModuleInfo &M : R.Snap.Modules)
        Has |= M.Name == Module;
      if (!Has)
        continue;
    }
    FaultSignature Sig = extractSignature(R.Snap);
    if (!Kind.empty() && Sig.Kind != Kind)
      continue;
    if (!Machine.empty() && R.Snap.MachineName != Machine)
      continue;
    if (R.Snap.Timestamp < Since || R.Snap.Timestamp > Until)
      continue;
    Ids.push_back(R.Id);
    if (Top && Ids.size() == Top)
      break;
  }
  return Ids;
}

std::vector<uint64_t> cursorIds(SnapStore::Cursor Cur) {
  std::vector<uint64_t> Ids;
  while (const SnapStoreEntry *E = Cur.next())
    Ids.push_back(E->Id);
  return Ids;
}

} // namespace

//===----------------------------------------------------------------------===//
// Index round-trip
//===----------------------------------------------------------------------===//

TEST(SnapStoreTest, IndexRoundTripSurvivesReopen) {
  std::string Dir = tempStoreDir("roundtrip");
  std::vector<Remembered> All;
  SnapStoreOptions O;
  O.Shards = 3;
  std::string Err;
  // Names carrying every byte a text index would have to escape: space,
  // '%', ':', '=', newline and NUL.
  const std::string Odd[] = {"al pha", "50%", "m:1", "k=v", "two\nlines",
                             std::string("nul\0byte", 8)};
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    for (int I = 0; I < 12; ++I) {
      Remembered R;
      const std::string &Mod = Odd[(I + 2) % 6];
      R.Snap = makeSnap(Odd[I % 6], Odd[(I + 1) % 6], 100 + I, 1000 + I * 10,
                        I % 3 == 0 ? SnapReason::Unhandled : SnapReason::Api,
                        {{"m1", true}, {Mod, I % 2 == 0}},
                        I % 3 == 0 ? Mod : "");
      R.Image = R.Snap.serialize();
      R.SrcMachineId = 7 + I % 2;
      SnapStore::AppendResult AR;
      ASSERT_TRUE(St.append(R.Image, R.SrcMachineId, AR, &Err)) << Err;
      EXPECT_FALSE(AR.Deduped);
      R.Id = AR.Id;
      All.push_back(std::move(R));
    }
    EXPECT_EQ(St.liveEntries(), 12u);
  }

  // Reopen through the checkpoint close() wrote, then by replaying the
  // journal with the checkpoint removed: both must reconstruct every
  // queryable field and every payload byte.
  SnapStoreOptions RO = O;
  RO.ReadOnly = true;
  for (bool Replay : {false, true}) {
    SCOPED_TRACE(Replay ? "journal replay" : "checkpoint");
    if (Replay)
      fs::remove(fs::path(Dir) / "index.tbx2");
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, RO, Err)) << Err;
    EXPECT_EQ(St.openedPaged(), !Replay);
    EXPECT_EQ(St.totalEntries(), 12u);
    EXPECT_EQ(St.liveEntries(), 12u);
    for (const Remembered &R : All) {
      SnapStoreEntry E;
      ASSERT_TRUE(St.entry(R.Id, E));
      FaultSignature Sig = extractSignature(R.Snap);
      EXPECT_EQ(E.Kind, Sig.Kind);
      EXPECT_EQ(E.Fingerprint, Sig.fingerprint());
      EXPECT_EQ(E.MachineName, R.Snap.MachineName);
      EXPECT_EQ(E.MachineId, R.SrcMachineId);
      EXPECT_EQ(E.ProcessName, R.Snap.ProcessName);
      EXPECT_EQ(E.Pid, R.Snap.Pid);
      EXPECT_EQ(E.Timestamp, R.Snap.Timestamp);
      EXPECT_EQ(E.Reason, static_cast<uint16_t>(R.Snap.Reason));
      ASSERT_EQ(E.ModuleNames.size(), R.Snap.Modules.size());
      for (size_t M = 0; M < E.ModuleNames.size(); ++M) {
        EXPECT_EQ(E.ModuleNames[M], R.Snap.Modules[M].Name);
        EXPECT_EQ(E.ModuleKeys[M], R.Snap.Modules[M].Checksum.low64());
        EXPECT_EQ(E.ModuleInstrumented[M] != 0,
                  R.Snap.Modules[M].Instrumented);
      }
      EXPECT_EQ(E.Markers, Sig.Markers);
      std::vector<uint8_t> Img;
      ASSERT_TRUE(St.loadImage(E, Img));
      EXPECT_EQ(Img, R.Image);
      SnapFile Loaded;
      ASSERT_TRUE(St.loadSnap(E, Loaded));
      EXPECT_EQ(Loaded.ProcessName, R.Snap.ProcessName);
    }
    // Both open paths answer name predicates on the odd names.
    for (const std::string &Name : Odd) {
      SnapQuery ByMachine = SnapQuery().setMachine(Name);
      SnapQuery ByModule = SnapQuery().setModule(Name);
      EXPECT_EQ(cursorIds(St.query(ByMachine)).size(), 2u);
      EXPECT_EQ(cursorIds(St.query(ByModule)).size(), 2u);
      EXPECT_EQ(cursorIds(St.query(ByModule)), cursorIds(St.scan(ByModule)));
    }
  }
}

TEST(SnapStoreTest, ReadOnlyOpenRefusesAppends) {
  std::string Dir = tempStoreDir("readonly");
  SnapStoreOptions O;
  std::string Err;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    SnapStore::AppendResult AR;
    SnapFile S = makeSnap("alpha", "p", 1, 10, SnapReason::Api, {{"m", true}});
    ASSERT_TRUE(St.appendSnap(S, 0, AR, &Err)) << Err;
  }
  SnapStoreOptions RO;
  RO.ReadOnly = true;
  SnapStore St;
  ASSERT_TRUE(St.open(Dir, RO, Err)) << Err;
  EXPECT_EQ(St.liveEntries(), 1u);
  SnapStore::AppendResult AR;
  SnapFile S2 = makeSnap("alpha", "p", 2, 20, SnapReason::Api, {{"m", true}});
  EXPECT_FALSE(St.appendSnap(S2, 0, AR, &Err));
}

TEST(SnapStoreTest, ReadOnlyOpenOfMissingDirectoryCreatesNothing) {
  std::string Dir = tempStoreDir("readonly-missing");
  SnapStoreOptions RO;
  RO.ReadOnly = true;
  std::string Err;
  SnapStore St;
  EXPECT_FALSE(St.open(Dir, RO, Err));
  EXPECT_NE(Err.find(Dir), std::string::npos) << Err;
  EXPECT_FALSE(fs::exists(Dir));

  // An existing directory with no journal is a valid empty store, and a
  // read-only open writes nothing into it.
  fs::create_directories(Dir);
  ASSERT_TRUE(St.open(Dir, RO, Err)) << Err;
  EXPECT_EQ(St.totalEntries(), 0u);
  EXPECT_EQ(cursorIds(St.scan(SnapQuery())).size(), 0u);
  St.close();
  EXPECT_TRUE(fs::is_empty(Dir));
}

//===----------------------------------------------------------------------===//
// Dedup
//===----------------------------------------------------------------------===//

TEST(SnapStoreTest, DedupRefcountsAndPersistsAcrossReopen) {
  std::string Dir = tempStoreDir("dedup");
  SnapStoreOptions O;
  std::string Err;
  SnapFile S = makeSnap("alpha", "app", 42, 500, SnapReason::Unhandled,
                        {{"mod", true}}, "mod");
  std::vector<uint8_t> Img = S.serialize();
  uint64_t FirstId = 0;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    SnapStore::AppendResult R1, R2, R3;
    ASSERT_TRUE(St.append(Img, 1, R1, &Err)) << Err;
    ASSERT_TRUE(St.append(Img, 1, R2, &Err)) << Err;
    ASSERT_TRUE(St.append(Img, 2, R3, &Err)) << Err;
    EXPECT_FALSE(R1.Deduped);
    EXPECT_TRUE(R2.Deduped);
    EXPECT_TRUE(R3.Deduped);
    EXPECT_EQ(R2.Id, R1.Id);
    EXPECT_EQ(R3.Id, R1.Id);
    FirstId = R1.Id;
    EXPECT_EQ(St.liveEntries(), 1u);
    EXPECT_EQ(St.dedupHits(), 2u);
    EXPECT_EQ(St.totalRefs(), 3u);

    // A different payload with the same fingerprint is NOT a dup.
    SnapFile S2 = S;
    S2.Timestamp = 501;
    SnapStore::AppendResult R4;
    ASSERT_TRUE(St.appendSnap(S2, 1, R4, &Err)) << Err;
    EXPECT_FALSE(R4.Deduped);
    EXPECT_NE(R4.Id, FirstId);
    SnapStoreEntry E4, E1;
    ASSERT_TRUE(St.entry(R4.Id, E4));
    ASSERT_TRUE(St.entry(FirstId, E1));
    EXPECT_EQ(E4.Fingerprint, E1.Fingerprint);
  }

  // The refcount is journaled, not runtime-only state.
  SnapStore St;
  ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
  SnapStoreEntry E;
  ASSERT_TRUE(St.entry(FirstId, E));
  EXPECT_EQ(E.RefCount, 3u);
  EXPECT_EQ(St.totalRefs(), 4u);

  // And the dedup key survives replay: the same bytes still fold.
  SnapStore::AppendResult R5;
  ASSERT_TRUE(St.append(Img, 3, R5, &Err)) << Err;
  EXPECT_TRUE(R5.Deduped);
  EXPECT_EQ(R5.Id, FirstId);
}

//===----------------------------------------------------------------------===//
// Retention
//===----------------------------------------------------------------------===//

namespace {

/// Feeds the deterministic retention stream: timestamps arrive slightly
/// out of order so "oldest first" is a real sort, not arrival order.
void feedRetentionStream(SnapStore &St, int Count) {
  std::string Err;
  for (int I = 0; I < Count; ++I) {
    uint64_t Ts = 100 + static_cast<uint64_t>((I * 7) % Count) * 10;
    SnapFile S = makeSnap(I % 2 ? "alpha" : "beta", "app",
                          200 + static_cast<uint64_t>(I), Ts,
                          SnapReason::Unhandled, {{"mod", true}}, "mod");
    SnapStore::AppendResult R;
    ASSERT_TRUE(St.append(S.serialize(), 1, R, &Err)) << Err;
  }
}

} // namespace

TEST(SnapStoreTest, ByteCapEvictsDeterministically) {
  // Two stores, one identical stream: the evicted set must be identical,
  // and oldest-(Timestamp, Id)-first.
  std::string DirA = tempStoreDir("ret-a"), DirB = tempStoreDir("ret-b");
  SnapStoreOptions O;
  O.Shards = 2;
  O.MaxBytes = 4000; // A handful of these ~300-byte snaps.
  std::string Err;
  SnapStore A, B;
  ASSERT_TRUE(A.open(DirA, O, Err)) << Err;
  ASSERT_TRUE(B.open(DirB, O, Err)) << Err;
  feedRetentionStream(A, 30);
  feedRetentionStream(B, 30);
  ASSERT_GT(A.evictions(), 0u) << "cap never engaged; shrink MaxBytes";
  EXPECT_LE(A.liveBytes(), O.MaxBytes);
  EXPECT_EQ(A.evictions(), B.evictions());
  ASSERT_EQ(A.totalEntries(), B.totalEntries());
  for (uint64_t Id = 1; Id <= A.totalEntries(); ++Id) {
    SnapStoreEntry EA, EB;
    ASSERT_TRUE(A.entry(Id, EA));
    ASSERT_TRUE(B.entry(Id, EB));
    EXPECT_EQ(EA.Dead, EB.Dead) << "id " << Id;
  }

  // Live entries strictly dominate dead ones in (Timestamp, Id) order
  // within this monotone-cap stream: eviction took the oldest.
  std::pair<uint64_t, uint64_t> NewestDead{0, 0};
  std::pair<uint64_t, uint64_t> OldestLive{UINT64_MAX, UINT64_MAX};
  for (uint64_t Id = 1; Id <= A.totalEntries(); ++Id) {
    SnapStoreEntry E;
    ASSERT_TRUE(A.entry(Id, E));
    std::pair<uint64_t, uint64_t> Key{E.Timestamp, E.Id};
    if (E.Dead)
      NewestDead = std::max(NewestDead, Key);
    else
      OldestLive = std::min(OldestLive, Key);
  }
  EXPECT_LT(NewestDead, OldestLive);

  // Equal live state compacts to identical bytes, index included.
  ASSERT_TRUE(A.compact(&Err)) << Err;
  ASSERT_TRUE(B.compact(&Err)) << Err;
  A.close();
  B.close();
  for (unsigned I = 0; I < O.Shards; ++I) {
    std::vector<uint8_t> BytesA, BytesB;
    char Name[32];
    std::snprintf(Name, sizeof(Name), "/shard-%02u.tbar", I);
    ASSERT_TRUE(readFileBytes(DirA + Name, BytesA));
    ASSERT_TRUE(readFileBytes(DirB + Name, BytesB));
    EXPECT_EQ(BytesA, BytesB) << "shard " << I;
  }
  std::vector<uint8_t> IdxA, IdxB;
  ASSERT_TRUE(readFileBytes(DirA + "/index.tbx", IdxA));
  ASSERT_TRUE(readFileBytes(DirB + "/index.tbx", IdxB));
  EXPECT_EQ(IdxA, IdxB);
}

TEST(SnapStoreTest, AgeCapEvictsRelativeToNewest) {
  std::string Dir = tempStoreDir("ret-age");
  SnapStoreOptions O;
  O.MaxAge = 100;
  std::string Err;
  SnapStore St;
  ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
  SnapStore::AppendResult R;
  for (uint64_t Ts : {100u, 150u, 190u}) {
    SnapFile S = makeSnap("alpha", "app", Ts, Ts, SnapReason::Api,
                          {{"mod", true}});
    ASSERT_TRUE(St.appendSnap(S, 1, R, &Err)) << Err;
  }
  EXPECT_EQ(St.liveEntries(), 3u);
  // Ts=400 makes everything older than 300 stale.
  SnapFile S = makeSnap("alpha", "app", 400, 400, SnapReason::Api,
                        {{"mod", true}});
  ASSERT_TRUE(St.appendSnap(S, 1, R, &Err)) << Err;
  EXPECT_EQ(R.Evicted, 3u);
  EXPECT_EQ(St.liveEntries(), 1u);
  SnapStoreEntry Newest;
  ASSERT_TRUE(St.entry(4, Newest));
  EXPECT_FALSE(Newest.Dead);

  // An evicted payload's dedup key is gone: the same bytes store anew.
  SnapFile Old = makeSnap("alpha", "app", 100, 100, SnapReason::Api,
                          {{"mod", true}});
  // (Immediately re-evicted by the age cap, but it must get a fresh id.)
  ASSERT_TRUE(St.appendSnap(Old, 1, R, &Err)) << Err;
  EXPECT_FALSE(R.Deduped);
  EXPECT_EQ(R.Id, 5u);
}

//===----------------------------------------------------------------------===//
// Query predicates
//===----------------------------------------------------------------------===//

TEST(SnapStoreTest, QueryPredicateCombinationsMatchNaiveFilter) {
  std::string Dir = tempStoreDir("query");
  SnapStoreOptions O;
  O.Shards = 3;
  std::string Err;
  SnapStore St;
  ASSERT_TRUE(St.open(Dir, O, Err)) << Err;

  std::vector<Remembered> All;
  const char *Machines[] = {"alpha", "beta", "gamma"};
  const char *Mods[] = {"m1", "m2"};
  for (int I = 0; I < 36; ++I) {
    Remembered R;
    bool Fault = I % 3 != 2;
    R.Snap = makeSnap(Machines[I % 3], "app", 300 + I,
                      1000 + static_cast<uint64_t>((I * 11) % 36) * 5,
                      Fault ? SnapReason::Unhandled : SnapReason::Api,
                      {{Mods[I % 2], true}, {"shared", I % 4 == 0}},
                      Fault ? Mods[I % 2] : "",
                      static_cast<uint16_t>(1 + I % 2));
    R.Image = R.Snap.serialize();
    R.SrcMachineId = 10 + I % 3;
    SnapStore::AppendResult AR;
    ASSERT_TRUE(St.append(R.Image, R.SrcMachineId, AR, &Err)) << Err;
    R.Id = AR.Id;
    All.push_back(std::move(R));
  }

  std::string KindA = extractSignature(All[0].Snap).Kind;
  struct Case {
    const char *Name;
    SnapQuery Q;
    std::string Module, Kind, Machine;
    uint64_t Since = 0, Until = UINT64_MAX;
    size_t Top = 0;
  };
  std::vector<Case> Cases;
  auto AddCase = [&](const char *Name, SnapQuery Q, std::string Module = "",
                     std::string Kind = "", std::string Machine = "",
                     uint64_t Since = 0, uint64_t Until = UINT64_MAX,
                     size_t Top = 0) {
    Q.Since = Since;
    Q.Until = Until;
    Q.Top = Top;
    Cases.push_back({Name, std::move(Q), std::move(Module), std::move(Kind),
                     std::move(Machine), Since, Until, Top});
  };
  AddCase("all", SnapQuery());
  AddCase("module", SnapQuery().setModule("m1"), "m1");
  AddCase("module-rare", SnapQuery().setModule("shared"), "shared");
  AddCase("kind", SnapQuery().setKind(KindA), "", KindA);
  AddCase("machine", SnapQuery().setMachine("beta"), "", "", "beta");
  AddCase("window", SnapQuery(), "", "", "", 1050, 1110);
  AddCase("module+kind", SnapQuery().setModule("m1").setKind(KindA), "m1",
          KindA);
  AddCase("module+machine+window",
          SnapQuery().setModule("m1").setMachine("alpha"), "m1", "",
          "alpha", 1000, 1120);
  AddCase("top", SnapQuery().setModule("m1"), "m1", "", "", 0, UINT64_MAX,
          4);
  for (Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::vector<uint64_t> Expected = naiveFilter(
        All, C.Module, C.Kind, C.Machine, C.Since, C.Until, C.Top);
    EXPECT_EQ(cursorIds(St.query(C.Q)), Expected);
    EXPECT_EQ(cursorIds(St.scan(C.Q)), Expected);
  }

  // Alternate predicate spellings: checksum-hex module, decimal machine
  // id, fingerprint.
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(
                    MD5::hash("m1", 2).low64()));
  EXPECT_EQ(cursorIds(St.query(SnapQuery().setModule(Hex))),
            naiveFilter(All, "m1", "", "", 0, UINT64_MAX, 0));
  std::vector<uint64_t> ById;
  for (const Remembered &R : All)
    if (R.SrcMachineId == 11)
      ById.push_back(R.Id);
  EXPECT_EQ(cursorIds(St.query(SnapQuery().setMachine("11"))), ById);
  uint64_t FP = extractSignature(All[0].Snap).fingerprint();
  std::vector<uint64_t> ByFp;
  for (const Remembered &R : All)
    if (extractSignature(R.Snap).fingerprint() == FP)
      ByFp.push_back(R.Id);
  EXPECT_EQ(cursorIds(St.query(SnapQuery().setFingerprint(FP))), ByFp);
}

//===----------------------------------------------------------------------===//
// Paged checkpoint
//===----------------------------------------------------------------------===//

namespace {

/// A copy of store \p Dir without its checkpoint: opening the copy
/// replays the whole journal.
std::string replayCopy(const std::string &Dir) {
  std::string Copy = Dir + "-replay";
  std::error_code EC;
  fs::remove_all(Copy, EC);
  fs::copy(Dir, Copy, fs::copy_options::recursive);
  fs::remove(fs::path(Copy) / "index.tbx2");
  return Copy;
}

/// One append of a test stream: the image and its transport source.
struct StreamSnap {
  std::vector<uint8_t> Image;
  uint64_t SrcMachineId = 0;
};

/// A varied stream: three machines, two fault modules, scrambled
/// timestamps, plus periodic exact-duplicate appends so the checkpoint's
/// dedup table carries real refcounts.
std::vector<StreamSnap> pagedStream(int Count, uint64_t TsBase = 1000) {
  std::vector<StreamSnap> Out;
  const char *Machines[] = {"alpha", "beta", "gamma"};
  const char *Mods[] = {"m1", "m2"};
  for (int I = 0; I < Count; ++I) {
    SnapFile S = makeSnap(Machines[I % 3], "app", 700 + I,
                          TsBase + static_cast<uint64_t>((I * 13) % Count) * 5,
                          I % 4 == 3 ? SnapReason::Api : SnapReason::Unhandled,
                          {{Mods[I % 2], true}, {"shared", true}},
                          I % 4 == 3 ? "" : Mods[I % 2],
                          static_cast<uint16_t>(1 + I % 3));
    Out.push_back({S.serialize(), static_cast<uint64_t>(1 + I % 3)});
    if (I % 5 == 0) // Exact duplicate: folds into a refcount bump.
      Out.push_back(Out.back());
  }
  return Out;
}

/// Appends pagedStream(\p Count, \p TsBase) to \p St.
void feedPagedStream(SnapStore &St, int Count, uint64_t TsBase = 1000) {
  std::string Err;
  for (const StreamSnap &S : pagedStream(Count, TsBase)) {
    SnapStore::AppendResult R;
    ASSERT_TRUE(St.append(S.Image, S.SrcMachineId, R, &Err)) << Err;
  }
}

/// The predicate mix every paged equivalence check runs.
std::vector<SnapQuery> pagedQueryMix() {
  std::vector<SnapQuery> Qs = {SnapQuery(),
                               SnapQuery().setModule("m1"),
                               SnapQuery().setModule("shared"),
                               SnapQuery().setMachine("beta"),
                               SnapQuery().setWindow(1020, 1140),
                               SnapQuery().setModule("m2").setMachine("gamma")};
  SnapQuery TopQ = SnapQuery().setModule("m1");
  TopQ.Top = 5;
  Qs.push_back(TopQ);
  return Qs;
}

/// Asserts the indexed query and the scan oracle agree on ids for the
/// whole predicate mix.
void expectPagedQueriesConsistent(const SnapStore &St, const char *Tag) {
  SCOPED_TRACE(Tag);
  size_t Case = 0;
  for (const SnapQuery &Q : pagedQueryMix()) {
    SCOPED_TRACE(::testing::Message() << "query " << Case++);
    EXPECT_EQ(cursorIds(St.query(Q)), cursorIds(St.scan(Q)));
  }
}

} // namespace

TEST(PagedStoreTest, PagedOpenMatchesUnpagedAcrossReopen) {
  std::string Dir = tempStoreDir("paged-roundtrip");
  SnapStoreOptions O;
  O.Shards = 2;
  std::string Err;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    feedPagedStream(St, 40);
    // First open of a fresh directory has no checkpoint to load.
    EXPECT_FALSE(St.openedPaged());
  } // close() writes index.tbx2.
  ASSERT_TRUE(fs::exists(fs::path(Dir) / "index.tbx2"));

  SnapStoreOptions Paged = O;
  Paged.ReadOnly = true;
  {
    SnapStore P, U;
    ASSERT_TRUE(P.open(Dir, Paged, Err)) << Err;
    ASSERT_TRUE(U.open(replayCopy(Dir), Paged, Err)) << Err;
    EXPECT_TRUE(P.openedPaged());
    EXPECT_FALSE(U.openedPaged());
    ASSERT_EQ(P.totalEntries(), U.totalEntries());
    EXPECT_EQ(P.liveEntries(), U.liveEntries());
    EXPECT_EQ(P.liveBytes(), U.liveBytes());
    EXPECT_EQ(P.totalRefs(), U.totalRefs());
    expectPagedQueriesConsistent(P, "paged");
    expectPagedQueriesConsistent(U, "unpaged");
    for (uint64_t Id = 1; Id <= U.totalEntries(); ++Id) {
      SnapStoreEntry EU, EP;
      ASSERT_TRUE(U.entry(Id, EU));
      ASSERT_TRUE(P.entry(Id, EP)) << "id " << Id;
      EXPECT_EQ(EP.Kind, EU.Kind);
      EXPECT_EQ(EP.Fingerprint, EU.Fingerprint);
      EXPECT_EQ(EP.MachineName, EU.MachineName);
      EXPECT_EQ(EP.Timestamp, EU.Timestamp);
      EXPECT_EQ(EP.RefCount, EU.RefCount);
      EXPECT_EQ(EP.ModuleNames, EU.ModuleNames);
      std::vector<uint8_t> ImgP, ImgU;
      ASSERT_TRUE(P.loadImage(EP, ImgP));
      ASSERT_TRUE(U.loadImage(EU, ImgU));
      EXPECT_EQ(ImgP, ImgU);
    }
  }

  // A writable paged open appends past the checkpoint (journal tail),
  // dedups against checkpoint entries, and the next close re-checkpoints.
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    EXPECT_TRUE(St.openedPaged());
    uint64_t Before = St.totalEntries();
    feedPagedStream(St, 12, /*TsBase=*/1010);
    EXPECT_GT(St.totalEntries(), Before);
    expectPagedQueriesConsistent(St, "paged+tail");
  }
  SnapStore Re;
  ASSERT_TRUE(Re.open(Dir, Paged, Err)) << Err;
  EXPECT_TRUE(Re.openedPaged());
  expectPagedQueriesConsistent(Re, "re-checkpointed");
}

// Snaps ingested with embedded execution logs keep their logs through
// store close/reopen — paged and unpaged alike — and a store-resident
// snap replays end-to-end by id (the library half of
// `tbtool replay --store <dir> --id <n>`).
TEST(PagedStoreTest, ExecLogRoundTripsAndReplaysFromStore) {
  const char *Workload = R"(
fn main() export {
  var x = 1;
  var i = 0;
  while (i < 80) {
    x = x * 3 + (rand() & 7);
    x = x % 1000003;
    i = i + 1;
    yield();
  }
  snap(1);
  print(x);
}
)";
  // Two recorded snaps: a clean snap(1) anchor and a kill post-mortem.
  std::vector<std::vector<uint8_t>> Images;
  {
    SingleProcess S;
    S.D.Policy.RecordExecution = true;
    ExecutionRecorder Rec;
    Rec.attach(S.D);
    ASSERT_EQ(S.runModule(compileOrDie(Workload), /*Instrument=*/true),
              World::RunResult::AllExited);
    ASSERT_FALSE(S.D.snaps().empty());
    ASSERT_FALSE(S.D.snaps().front().ExecLog.empty());
    Images.push_back(S.D.snaps().front().serialize());
  }
  {
    SingleProcess S;
    S.D.Policy.RecordExecution = true;
    ExecutionRecorder Rec;
    Rec.attach(S.D);
    FaultPlan Plan;
    Plan.Seed = testSeed() ^ 0x88;
    Plan.Events.push_back({FaultKind::KillProcess, 60, 0});
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    S.runModule(compileOrDie(Workload), true);
    ASSERT_TRUE(S.P->HardKilled);
    auto PM = S.D.daemonFor(*S.M)->collectPostMortem(*S.P);
    ASSERT_EQ(PM.size(), 1u);
    ASSERT_FALSE(PM[0]->ExecLog.empty());
    Images.push_back(PM[0]->serialize());
  }

  std::string Dir = tempStoreDir("execlog");
  SnapStoreOptions O;
  std::string Err;
  std::vector<uint64_t> Ids;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    for (const std::vector<uint8_t> &Img : Images) {
      SnapStore::AppendResult AR;
      ASSERT_TRUE(St.append(Img, /*SrcMachineId=*/1, AR, &Err)) << Err;
      EXPECT_FALSE(AR.Deduped);
      Ids.push_back(AR.Id);
    }
  } // close() writes the paged checkpoint.

  SnapStoreOptions RO = O;
  RO.ReadOnly = true;
  for (bool UsePaged : {false, true}) {
    const char *Mode = UsePaged ? "paged" : "unpaged";
    SnapStore St;
    ASSERT_TRUE(St.open(UsePaged ? Dir : replayCopy(Dir), RO, Err))
        << Mode << ": " << Err;
    EXPECT_EQ(St.openedPaged(), UsePaged);
    for (size_t I = 0; I < Ids.size(); ++I) {
      SnapStoreEntry E;
      ASSERT_TRUE(St.entry(Ids[I], E)) << Mode << " id " << Ids[I];
      SnapFile Loaded;
      ASSERT_TRUE(St.loadSnap(E, Loaded)) << Mode << " id " << Ids[I];
      SnapFile Orig;
      ASSERT_TRUE(SnapFile::deserialize(Images[I], Orig));
      ASSERT_FALSE(Loaded.ExecLog.empty()) << Mode << " id " << Ids[I];
      EXPECT_EQ(Loaded.ExecLog, Orig.ExecLog) << Mode << " id " << Ids[I];

      ExecutionLog Log;
      ASSERT_TRUE(ExecutionLog::deserialize(Loaded.ExecLog, Log))
          << Mode << " id " << Ids[I];
      ReplayVerdict V = verifyReplay(Loaded, Log);
      EXPECT_TRUE(V.Ok) << Mode << " id " << Ids[I] << "\n" << V.render();
      EXPECT_TRUE(V.SnapMatched) << Mode << " id " << Ids[I];
      EXPECT_TRUE(V.TraceIdentical) << Mode << " id " << Ids[I];
    }
  }
}

TEST(PagedStoreTest, CorruptCheckpointFallsBackToJournalReplay) {
  std::string Dir = tempStoreDir("paged-corrupt");
  SnapStoreOptions O;
  std::string Err;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    feedPagedStream(St, 60);
  }
  std::string CkPath = (fs::path(Dir) / "index.tbx2").string();
  std::string JnPath = (fs::path(Dir) / "index.tbx").string();
  std::vector<uint8_t> PristineCk, PristineJn;
  ASSERT_TRUE(readFileBytes(CkPath, PristineCk));
  ASSERT_TRUE(readFileBytes(JnPath, PristineJn));
  ASSERT_GT(PristineCk.size(), 8192u);

  // The expected answers, from a full replay of the untouched journal.
  SnapStoreOptions RO = O;
  RO.ReadOnly = true;
  std::vector<std::vector<uint64_t>> Expected;
  {
    SnapStore Oracle;
    ASSERT_TRUE(Oracle.open(replayCopy(Dir), RO, Err)) << Err;
    EXPECT_FALSE(Oracle.openedPaged());
    for (const SnapQuery &Q : pagedQueryMix())
      Expected.push_back(cursorIds(Oracle.scan(Q)));
  }

  auto ExpectDegradedButCorrect = [&](const char *Tag) {
    SCOPED_TRACE(Tag);
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, RO, Err)) << Err;
    EXPECT_FALSE(St.openedPaged());
    size_t Case = 0;
    for (const SnapQuery &Q : pagedQueryMix()) {
      SCOPED_TRACE(::testing::Message() << "query " << Case);
      EXPECT_EQ(cursorIds(St.query(Q)), Expected[Case]);
      EXPECT_EQ(cursorIds(St.scan(Q)), Expected[Case]);
      ++Case;
    }
  };

  {
    // Single bit flip mid-file: some data page's checksum breaks.
    std::vector<uint8_t> Ck = PristineCk;
    Ck[Ck.size() / 2] ^= 0x10;
    ASSERT_TRUE(writeFileBytes(CkPath, Ck));
    ExpectDegradedButCorrect("bit-flip");
  }
  {
    // Torn write: the checkpoint ends mid-region.
    std::vector<uint8_t> Ck = PristineCk;
    Ck.resize(Ck.size() * 3 / 5);
    ASSERT_TRUE(writeFileBytes(CkPath, Ck));
    ExpectDegradedButCorrect("truncated");
  }
  {
    // Zeroed header fields: the header hash rejects page 0 itself.
    std::vector<uint8_t> Ck = PristineCk;
    std::fill(Ck.begin() + 8, Ck.begin() + 40, uint8_t(0));
    ASSERT_TRUE(writeFileBytes(CkPath, Ck));
    ExpectDegradedButCorrect("zeroed-header");
  }
  {
    // Journal shorter than the checkpoint's coverage: the checkpoint is
    // internally consistent but describes a journal that no longer
    // exists, so it must be ignored. (The replayed truncated journal
    // simply drops its torn final record — query and scan still agree.)
    ASSERT_TRUE(writeFileBytes(CkPath, PristineCk));
    std::vector<uint8_t> Jn = PristineJn;
    Jn.resize(Jn.size() - 37);
    ASSERT_TRUE(writeFileBytes(JnPath, Jn));
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, RO, Err)) << Err;
    EXPECT_FALSE(St.openedPaged());
    for (const SnapQuery &Q : pagedQueryMix())
      EXPECT_EQ(cursorIds(St.query(Q)), cursorIds(St.scan(Q)));
    ASSERT_TRUE(writeFileBytes(JnPath, PristineJn));
  }

  // Pristine bytes restored: the paged path works again.
  ASSERT_TRUE(writeFileBytes(CkPath, PristineCk));
  SnapStore St;
  ASSERT_TRUE(St.open(Dir, RO, Err)) << Err;
  EXPECT_TRUE(St.openedPaged());
  expectPagedQueriesConsistent(St, "restored");
}

TEST(PagedStoreTest, PairedBitFlipsInADataPageFallBackToReplay) {
  // Bit 63 of two words 32 bytes apart: both land in one lane of the page
  // sum. A lane step that kept a bit-63 difference in bit 63 would let
  // the second flip cancel the first, and the corrupt page would pass its
  // check and open paged.
  std::string Dir = tempStoreDir("paged-paired-flips");
  SnapStoreOptions O;
  std::string Err;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    feedPagedStream(St, 60);
  }
  std::string CkPath = (fs::path(Dir) / "index.tbx2").string();
  std::vector<uint8_t> Pristine;
  ASSERT_TRUE(readFileBytes(CkPath, Pristine));
  ASSERT_GT(Pristine.size(), 3 * TbixPageSize);

  SnapStoreOptions RO = O;
  RO.ReadOnly = true;
  std::vector<std::vector<uint64_t>> Expected;
  {
    SnapStore Oracle;
    ASSERT_TRUE(Oracle.open(replayCopy(Dir), RO, Err)) << Err;
    for (const SnapQuery &Q : pagedQueryMix())
      Expected.push_back(cursorIds(Oracle.scan(Q)));
  }
  auto ExpectReplayed = [&](const char *Tag) {
    SCOPED_TRACE(Tag);
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, RO, Err)) << Err;
    EXPECT_FALSE(St.openedPaged());
    size_t Case = 0;
    for (const SnapQuery &Q : pagedQueryMix()) {
      SCOPED_TRACE(::testing::Message() << "query " << Case);
      EXPECT_EQ(cursorIds(St.query(Q)), Expected[Case]);
      EXPECT_EQ(cursorIds(St.scan(Q)), Expected[Case]);
      ++Case;
    }
  };

  for (size_t Page : {size_t(1), Pristine.size() / TbixPageSize / 2}) {
    for (size_t Word : {size_t(0), size_t(8), size_t(480)}) {
      std::vector<uint8_t> Ck = Pristine;
      size_t At = Page * TbixPageSize + Word * 8;
      Ck[At + 7] ^= 0x80;      // bit 63 of one word ...
      Ck[At + 32 + 7] ^= 0x80; // ... and of the word 32 bytes on
      ASSERT_TRUE(writeFileBytes(CkPath, Ck));
      ExpectReplayed("paired flip");
    }
  }

  // A version-3 checkpoint (the old page sum) is ignored as unsupported,
  // and the next close writes the current version.
  {
    std::vector<uint8_t> Ck = Pristine;
    Ck[4] = 3;
    ASSERT_TRUE(writeFileBytes(CkPath, Ck));
    ExpectReplayed("version 3");
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    EXPECT_FALSE(St.openedPaged());
  }
  std::vector<uint8_t> Rewritten;
  ASSERT_TRUE(readFileBytes(CkPath, Rewritten));
  EXPECT_EQ(Rewritten, Pristine);
  SnapStore St;
  ASSERT_TRUE(St.open(Dir, RO, Err)) << Err;
  EXPECT_TRUE(St.openedPaged());
  expectPagedQueriesConsistent(St, "rewritten");
}

TEST(PagedStoreTest, QueryMatchesScanUnpagedAndPagedWithTail) {
  std::string Dir = tempStoreDir("paged-tail-query");
  SnapStoreOptions O;
  O.Shards = 3;
  std::string Err;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    feedPagedStream(St, 150);
    expectPagedQueriesConsistent(St, "unpaged-writable");
  }
  // Same equivalence when candidates split across checkpoint and tail.
  SnapStore St;
  ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
  ASSERT_TRUE(St.openedPaged());
  feedPagedStream(St, 30, /*TsBase=*/1005);
  expectPagedQueriesConsistent(St, "paged+tail");
}

TEST(PagedStoreTest, RetentionAcrossCheckpointAndTailMatchesReplay) {
  // Retention walks the merged (timestamp, id) order of checkpoint and
  // tail. One store reopened paged and its twin reopened by full journal
  // replay must evict the same victims, append by append, under either
  // cap — with victims and the newest live entry in both halves.
  for (bool AgeCap : {false, true}) {
    SCOPED_TRACE(AgeCap ? "MaxAge" : "MaxBytes");
    std::string DirP = tempStoreDir("ret-mixed-paged");
    std::string DirR = tempStoreDir("ret-mixed-replay");
    SnapStoreOptions O;
    O.Shards = 2;
    std::string Err;
    uint64_t BaseBytes = 0, BaseEntries = 0;
    for (const std::string &Dir : {DirP, DirR}) {
      SnapStore St;
      ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
      feedPagedStream(St, 60); // Timestamps 1000..1295, no caps.
      BaseBytes = St.liveBytes();
      BaseEntries = St.totalEntries();
    }
    fs::remove(fs::path(DirR) / "index.tbx2");

    SnapStoreOptions Capped = O;
    if (AgeCap)
      Capped.MaxAge = 100; // Tail timestamps run past the checkpoint's.
    else
      Capped.MaxBytes = BaseBytes / 2;
    {
      SnapStore P, R;
      ASSERT_TRUE(P.open(DirP, Capped, Err)) << Err;
      ASSERT_TRUE(R.open(DirR, Capped, Err)) << Err;
      ASSERT_TRUE(P.openedPaged());
      ASSERT_FALSE(R.openedPaged());
      // Tail timestamps interleave with the checkpoint's (and, for the
      // age cap, move the newest live entry into the tail).
      size_t Append = 0;
      for (const StreamSnap &S : pagedStream(30, AgeCap ? 1200 : 1100)) {
        SCOPED_TRACE(::testing::Message() << "append " << Append++);
        SnapStore::AppendResult AP, AR;
        ASSERT_TRUE(P.append(S.Image, S.SrcMachineId, AP, &Err)) << Err;
        ASSERT_TRUE(R.append(S.Image, S.SrcMachineId, AR, &Err)) << Err;
        EXPECT_EQ(AP.Id, AR.Id);
        EXPECT_EQ(AP.Deduped, AR.Deduped);
        EXPECT_EQ(AP.Evicted, AR.Evicted);
      }
      EXPECT_GT(P.evictions(), 0u) << "cap never engaged";
      EXPECT_EQ(P.evictions(), R.evictions());
      EXPECT_EQ(P.totalEntries(), R.totalEntries());
      EXPECT_EQ(P.liveEntries(), R.liveEntries());
      EXPECT_EQ(P.liveBytes(), R.liveBytes());
      EXPECT_EQ(P.totalRefs(), R.totalRefs());
      // Equal live ids over equal totals: equal dead ids.
      std::vector<uint64_t> Live = cursorIds(P.scan(SnapQuery()));
      EXPECT_EQ(Live, cursorIds(R.scan(SnapQuery())));
      // Victims came from both halves (ids up to BaseEntries are the
      // checkpoint's).
      size_t LiveCk = static_cast<size_t>(
          std::count_if(Live.begin(), Live.end(),
                        [&](uint64_t Id) { return Id <= BaseEntries; }));
      EXPECT_LT(LiveCk, BaseEntries);
      EXPECT_LT(Live.size() - LiveCk, P.totalEntries() - BaseEntries);
      expectPagedQueriesConsistent(P, "paged");
      expectPagedQueriesConsistent(R, "replayed");
    }
    // The Evict records the two journaled are byte for byte the same.
    std::vector<uint8_t> JournalP, JournalR;
    ASSERT_TRUE(readFileBytes(DirP + "/index.tbx", JournalP));
    ASSERT_TRUE(readFileBytes(DirR + "/index.tbx", JournalR));
    EXPECT_EQ(JournalP, JournalR);
  }
}

TEST(PagedStoreTest, TimeCursorStreamsGlobalTimeOrderAcrossStores) {
  // Two stores with deliberately interleaved timestamps; each per-store
  // TimeCursor leg must stream (Timestamp, Id) ascending, and the k-way
  // merge tbtool runs over the legs must see every entry exactly once.
  std::string DirA = tempStoreDir("fanin-a"), DirB = tempStoreDir("fanin-b");
  SnapStoreOptions O;
  std::string Err;
  SnapStore A, B;
  ASSERT_TRUE(A.open(DirA, O, Err)) << Err;
  ASSERT_TRUE(B.open(DirB, O, Err)) << Err;
  feedPagedStream(A, 25, /*TsBase=*/1000);
  feedPagedStream(B, 25, /*TsBase=*/1002); // Offset: strict interleave.

  // Reopen A paged and grow a tail whose timestamps land *inside* the
  // checkpoint's range, so the cursor really merges the two stages.
  A.close();
  ASSERT_TRUE(A.open(DirA, O, Err)) << Err;
  ASSERT_TRUE(A.openedPaged());
  feedPagedStream(A, 10, /*TsBase=*/1001);

  auto Drain = [](const SnapStore &St, const SnapQuery &Q) {
    std::vector<std::pair<uint64_t, uint64_t>> Out;
    SnapStore::TimeCursor Cur = St.timeQuery(Q);
    while (const SnapStoreEntry *E = Cur.next())
      Out.push_back({E->Timestamp, E->Id});
    return Out;
  };
  for (const SnapQuery &Q : pagedQueryMix()) {
    // Each leg must equal the oracle: scan matches re-sorted by
    // (Timestamp, Id), with Top applied in *time* order.
    for (const SnapStore *St : {&A, &B}) {
      std::vector<std::pair<uint64_t, uint64_t>> Leg = Drain(*St, Q);
      EXPECT_TRUE(std::is_sorted(Leg.begin(), Leg.end()));
      SnapQuery Unlimited = Q;
      Unlimited.Top = 0;
      std::vector<std::pair<uint64_t, uint64_t>> Want;
      SnapStore::Cursor Cur = St->scan(Unlimited);
      while (const SnapStoreEntry *E = Cur.next())
        Want.push_back({E->Timestamp, E->Id});
      std::sort(Want.begin(), Want.end());
      if (Q.Top && Want.size() > Q.Top)
        Want.resize(Q.Top);
      EXPECT_EQ(Leg, Want);
    }
  }

  // The fan-in merge itself (the tbtool loop in miniature): pick the
  // smallest (ts, id) head each round.
  SnapQuery All;
  SnapStore::TimeCursor Legs[2] = {A.timeQuery(All), B.timeQuery(All)};
  const SnapStoreEntry *Heads[2] = {Legs[0].next(), Legs[1].next()};
  std::vector<std::pair<uint64_t, uint64_t>> Merged;
  size_t FromA = 0, FromB = 0;
  for (;;) {
    int Pick = -1;
    for (int I = 0; I < 2; ++I) {
      if (!Heads[I])
        continue;
      if (Pick < 0 ||
          std::make_pair(Heads[I]->Timestamp, Heads[I]->Id) <
              std::make_pair(Heads[Pick]->Timestamp, Heads[Pick]->Id))
        Pick = I;
    }
    if (Pick < 0)
      break;
    Merged.push_back({Heads[Pick]->Timestamp, Heads[Pick]->Id});
    (Pick == 0 ? FromA : FromB)++;
    Heads[Pick] = Legs[Pick].next();
  }
  EXPECT_TRUE(std::is_sorted(Merged.begin(), Merged.end(),
                             [](const auto &L, const auto &R) {
                               return L.first < R.first;
                             }));
  EXPECT_EQ(FromA, cursorIds(A.scan(All)).size());
  EXPECT_EQ(FromB, cursorIds(B.scan(All)).size());
  EXPECT_GT(FromA, 0u);
  EXPECT_GT(FromB, 0u);
}

TEST(PagedStoreTest, PageCacheBoundsResidentBytesAndCounts) {
  std::string Dir = tempStoreDir("paged-cache");
  MetricsRegistry Reg;
  SnapStoreOptions O;
  O.Metrics = &Reg;
  std::string Err;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    feedPagedStream(St, 300);
  }
  // A cap of four pages against a checkpoint dozens of pages long: a
  // full walk must hit, miss and evict, while residency never exceeds
  // the cap.
  SnapStoreOptions Tiny = O;
  Tiny.ReadOnly = true;
  Tiny.PageCacheBytes = 4 * 4096;
  SnapStore St;
  ASSERT_TRUE(St.open(Dir, Tiny, Err)) << Err;
  ASSERT_TRUE(St.openedPaged());
  expectPagedQueriesConsistent(St, "tiny-cache");
  Counter &Hits = Reg.counter("collector.store.page.hits");
  Counter &Misses = Reg.counter("collector.store.page.misses");
  Counter &Evictions = Reg.counter("collector.store.page.evictions");
  EXPECT_GT(Hits.value(), 0u);
  EXPECT_GT(Misses.value(), 0u);
  EXPECT_GT(Evictions.value(), 0u);
  EXPECT_LE(St.pageCacheResidentBytes(), Tiny.PageCacheBytes);
  EXPECT_EQ(static_cast<size_t>(Reg.gauge("store.bytes_resident").value()),
            St.pageCacheResidentBytes());
}

//===----------------------------------------------------------------------===//
// Journal crash consistency and decoder contract
//===----------------------------------------------------------------------===//

TEST(SnapStoreTest, TornJournalTailIsCutBeforeAppend) {
  // A collector crashed mid-append: the journal ends inside its last Add
  // record. A writable open must cut that fragment off before the next
  // record, or every later replay reads the new record glued onto it.
  std::string Dir = tempStoreDir("torn-tail");
  std::string Jn = (fs::path(Dir) / "index.tbx").string();
  std::string Ck = (fs::path(Dir) / "index.tbx2").string();
  auto SnapAt = [](uint64_t I) {
    return makeSnap(I % 2 ? "alpha" : "beta", "app", 900 + I, 100 + I * 10,
                    I % 3 ? SnapReason::Api : SnapReason::Unhandled,
                    {{"m1", true}, {I % 2 ? "m2" : "shared", true}},
                    I % 3 ? "" : "m1");
  };
  SnapStoreOptions O;
  std::string Err;
  uint64_t LastAddAt = 0;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    for (uint64_t I = 0; I < 3; ++I) {
      LastAddAt = fs::file_size(Jn); // Every record is flushed.
      SnapStore::AppendResult AR;
      ASSERT_TRUE(St.appendSnap(SnapAt(I), 1, AR, &Err)) << Err;
      ASSERT_FALSE(AR.Deduped);
    }
  }
  fs::remove(Ck);
  std::vector<uint8_t> Pristine;
  ASSERT_TRUE(readFileBytes(Jn, Pristine));
  ASSERT_LT(LastAddAt + 1, Pristine.size());

  SnapStoreOptions RO = O;
  RO.ReadOnly = true;
  for (uint64_t Cut = LastAddAt + 1; Cut < Pristine.size(); ++Cut) {
    SCOPED_TRACE(::testing::Message() << "cut at byte " << Cut);
    ASSERT_TRUE(writeFileBytes(
        Jn, std::vector<uint8_t>(Pristine.begin(), Pristine.begin() + Cut)));
    {
      SnapStore St;
      ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
      EXPECT_EQ(St.totalEntries(), 2u);
      SnapStore::AppendResult AR;
      ASSERT_TRUE(St.appendSnap(SnapAt(3), 1, AR, &Err)) << Err;
    }
    fs::remove(Ck);
    SnapStore Re;
    ASSERT_TRUE(Re.open(Dir, RO, Err)) << Err;
    EXPECT_EQ(Re.totalEntries(), 3u);
    for (const SnapQuery &Q : pagedQueryMix())
      EXPECT_EQ(cursorIds(Re.query(Q)), cursorIds(Re.scan(Q)));
  }
}

TEST(SnapStoreTest, LongStringsSurviveCheckpoint) {
  // A process name longer than any 16-bit length prefix can state.
  std::string Dir = tempStoreDir("long-strings");
  std::string LongName(70000, ' ');
  for (size_t I = 0; I < LongName.size(); ++I)
    LongName[I] = static_cast<char>('a' + I % 26);
  SnapStoreOptions O;
  std::string Err;
  uint64_t LongId = 0;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    for (int I = 0; I < 3; ++I) {
      SnapFile S = makeSnap("alpha", I == 1 ? LongName : "app", 40 + I,
                            100 + I * 10, SnapReason::Api, {{"mod", true}});
      SnapStore::AppendResult AR;
      ASSERT_TRUE(St.appendSnap(S, 1, AR, &Err)) << Err;
      if (I == 1)
        LongId = AR.Id;
    }
  } // close() writes the checkpoint.
  ASSERT_EQ(LongId, 2u);

  SnapStoreOptions RO = O;
  RO.ReadOnly = true;
  for (bool Replay : {false, true}) {
    SCOPED_TRACE(Replay ? "journal replay" : "checkpoint");
    if (Replay)
      fs::remove(fs::path(Dir) / "index.tbx2");
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, RO, Err)) << Err;
    EXPECT_EQ(St.openedPaged(), !Replay);
    EXPECT_EQ(St.liveEntries(), 3u);
    EXPECT_EQ(cursorIds(St.scan(SnapQuery())).size(), 3u);
    SnapStoreEntry E;
    ASSERT_TRUE(St.entry(LongId, E));
    EXPECT_EQ(E.ProcessName, LongName);
  }
}

TEST(SnapStoreTest, JournalMutantsOpenOrFailCleanly) {
  // The journal decoder's contract over a small journal holding Add, Ref
  // and Evict records: cut at any byte, it opens with exactly the Add
  // records wholly before the cut; with one bit flipped, it opens with
  // query == scan or fails with an error. Nothing crashes.
  std::string Dir = tempStoreDir("journal-mutants");
  std::string Jn = (fs::path(Dir) / "index.tbx").string();
  SnapStoreOptions O;
  O.MaxAge = 40; // Later snaps evict the oldest.
  std::string Err;
  {
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    feedPagedStream(St, 12, /*TsBase=*/0);
    ASSERT_GT(St.dedupHits(), 0u);
    ASSERT_GT(St.evictions(), 0u);
  }
  fs::remove(fs::path(Dir) / "index.tbx2");
  std::vector<uint8_t> Pristine;
  ASSERT_TRUE(readFileBytes(Jn, Pristine));

  // Where each Add record ends, from a walk of the pristine journal.
  std::vector<uint64_t> AddEnds;
  std::set<JournalRecord> Kinds;
  {
    SnapArchiveReader R;
    ASSERT_TRUE(R.open(Jn));
    std::vector<uint8_t> Body;
    uint64_t Frame = 0;
    while (R.next(Frame, &Body)) {
      JournalRecord Kind = JournalRecord::Add;
      uint64_t Id = 0;
      SnapStoreEntry E;
      ASSERT_TRUE(decodeJournalRecord(Body, Kind, Id, E));
      Kinds.insert(Kind);
      if (Kind == JournalRecord::Add)
        AddEnds.push_back(R.intactEnd());
    }
    ASSERT_EQ(R.end(), SnapArchiveReader::End::Clean);
    ASSERT_EQ(R.intactEnd(), Pristine.size());
  }
  ASSERT_EQ(Kinds.size(), 3u) << "the journal must hold every record kind";

  SnapStoreOptions RO = O;
  RO.ReadOnly = true;
  for (size_t Cut = 0; Cut < Pristine.size(); ++Cut) {
    SCOPED_TRACE(::testing::Message() << "cut at byte " << Cut);
    ASSERT_TRUE(writeFileBytes(
        Jn, std::vector<uint8_t>(Pristine.begin(), Pristine.begin() + Cut)));
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, RO, Err)) << Err;
    size_t Whole = static_cast<size_t>(
        std::upper_bound(AddEnds.begin(), AddEnds.end(), Cut) -
        AddEnds.begin());
    EXPECT_EQ(St.totalEntries(), Whole);
  }

  Rng Flips(testSeed() ^ 0x7b17f11bull);
  size_t Opened = 0;
  for (int M = 0; M < 200; ++M) {
    std::vector<uint8_t> Mutant = Pristine;
    uint64_t Bit = Flips.below(Mutant.size() * 8);
    Mutant[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
    SCOPED_TRACE(::testing::Message() << "bit " << Bit);
    ASSERT_TRUE(writeFileBytes(Jn, Mutant));
    SnapStore St;
    Err.clear();
    if (!St.open(Dir, RO, Err)) {
      EXPECT_FALSE(Err.empty());
      continue;
    }
    ++Opened;
    for (const SnapQuery &Q : pagedQueryMix())
      EXPECT_EQ(cursorIds(St.query(Q)), cursorIds(St.scan(Q)));
  }
  EXPECT_GT(Opened, 0u);

  // A journal in the retired line-oriented text format is refused with
  // an error that names it.
  std::string Text = "TBIX v1\nref 1\n";
  ASSERT_TRUE(
      writeFileBytes(Jn, std::vector<uint8_t>(Text.begin(), Text.end())));
  SnapStore Old;
  Err.clear();
  EXPECT_FALSE(Old.open(Dir, RO, Err));
  EXPECT_NE(Err.find("TBIX v1"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// SnapSource unification
//===----------------------------------------------------------------------===//

TEST(SnapSourceTest, DirectoryArchiveAndQueueFeedIdentically) {
  // The same three snaps read from a directory, read from an archive, and
  // pushed straight into the collector's ingest queue (the transport's
  // way in) must produce stores with identical live content.
  std::vector<SnapFile> Snaps;
  for (int I = 0; I < 3; ++I)
    Snaps.push_back(makeSnap("alpha", "app", 10 + I, 100 + I * 10,
                             SnapReason::Unhandled, {{"mod", true}}, "mod"));

  std::string SnapDir = tempStoreDir("src-dir");
  fs::create_directories(SnapDir);
  for (size_t I = 0; I < Snaps.size(); ++I)
    ASSERT_TRUE(saveSnap(Snaps[I],
                         SnapDir + "/snap-" + std::to_string(I) + ".tbsnap"));
  std::string ArchivePath = tempStoreDir("src-arc") + ".tbar";
  {
    SnapArchiveWriter W;
    ASSERT_TRUE(W.open(ArchivePath));
    for (const SnapFile &S : Snaps)
      ASSERT_TRUE(W.append(S.serialize()));
  }

  using Images = std::vector<std::vector<uint8_t>>;
  auto ImagesOf = [](SnapSource &&Src) {
    Images Out;
    std::vector<uint8_t> Image;
    std::string Label;
    while (Src.nextImage(Image, Label))
      Out.push_back(Image);
    return Out;
  };
  Images Pushed;
  for (const SnapFile &S : Snaps)
    Pushed.push_back(S.serialize());

  auto StoreFrom = [&](const Images &In, const std::string &Tag,
                       std::multiset<std::pair<uint64_t, uint64_t>> &Out) {
    std::string Dir = tempStoreDir("src-store-" + Tag);
    SnapStoreOptions O;
    std::string Err;
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    CollectorService Svc(St);
    for (const std::vector<uint8_t> &Image : In)
      Svc.push(Image, /*SrcMachineId=*/0);
    EXPECT_EQ(Svc.pending(), 3u) << Tag;
    Svc.drain();
    EXPECT_EQ(Svc.errors(), 0u);
    SnapStore::Cursor Cur = St.scan(SnapQuery());
    while (const SnapStoreEntry *E = Cur.next())
      Out.insert({E->PayloadHash, E->Fingerprint});
  };
  std::multiset<std::pair<uint64_t, uint64_t>> FromDir, FromArc, FromQueue;
  StoreFrom(ImagesOf(DirectorySnapSource(SnapDir)), "dir", FromDir);
  StoreFrom(ImagesOf(ArchiveSnapSource(ArchivePath)), "arc", FromArc);
  StoreFrom(Pushed, "queue", FromQueue);
  EXPECT_EQ(FromDir.size(), 3u);
  EXPECT_EQ(FromDir, FromArc);
  EXPECT_EQ(FromDir, FromQueue);
}

//===----------------------------------------------------------------------===//
// Store residency gauge
//===----------------------------------------------------------------------===//

TEST(StoreResidencyTest, BytesResidentGaugeTracksLoads) {
  Gauge &G = MetricsRegistry::global().gauge("store.bytes_resident");

  int64_t Before = G.value();
  {
    MapFileStore MS;
    MapFile M;
    M.ModuleName = "modx";
    M.Checksum = MD5::hash("modx", 4);
    M.Files = {"a.ml"};
    M.Dags.emplace_back();
    MS.add(M);
    EXPECT_GT(MS.residentBytes(), 0u);
    EXPECT_EQ(G.value() - Before, static_cast<int64_t>(MS.residentBytes()));

    // Replacement accounts the old mapfile out, not just the new one in.
    MapFile M2 = M;
    M2.Files.push_back("b.ml");
    MS.add(M2);
    EXPECT_EQ(G.value() - Before, static_cast<int64_t>(MS.residentBytes()));

    // A copy holds its own mapfiles; a move hands the share over.
    {
      MapFileStore Copy = MS;
      EXPECT_EQ(G.value() - Before,
                2 * static_cast<int64_t>(MS.residentBytes()));
      MapFileStore Moved = std::move(Copy);
      EXPECT_EQ(G.value() - Before,
                2 * static_cast<int64_t>(MS.residentBytes()));
    }
    EXPECT_EQ(G.value() - Before, static_cast<int64_t>(MS.residentBytes()));

    // SignatureStore::load publishes the loaded store's residency.
    FaultSignature Sig;
    Sig.Kind = "fault:test@modx";
    Sig.Modules = {"modx"};
    SignatureStore SS;
    SS.add(Sig, "label-1");
    SS.add(Sig, "label-2");
    std::string Path = tempStoreDir("resid") + ".tbsig";
    ASSERT_TRUE(SS.save(Path));
    int64_t Before2 = G.value();
    SignatureStore Loaded;
    std::string Err;
    ASSERT_TRUE(SignatureStore::load(Path, Loaded, Err)) << Err;
    EXPECT_EQ(Loaded.size(), 1u);
    EXPECT_GT(Loaded.residentBytes(), 0u);
    EXPECT_EQ(G.value() - Before2,
              static_cast<int64_t>(Loaded.residentBytes()));
    // Loading again resets the store: its old share goes back first.
    ASSERT_TRUE(SignatureStore::load(Path, Loaded, Err)) << Err;
    EXPECT_EQ(G.value() - Before2,
              static_cast<int64_t>(Loaded.residentBytes()));
  }
  // Both stores are gone, and so are their bytes.
  EXPECT_EQ(G.value(), Before);
}

//===----------------------------------------------------------------------===//
// Ingestion ordering
//===----------------------------------------------------------------------===//

TEST(CollectorServiceTest, DrainStoresInGlobalArrivalOrder) {
  std::string Dir = tempStoreDir("order");
  SnapStoreOptions O;
  std::string Err;
  SnapStore St;
  ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
  CollectorOptions CO;
  CollectorService Svc(St, CO);

  std::vector<uint64_t> ExpectedPids;
  for (int I = 0; I < 12; ++I) {
    SnapFile S = makeSnap("m", "app", 500 + I, 100 + I, SnapReason::Api,
                          {{"mod", true}});
    ASSERT_TRUE(Svc.push(S.serialize(), static_cast<uint64_t>(I % 5)));
    ExpectedPids.push_back(500 + static_cast<uint64_t>(I));
  }
  EXPECT_EQ(Svc.pending(), 12u);
  EXPECT_EQ(Svc.drain(), 12u);
  EXPECT_EQ(Svc.errors(), 0u);

  // Ids ascend in arrival order, whatever source each item came from.
  std::vector<uint64_t> Pids;
  SnapStore::Cursor Cur = St.scan(SnapQuery());
  while (const SnapStoreEntry *E = Cur.next())
    Pids.push_back(E->Pid);
  EXPECT_EQ(Pids, ExpectedPids);
}

TEST(CollectorServiceTest, FullQueueDrainsInlineInArrivalOrder) {
  std::string Dir = tempStoreDir("backpressure");
  SnapStoreOptions O;
  std::string Err;
  SnapStore St;
  ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
  MetricsRegistry Reg;
  CollectorOptions CO;
  CO.Metrics = &Reg;
  CollectorService Svc(St, CO);

  // The last push finds the queue full: every queued image is stored
  // inline before it queues.
  const size_t Capacity = CollectorService::QueueCapacity;
  std::vector<uint64_t> ExpectedPids;
  for (size_t I = 0; I <= Capacity; ++I) {
    SnapFile S = makeSnap("m", "app", 600 + I, 100 + I, SnapReason::Api,
                          {{"mod", true}});
    ASSERT_TRUE(Svc.push(S.serialize(), /*SrcMachineId=*/3));
    ExpectedPids.push_back(600 + I);
  }
  EXPECT_EQ(Reg.counter("collector.ingest.inline_drains").value(), 1u);
  EXPECT_EQ(Svc.pending(), 1u);
  EXPECT_EQ(St.totalEntries(), Capacity);
  EXPECT_EQ(Svc.drain(), 1u);
  EXPECT_EQ(Svc.ingested(), Capacity + 1);
  EXPECT_EQ(Svc.errors(), 0u);

  std::vector<uint64_t> Pids;
  SnapStore::Cursor Cur = St.scan(SnapQuery());
  while (const SnapStoreEntry *E = Cur.next())
    Pids.push_back(E->Pid);
  EXPECT_EQ(Pids, ExpectedPids);
}

//===----------------------------------------------------------------------===//
// The 100-seed ingest-under-chaos sweep
//===----------------------------------------------------------------------===//

namespace {

const char *SweepEchoServer = R"(
fn main() export {
  srv_register(40);
  var buf = alloc(64);
  var lenp = alloc(8);
  while (1) {
    var id = rpc_recv(buf, 64, lenp);
    store(buf, load(buf) * 10);
    rpc_reply(id, buf, 8);
  }
}
)";

const char *SweepSnapClient = R"(
fn main() export {
  var arg = alloc(8);
  var rep = alloc(1024);
  store(arg, 4);
  var status = rpc(40, arg, 8, rep);
  print(status);
  print(load(rep));
  snap(1);
}
)";

/// Client on alpha calls the echo server on beta and snaps; everything
/// travels to the collector machine as SnapPush frames (the scenario of
/// test_transport's chaos sweep, here with a CollectorService attached).
struct SweepFleet {
  MetricsRegistry Reg;
  Deployment D;
  Machine *MA, *MB;
  Process *Client, *Server;
  uint64_t CollectorId = 0;

  SweepFleet() {
    D.Metrics = &Reg;
    MA = D.addMachine("alpha", "winnt");
    MB = D.addMachine("beta", "solaris", 100000);
    CollectorId = D.enableNetworkTransport();
    Client = MA->createProcess("client");
    Server = MB->createProcess("server");
  }

  void deployAndRun(const Module &CM, const Module &SM) {
    std::string Error;
    ASSERT_NE(D.deploy(*Client, CM, true, Error), nullptr) << Error;
    ASSERT_NE(D.deploy(*Server, SM, true, Error), nullptr) << Error;
    Server->start("main");
    for (int I = 0; I < 10; ++I)
      D.world().stepSlice();
    Client->start("main");
    while (!Client->Exited && D.world().cycles() < 50'000'000)
      D.world().stepSlice();
    ASSERT_TRUE(Client->Exited);
  }
};

/// Asserts the indexed cursor and the scan oracle return byte-identical
/// streams for \p Q: same entries, same order, same payload bytes.
void expectQueryEqualsScan(const SnapStore &St, const SnapQuery &Q,
                           const char *Tag) {
  SCOPED_TRACE(Tag);
  SnapStore::Cursor A = St.query(Q);
  SnapStore::Cursor B = St.scan(Q);
  for (;;) {
    const SnapStoreEntry *EA = A.next();
    const SnapStoreEntry *EB = B.next();
    if (!EA || !EB) {
      EXPECT_EQ(EA, EB) << "cursor lengths differ";
      return;
    }
    ASSERT_EQ(EA->Id, EB->Id);
    std::vector<uint8_t> ImgA, ImgB;
    ASSERT_TRUE(St.loadImage(*EA, ImgA));
    ASSERT_TRUE(St.loadImage(*EB, ImgB));
    EXPECT_EQ(ImgA, ImgB);
  }
}

} // namespace

TEST(CollectorChaosSweepTest, HundredSeedsIndexMatchesLinearScan) {
  Module CM = compileOrDie(SweepSnapClient, "climod", Technology::Native,
                           "client.ml");
  Module SM = compileOrDie(SweepEchoServer, "srvmod", Technology::Native,
                           "server.ml");

  const int Sweeps = 100;
  uint64_t Base = testSeed();
  std::string Dir = tempStoreDir("chaos");
  size_t TotalIngested = 0;
  for (int I = 0; I < Sweeps; ++I) {
    uint64_t Seed = Base + static_cast<uint64_t>(I);
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    std::error_code EC;
    fs::remove_all(Dir, EC);

    MetricsRegistry StoreReg;
    SnapStoreOptions O;
    O.Shards = 3;
    O.Metrics = &StoreReg;
    std::string Err;
    SnapStore St;
    ASSERT_TRUE(St.open(Dir, O, Err)) << Err;
    CollectorOptions CO;
    CO.Metrics = &StoreReg;
    CollectorService Svc(St, CO);

    FaultPlan Plan = FaultPlan::randomNetwork(Seed, /*MaxPacket=*/16,
                                              /*MaxSlice=*/60);
    SweepFleet T;
    FaultInjector FI(Plan, &T.Reg);
    T.D.world().Injector = &FI;
    Svc.attachTransport(*T.D.collectorEndpoint());
    T.deployAndRun(CM, SM);
    if (::testing::Test::HasFatalFailure())
      return;
    ASSERT_TRUE(T.D.pumpNetwork()) << "transport hang under plan:\n"
                                   << Plan.toText();
    Svc.drain();
    Svc.detachTransport();
    ASSERT_EQ(Svc.errors(), 0u) << Svc.lastError();

    // Chained handling: the deployment's own snaps() view kept working
    // while the collector indexed; every delivered push was ingested.
    EXPECT_EQ(Svc.ingested(), T.D.snaps().size());
    EXPECT_EQ(St.totalRefs(), Svc.ingested());
    TotalIngested += Svc.ingested();

    // Query-vs-scan equivalence on every predicate dimension this run's
    // data can exercise.
    expectQueryEqualsScan(St, SnapQuery(), "all");
    expectQueryEqualsScan(St, SnapQuery().setMachine("alpha"), "machine");
    expectQueryEqualsScan(St, SnapQuery().setModule("climod"), "module");
    uint64_t MinTs = UINT64_MAX, MaxTs = 0;
    const SnapStoreEntry *First = nullptr;
    SnapStore::Cursor Cur = St.scan(SnapQuery());
    while (const SnapStoreEntry *E = Cur.next()) {
      if (!First)
        First = E;
      MinTs = std::min(MinTs, E->Timestamp);
      MaxTs = std::max(MaxTs, E->Timestamp);
    }
    if (First) {
      expectQueryEqualsScan(St, SnapQuery().setKind(First->Kind), "kind");
      expectQueryEqualsScan(
          St, SnapQuery().setFingerprint(First->Fingerprint), "sig");
      expectQueryEqualsScan(
          St,
          SnapQuery().setMachine("alpha").setWindow(
              MinTs, MinTs + (MaxTs - MinTs) / 2),
          "machine+window");
    }

    // Reopen the same store through the checkpoint on even seeds and
    // via full journal replay (checkpoint removed) on odd ones: the
    // equivalence must be open-path-independent.
    St.close(); // Writes the checkpoint.
    bool Paged = I % 2 == 0;
    if (!Paged)
      fs::remove(fs::path(Dir) / "index.tbx2");
    SnapStoreOptions RO = O;
    RO.ReadOnly = true;
    SnapStore Re;
    ASSERT_TRUE(Re.open(Dir, RO, Err)) << Err;
    EXPECT_EQ(Re.openedPaged(), Paged);
    expectQueryEqualsScan(Re, SnapQuery(), "reopen-all");
    expectQueryEqualsScan(Re, SnapQuery().setMachine("alpha"),
                          "reopen-machine");
    expectQueryEqualsScan(Re, SnapQuery().setModule("climod"),
                          "reopen-module");
  }
  EXPECT_GT(TotalIngested, 0u) << "sweep never delivered a snap";
  std::printf("[ collector chaos sweep: %d seeds, %zu snaps ingested ]\n",
              Sweeps, TotalIngested);
}
