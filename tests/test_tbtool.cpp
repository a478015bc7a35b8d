//===- tests/test_tbtool.cpp - tbtool collector commands, end to end ------===//
//
// Part of the TraceBack reproduction project.
//
// Drives the built tbtool binary (its path arrives as TB_TBTOOL) over a
// seeded `serve --record` store: every query view equals its --scan
// oracle run byte for byte, two stores fan in, `replay --store` reads
// without writing, and the argument errors exit 2.
//
//===----------------------------------------------------------------------===//

#include "core/FileIO.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

namespace fs = std::filesystem;
using traceback::readFileBytes;
using traceback::writeFileBytes;

namespace {

/// One finished tbtool run.
struct CliRun {
  int Exit = -1;
  std::string Out, Err;
};

class TbtoolCliTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Root = (fs::temp_directory_path() /
            ("tb-cli-" + std::to_string(::getpid())))
               .string();
    std::error_code EC;
    fs::remove_all(Root, EC);
    fs::create_directories(Root);
    StoreA = Root + "/a";
    StoreB = Root + "/b";
    CliRun A = tbtool({"serve", "--store", StoreA, "--machines", "3",
                    "--rounds", "2", "--seed", "5", "--record"});
    CliRun B = tbtool({"serve", "--store", StoreB, "--machines", "2",
                    "--rounds", "2", "--seed", "6"});
    ServeOk = A.Exit == 0 && B.Exit == 0;
  }

  static void TearDownTestSuite() {
    std::error_code EC;
    fs::remove_all(Root, EC);
  }

  void SetUp() override { ASSERT_TRUE(ServeOk) << "tbtool serve failed"; }

  /// Runs tbtool with \p Args (each passed as one shell word).
  static CliRun tbtool(const std::vector<std::string> &Args) {
    std::string Out = Root + "/stdout", Err = Root + "/stderr";
    std::string Cmd = quote(TB_TBTOOL);
    for (const std::string &A : Args)
      Cmd += " " + quote(A);
    Cmd += " >" + quote(Out) + " 2>" + quote(Err);
    int Status = std::system(Cmd.c_str());
    CliRun R;
    R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
    R.Out = text(Out);
    R.Err = text(Err);
    return R;
  }

  static std::string quote(const std::string &S) {
    std::string Q = "'";
    for (char C : S)
      Q += C == '\'' ? std::string("'\\''") : std::string(1, C);
    return Q + "'";
  }

  static std::string text(const std::string &Path) {
    std::vector<uint8_t> Bytes;
    if (!readFileBytes(Path, Bytes))
      return {};
    return std::string(Bytes.begin(), Bytes.end());
  }

  /// Every file of directory \p Dir, by name.
  static std::map<std::string, std::vector<uint8_t>>
  snapshot(const std::string &Dir) {
    std::map<std::string, std::vector<uint8_t>> Files;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      readFileBytes(E.path().string(), Files[E.path().filename().string()]);
    return Files;
  }

  static std::string Root, StoreA, StoreB;
  static bool ServeOk;
};

std::string TbtoolCliTest::Root, TbtoolCliTest::StoreA, TbtoolCliTest::StoreB;
bool TbtoolCliTest::ServeOk = false;

} // namespace

TEST_F(TbtoolCliTest, EveryQueryViewEqualsItsScan) {
  // Predicate values taken from the store itself: the first entry's kind,
  // fingerprint and machine.
  CliRun First = tbtool({"query", StoreA, "--list", "--top", "1", "--json"});
  ASSERT_EQ(First.Exit, 0) << First.Err;
  auto field = [&](const std::string &Key) {
    size_t At = First.Out.find("\"" + Key + "\": \"");
    if (At == std::string::npos)
      return std::string();
    At += Key.size() + 5;
    return First.Out.substr(At, First.Out.find('"', At) - At);
  };
  std::string Kind = field("kind"), Sig = field("sig"),
              Machine = field("machine");
  ASSERT_FALSE(Kind.empty());
  ASSERT_FALSE(Sig.empty());
  ASSERT_FALSE(Machine.empty());

  const std::vector<std::vector<std::string>> Predicates = {
      {},
      {"--module", "appa"},
      {"--fault", Kind},
      {"--fault", "none"},
      {"--sig", Sig},
      {"--machine", Machine},
      {"--machine", "2"},
      {"--since", "50000", "--until", "60000"},
      {"--module", "appb", "--machine", Machine}};
  const std::vector<std::vector<std::string>> Views = {
      {}, {"--count"}, {"--list", "--top", "0"}, {"--list", "--json"}};
  for (const std::vector<std::string> &P : Predicates) {
    for (const std::vector<std::string> &V : Views) {
      std::vector<std::string> Args = {"query", StoreA};
      Args.insert(Args.end(), P.begin(), P.end());
      Args.insert(Args.end(), V.begin(), V.end());
      std::string Label;
      for (const std::string &A : Args)
        Label += " " + A;
      SCOPED_TRACE(Label);
      CliRun Indexed = tbtool(Args);
      Args.push_back("--scan");
      CliRun Scan = tbtool(Args);
      EXPECT_EQ(Indexed.Exit, 0) << Indexed.Err;
      EXPECT_EQ(Scan.Exit, 0) << Scan.Err;
      EXPECT_FALSE(Indexed.Out.empty());
      EXPECT_EQ(Indexed.Out, Scan.Out);
    }
  }
}

TEST_F(TbtoolCliTest, TwoStoresFanIn) {
  auto entries = [&](const std::vector<std::string> &Args) {
    CliRun R = tbtool(Args);
    EXPECT_EQ(R.Exit, 0) << R.Err;
    return std::strtoull(R.Out.c_str(), nullptr, 10);
  };
  unsigned long long A = entries({"query", StoreA, "--count"});
  unsigned long long B = entries({"query", StoreB, "--count"});
  EXPECT_GT(A, 0u);
  EXPECT_GT(B, 0u);
  EXPECT_EQ(entries({"query", "--store", StoreA, "--store", StoreB,
                     "--count"}),
            A + B);
  CliRun List = tbtool({"query", "--store", StoreA, "--store", StoreB, "--list",
                     "--top", "0"});
  ASSERT_EQ(List.Exit, 0) << List.Err;
  EXPECT_NE(List.Out.find(" store=" + StoreA), std::string::npos);
  EXPECT_NE(List.Out.find(" store=" + StoreB), std::string::npos);
}

TEST_F(TbtoolCliTest, ReplayFromStoreWritesNothing) {
  // A store without its checkpoint and with half a journal frame
  // appended: a writable open would write a checkpoint at close and cut
  // the torn bytes.
  std::string Dir = Root + "/replay";
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::copy(StoreA, Dir, fs::copy_options::recursive);
  fs::remove(fs::path(Dir) / "index.tbx2");
  {
    // The first 7 bytes of the journal's first frame (past the 8-byte
    // file header): a frame whose body never arrived.
    std::vector<uint8_t> Journal;
    ASSERT_TRUE(readFileBytes(Dir + "/index.tbx", Journal));
    ASSERT_GT(Journal.size(), 15u);
    std::vector<uint8_t> Torn(Journal.begin() + 8, Journal.begin() + 15);
    Journal.insert(Journal.end(), Torn.begin(), Torn.end());
    ASSERT_TRUE(writeFileBytes(Dir + "/index.tbx", Journal));
  }
  auto Before = snapshot(Dir);
  CliRun R = tbtool({"replay", "--store", Dir, "--id", "1", "--verify"});
  EXPECT_EQ(R.Exit, 0) << R.Out << R.Err;
  EXPECT_TRUE(snapshot(Dir) == Before) << "replay --store changed the store";
}

TEST_F(TbtoolCliTest, QueryOfMissingStoreFailsAndCreatesNothing) {
  std::string Missing = Root + "/nosuch";
  CliRun R = tbtool({"query", Missing, "--count"});
  EXPECT_NE(R.Exit, 0);
  EXPECT_NE(R.Err.find(Missing), std::string::npos) << R.Err;
  EXPECT_FALSE(fs::exists(Missing));
}

TEST_F(TbtoolCliTest, ArgumentErrorsExitTwo) {
  CliRun Scan = tbtool({"query", "--store", StoreA, "--store", StoreB, "--scan",
                     "--count"});
  EXPECT_EQ(Scan.Exit, 2);
  EXPECT_NE(Scan.Err.find("--scan"), std::string::npos) << Scan.Err;
  CliRun Jobs = tbtool({"query", StoreA, "--jobs", "2", "--count"});
  EXPECT_EQ(Jobs.Exit, 2);
  EXPECT_NE(Jobs.Err.find("--jobs"), std::string::npos) << Jobs.Err;
}
