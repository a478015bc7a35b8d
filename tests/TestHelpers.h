//===- tests/TestHelpers.h - Shared test scaffolding ------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_TESTS_TESTHELPERS_H
#define TRACEBACK_TESTS_TESTHELPERS_H

#include "core/Session.h"
#include "lang/CodeGen.h"
#include "reconstruct/Views.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace traceback {
namespace testing_helpers {

/// On any assertion failure, prints the active TRACEBACK_TEST_SEED and a
/// one-line repro command — a failing 200-seed sweep is useless without
/// the seed that produced it, and CI logs often truncate the banner the
/// seed was printed in at startup.
class SeedReproListener : public ::testing::EmptyTestEventListener {
  // The full test name is cached on test start: OnTestPartResult runs
  // with gtest's UnitTest mutex held, so asking UnitTest::GetInstance()
  // for current_test_info() there would self-deadlock.
  std::string Current;

  void OnTestStart(const ::testing::TestInfo &Info) override {
    Current = std::string(Info.test_suite_name()) + "." + Info.name();
  }

  void OnTestPartResult(const ::testing::TestPartResult &Result) override {
    if (!Result.failed() || Current.empty())
      return;
    uint64_t Seed = seedFromEnv("TRACEBACK_TEST_SEED",
                                0x7ace'bacc'0000'0001ULL);
    std::printf("[ repro: TRACEBACK_TEST_SEED=%llu ctest "
                "--output-on-failure -R '%s' ]\n",
                static_cast<unsigned long long>(Seed), Current.c_str());
    std::fflush(stdout);
  }
};

/// Registers the repro listener once per test binary (first call wins;
/// gtest owns the listener afterwards).
inline void installSeedReproListener() {
  static bool Installed = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(
        new SeedReproListener);
    return true;
  }();
  (void)Installed;
}

/// One inline registrar per binary that includes this header: the repro
/// listener is active without any per-test setup.
struct SeedReproRegistrar {
  SeedReproRegistrar() { installSeedReproListener(); }
};
inline SeedReproRegistrar SeedReproRegistrarInstance;

/// Base seed for property tests: TRACEBACK_TEST_SEED when set, else
/// \p Default. Printed once so a failing sweep is replayable with
/// `TRACEBACK_TEST_SEED=<seed> ctest ...`.
inline uint64_t testSeed(uint64_t Default = 0x7ace'bacc'0000'0001ULL) {
  static uint64_t Seed = [Default] {
    uint64_t S = seedFromEnv("TRACEBACK_TEST_SEED", Default);
    std::printf("[ property-test seed: %llu (0x%llx) — override with "
                "TRACEBACK_TEST_SEED ]\n",
                static_cast<unsigned long long>(S),
                static_cast<unsigned long long>(S));
    std::fflush(stdout);
    return S;
  }();
  return Seed;
}

/// Compiles MiniLang or aborts the test.
inline Module compileOrDie(const std::string &Source,
                           const std::string &ModuleName = "test",
                           Technology Tech = Technology::Native,
                           const std::string &FileName = "test.ml") {
  Module M;
  std::string Error;
  if (!minilang::compileMiniLang(Source, FileName, ModuleName, Tech, M,
                                 Error)) {
    ADD_FAILURE() << "MiniLang compile failed: " << Error;
    return M;
  }
  return M;
}

/// A one-machine, one-process scenario. Its runtimes, daemon and
/// reconstructions report into a registry of its own, so counts read
/// through count() are this scenario's alone.
struct SingleProcess {
  MetricsRegistry Metrics; ///< Declared before D, which reports into it.
  Deployment D;
  Machine *M = nullptr;
  Process *P = nullptr;
  std::vector<Process::OracleEvent> Oracle;

  explicit SingleProcess(bool WithOracle = false) {
    D.Metrics = &Metrics;
    M = D.addMachine("host0");
    P = M->createProcess("app");
    if (WithOracle)
      P->OracleTrace = &Oracle;
  }

  /// Deploys \p Mod (optionally instrumented), starts \p Entry, runs.
  World::RunResult runModule(const Module &Mod, bool Instrument,
                             const std::string &Entry = "main",
                             uint64_t MaxCycles = 50'000'000) {
    std::string Error;
    LoadedModule *LM = D.deploy(*P, Mod, Instrument, Error);
    EXPECT_NE(LM, nullptr) << Error;
    if (!LM)
      return World::RunResult::Idle;
    Thread *T = P->start(Entry);
    EXPECT_NE(T, nullptr) << "entry symbol not found: " << Entry;
    if (!T)
      return World::RunResult::Idle;
    return D.world().run(MaxCycles);
  }

  /// The current value of counter \p Name.
  uint64_t count(const std::string &Name) {
    return Metrics.counter(Name).value();
  }
};

/// Extracts the (module, file, line) sequence of Line events.
inline std::vector<std::string> lineSequence(const ThreadTrace &T) {
  std::vector<std::string> Out;
  for (const TraceEvent &E : T.Events)
    if (E.EventKind == TraceEvent::Kind::Line)
      Out.push_back(E.Module + "!" + E.File + ":" + std::to_string(E.Line));
  return Out;
}

/// Extracts the oracle's sequence for one thread in the same format.
inline std::vector<std::string>
oracleSequence(const std::vector<Process::OracleEvent> &Oracle,
               uint64_t ThreadId) {
  std::vector<std::string> Out;
  for (const Process::OracleEvent &E : Oracle)
    if (E.ThreadId == ThreadId)
      Out.push_back(E.Module + "!" + E.File + ":" + std::to_string(E.Line));
  return Out;
}

/// True if \p Suffix is a suffix of \p Full.
inline bool isSuffixOf(const std::vector<std::string> &Suffix,
                       const std::vector<std::string> &Full) {
  if (Suffix.size() > Full.size())
    return false;
  return std::equal(Suffix.rbegin(), Suffix.rend(), Full.rbegin());
}

} // namespace testing_helpers
} // namespace traceback

#endif // TRACEBACK_TESTS_TESTHELPERS_H
