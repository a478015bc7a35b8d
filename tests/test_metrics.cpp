//===- tests/test_metrics.cpp - Metrics layer + TELEMETRY records ---------===//
//
// Part of the TraceBack reproduction project.
//
// Covers the self-telemetry layer end to end: sharded instruments under
// concurrency, the stable JSON schema, the chunked TELEMETRY extended-record
// stream (through the checked-in golden snap fixture), the per-class fault
// counters against the injector's own fired log, and the runtime counters a
// real deployment embeds into its snaps.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "core/FileIO.h"
#include "reconstruct/Reconstructor.h"
#include "runtime/TraceRecord.h"
#include "support/Metrics.h"
#include "support/Text.h"
#include "support/ThreadPool.h"
#include "vm/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

using namespace traceback;
using namespace traceback::testing_helpers;

// ----------------------------------------------------------------------------
// Instruments.
// ----------------------------------------------------------------------------

TEST(MetricsInstrumentTest, CounterShardMergeUnderThreadPool) {
  MetricsRegistry Reg;
  Counter &C = Reg.counter("test.hits");
  Gauge &G = Reg.gauge("test.level");
  Histogram &H = Reg.histogram("test.lat_us");

  // Hammer one instrument set from many pool workers: the merged totals
  // must be exact whatever shard each worker hashed to.
  constexpr size_t Tasks = 64;
  constexpr uint64_t PerTask = 5000;
  ThreadPool Pool(8);
  parallelForIndex(&Pool, Tasks, [&](size_t I) {
    for (uint64_t K = 0; K < PerTask; ++K)
      C.add();
    G.add(static_cast<int64_t>(I));
    H.observe(I);
  });

  EXPECT_EQ(C.value(), Tasks * PerTask);
  EXPECT_EQ(G.value(), static_cast<int64_t>(Tasks * (Tasks - 1) / 2));
  EXPECT_EQ(H.count(), Tasks);
  EXPECT_EQ(H.sum(), Tasks * (Tasks - 1) / 2);

  // Snapshot sees the same merged values; reset zeroes every shard.
  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.Counters.at("test.hits"), Tasks * PerTask);
  EXPECT_EQ(S.Histograms.at("test.lat_us").Count, Tasks);
  Reg.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), 0u);
}

TEST(MetricsInstrumentTest, RegistryReturnsStableInstruments) {
  MetricsRegistry Reg;
  Counter &A = Reg.counter("same.name");
  Counter &B = Reg.counter("same.name");
  EXPECT_EQ(&A, &B);
  // Different families never collide even with an identical name.
  Reg.gauge("same.name").set(7);
  A.add(3);
  MetricsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.Counters.at("same.name"), 3u);
  EXPECT_EQ(S.Gauges.at("same.name"), 7);
}

TEST(MetricsInstrumentTest, HistogramBucketPlacement) {
  EXPECT_EQ(Histogram::bucketFor(0), 0u);
  EXPECT_EQ(Histogram::bucketFor(1), 1u);
  EXPECT_EQ(Histogram::bucketFor(2), 2u);
  EXPECT_EQ(Histogram::bucketFor(3), 2u);
  EXPECT_EQ(Histogram::bucketFor(4), 3u);
  EXPECT_EQ(Histogram::bucketFor(1023), 10u);
  EXPECT_EQ(Histogram::bucketFor(1024), 11u);
  // Everything at or beyond 2^(HistogramBuckets-1) lands in the last bucket.
  EXPECT_EQ(Histogram::bucketFor(1ULL << 40), HistogramBuckets - 1);
  EXPECT_EQ(Histogram::bucketFor(UINT64_MAX), HistogramBuckets - 1);

  Histogram H;
  H.observe(0);
  H.observe(5);
  H.observe(5);
  H.observe(1ULL << 50);
  std::vector<uint64_t> B = H.buckets();
  ASSERT_EQ(B.size(), HistogramBuckets);
  EXPECT_EQ(B[0], 1u);
  EXPECT_EQ(B[3], 2u);
  EXPECT_EQ(B[HistogramBuckets - 1], 1u);
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 10u + (1ULL << 50));
}

// ----------------------------------------------------------------------------
// JSON schema.
// ----------------------------------------------------------------------------

namespace {

void fillSample(MetricsRegistry &Reg) {
  Reg.counter("runtime.words_appended").add(123456789);
  Reg.counter("reconstruct.cache_hits").add(42);
  Reg.gauge("runtime.buffers_owned").set(-3); // negative gauges round-trip
  Reg.gauge("daemon.watched_processes").set(12);
  Histogram &H = Reg.histogram("runtime.snap_latency_us");
  H.observe(0);
  H.observe(17);
  H.observe(90000);
}

MetricsSnapshot sampleSnapshot() {
  MetricsRegistry Reg;
  fillSample(Reg);
  return Reg.snapshot();
}

} // namespace

TEST(MetricsJsonTest, RoundTripCompactAndPretty) {
  MetricsSnapshot S = sampleSnapshot();
  for (unsigned Indent : {0u, 2u}) {
    std::string J = S.toJson(Indent);
    MetricsSnapshot Back;
    ASSERT_TRUE(MetricsSnapshot::fromJson(J, Back)) << J;
    EXPECT_EQ(Back, S) << "indent " << Indent;
  }
}

TEST(MetricsJsonTest, ByteStableForEqualSnapshots) {
  // Sorted keys + fixed schema: two equal snapshots serialize to equal
  // bytes (what makes telemetry safe to diff across snaps).
  EXPECT_EQ(sampleSnapshot().toJson(), sampleSnapshot().toJson());
  EXPECT_NE(sampleSnapshot().toJson().find("\"schema\":"), std::string::npos);
}

TEST(MetricsJsonTest, EscapesHostileNames) {
  MetricsRegistry Reg;
  Reg.counter("we\"ird\\name\n\t").add(1);
  MetricsSnapshot S = Reg.snapshot();
  MetricsSnapshot Back;
  ASSERT_TRUE(MetricsSnapshot::fromJson(S.toJson(), Back));
  EXPECT_EQ(Back, S);
}

namespace {

/// A registry with every shape the schema prints: counters, negative
/// gauges, histograms with overflow-bucket samples, and names that need
/// escaping, with the escaped byte at either end of and inside an
/// eight-byte word, or in a shorter tail.
void fillHostile(MetricsRegistry &Reg) {
  fillSample(Reg);
  Reg.counter("we\"ird\\name\n\t").add(7);
  Reg.counter(std::string("ctl\x01\x1f") + "x").add(UINT64_MAX);
  Reg.counter("abcdefgh\"ijklmnop").add(1);
  Reg.counter("abcdefghijklmno\\").add(2);
  Reg.counter(std::string("0123456\x1f") + "tail").add(3);
  Reg.counter("plain.utf8.\xc3\xa9.\x7f.name").add(4);
  Reg.counter("zero").add(0);
  Reg.gauge("neg.min").set(INT64_MIN);
  Reg.gauge("neg.one").set(-1);
  Reg.gauge("q\"uote").set(INT64_MAX);
  Histogram &Over = Reg.histogram("big\\latency_us");
  Over.observe(1ull << 40); // overflow bucket
  Over.observe(UINT64_MAX);
  Over.observe(3);
  Reg.histogram("empty_us");
}

/// A name as a compact-JSON key, escaped one byte at a time.
std::string referenceKey(const std::string &Name) {
  std::string Out = "\"";
  for (char C : Name) {
    if (C == '"' || C == '\\')
      Out += std::string("\\") + C;
    else if (C == '\n')
      Out += "\\n";
    else if (C == '\t')
      Out += "\\t";
    else if (static_cast<unsigned char>(C) < 0x20)
      Out += formatv("\\u%04x", static_cast<unsigned>(C));
    else
      Out += C;
  }
  return Out + "\":";
}

} // namespace

TEST(MetricsJsonTest, RegistryRenderEqualsSnapshotJson) {
  MetricsRegistry Empty;
  EXPECT_EQ(Empty.toJson(), Empty.snapshot().toJson());
  MetricsRegistry Reg;
  fillHostile(Reg);
  std::string Rendered = Reg.toJson();
  EXPECT_EQ(Rendered, Reg.snapshot().toJson());
  // Both render through one writer, so check its escaping on its own.
  for (char C : Rendered)
    ASSERT_GE(static_cast<unsigned char>(C), 0x20) << Rendered;
  MetricsSnapshot Names = Reg.snapshot();
  for (const auto &KV : Names.Counters)
    EXPECT_NE(Rendered.find(referenceKey(KV.first)), std::string::npos)
        << referenceKey(KV.first) << " in " << Rendered;
  for (const auto &KV : Names.Gauges)
    EXPECT_NE(Rendered.find(referenceKey(KV.first)), std::string::npos)
        << referenceKey(KV.first);
  for (const auto &KV : Names.Histograms)
    EXPECT_NE(Rendered.find(referenceKey(KV.first)), std::string::npos)
        << referenceKey(KV.first);
  MetricsSnapshot Back;
  ASSERT_TRUE(MetricsSnapshot::fromJson(Rendered, Back));
  EXPECT_EQ(Back, Reg.snapshot());
  // Pretty printing stays the snapshot's, from the same writer.
  MetricsSnapshot Pretty;
  ASSERT_TRUE(MetricsSnapshot::fromJson(Reg.snapshot().toJson(2), Pretty));
  EXPECT_EQ(Pretty, Reg.snapshot());
}

TEST(MetricsJsonTest, RejectsMalformedDocuments) {
  MetricsSnapshot Out;
  EXPECT_FALSE(MetricsSnapshot::fromJson("", Out));
  EXPECT_FALSE(MetricsSnapshot::fromJson("{}", Out));
  EXPECT_FALSE(MetricsSnapshot::fromJson("not json at all", Out));
  // Wrong schema tag.
  EXPECT_FALSE(MetricsSnapshot::fromJson(
      "{\"schema\":\"something-else\",\"counters\":{},\"gauges\":{},"
      "\"histograms\":{}}",
      Out));
  // Gauges outside int64_t.
  for (const char *G : {"9223372036854775808", "-9223372036854775809"})
    EXPECT_FALSE(MetricsSnapshot::fromJson(
        std::string("{\"schema\":\"traceback-metrics-v1\",\"counters\":{},"
                    "\"gauges\":{\"g\":") +
            G + "},\"histograms\":{}}",
        Out))
        << G;
  // Trailing garbage after a valid document.
  std::string J = sampleSnapshot().toJson();
  EXPECT_FALSE(MetricsSnapshot::fromJson(J + "x", Out));
  // Truncation anywhere must fail, never crash.
  for (size_t Len = 0; Len < J.size(); Len += 7)
    EXPECT_FALSE(MetricsSnapshot::fromJson(J.substr(0, Len), Out));
}

// ----------------------------------------------------------------------------
// TELEMETRY extended records.
// ----------------------------------------------------------------------------

TEST(TelemetryRecordTest, ChunkedEncodeDecodeRoundTrip) {
  // A registry big enough that the JSON spans several chunks (each record
  // carries at most 664 payload bytes).
  MetricsRegistry Reg;
  for (int I = 0; I < 60; ++I)
    Reg.counter(formatv("runtime.some_long_counter_name_%02d", I)).add(I * 7);
  Reg.histogram("runtime.snap_latency_us").observe(1234);
  std::string Json = Reg.snapshot().toJson();
  ASSERT_GT(Json.size(), 2 * 664u);

  std::vector<uint32_t> Words = encodeTelemetryRecords(Json);
  ASSERT_FALSE(Words.empty());
  std::string Back;
  ASSERT_TRUE(decodeTelemetryRecords(Words, Back));
  EXPECT_EQ(Back, Json);

  // Empty stream <-> empty document.
  std::string Empty;
  EXPECT_TRUE(decodeTelemetryRecords({}, Empty));
  EXPECT_TRUE(Empty.empty());
}

namespace {

/// TELEMETRY words built the way the format describes them: one
/// ExtRecord per 664-byte chunk, payload[0] the chunk's byte count, the
/// bytes packed little-endian eight per u64.
std::vector<uint32_t> referenceTelemetryWords(const std::string &Json) {
  std::vector<uint32_t> Out;
  size_t Offset = 0;
  uint16_t Ordinal = 0;
  do {
    size_t N = std::min<size_t>(664, Json.size() - Offset);
    ExtRecord R;
    R.Type = ExtType::Telemetry;
    R.Inline = Ordinal++;
    R.Payload.push_back(N);
    for (size_t I = 0; I < N; I += 8) {
      uint64_t W = 0;
      for (size_t B = 0; B < 8 && I + B < N; ++B)
        W |= static_cast<uint64_t>(
                 static_cast<uint8_t>(Json[Offset + I + B]))
             << (B * 8);
      R.Payload.push_back(W);
    }
    std::vector<uint32_t> Words = encodeExtRecord(R);
    Out.insert(Out.end(), Words.begin(), Words.end());
    Offset += N;
  } while (Offset < Json.size());
  return Out;
}

} // namespace

TEST(TelemetryRecordTest, EmbeddedWordsMatchTheSnapshotEncoding) {
  // Documents either side of the 664-byte chunk boundary, and past two.
  for (size_t Size : {size_t(0), size_t(1), size_t(663), size_t(664),
                      size_t(665), size_t(2 * 664 + 9)}) {
    std::string Doc(Size, '\0');
    for (size_t I = 0; I < Size; ++I)
      Doc[I] = static_cast<char>(I * 131 + 7);
    std::vector<uint32_t> Words = encodeTelemetryRecords(Doc);
    EXPECT_EQ(Words, referenceTelemetryWords(Doc)) << "size " << Size;
    std::string Back;
    ASSERT_TRUE(decodeTelemetryRecords(Words, Back));
    EXPECT_EQ(Back, Doc);
  }

  // A snap's TELEMETRY words, rendered from the registry, equal the
  // encoding of its snapshot's JSON. One padding counter sizes each
  // document exactly.
  for (size_t Target : {size_t(663), size_t(664), size_t(665),
                        size_t(2 * 664 + 100)}) {
    MetricsRegistry Reg;
    fillSample(Reg);
    size_t Base = Reg.toJson().size();
    // ,"<name>":0 adds the name plus five bytes.
    ASSERT_GT(Target, Base + 5);
    Reg.counter("pad." + std::string(Target - Base - 5 - 4, 'p')).add(0);
    ASSERT_EQ(Reg.toJson().size(), Target);
    SnapFile Snap;
    Snap.setTelemetry(Reg);
    std::string Json = Reg.snapshot().toJson();
    EXPECT_EQ(Snap.Telemetry, encodeTelemetryRecords(Json)) << Target;
    EXPECT_EQ(Snap.Telemetry, referenceTelemetryWords(Json)) << Target;
  }
}

TEST(TelemetryRecordTest, TornStreamsAreRejected) {
  std::string Json = sampleSnapshot().toJson();
  std::vector<uint32_t> Words = encodeTelemetryRecords(Json);
  std::string Out;

  // Truncated mid-record.
  std::vector<uint32_t> Cut(Words.begin(), Words.end() - 1);
  EXPECT_FALSE(decodeTelemetryRecords(Cut, Out));

  // A flipped header word.
  std::vector<uint32_t> Flipped = Words;
  Flipped[0] ^= 0x80000000u;
  EXPECT_FALSE(decodeTelemetryRecords(Flipped, Out));

  // Out-of-order chunks (swap the two records of a two-chunk stream).
  MetricsRegistry Reg;
  for (int I = 0; I < 40; ++I)
    Reg.counter(formatv("c.pad_%02d_xxxxxxxxxxxxxxxx", I)).add(1);
  std::vector<uint32_t> Two = encodeTelemetryRecords(Reg.snapshot().toJson());
  std::string TwoJson;
  ASSERT_TRUE(decodeTelemetryRecords(Two, TwoJson));
  // Find the second record's start: the next word with the ext-header tag
  // (top two bits 00) after the first.
  size_t Second = 1;
  while (Second < Two.size() && (Two[Second] >> 30) != 0)
    ++Second;
  ASSERT_LT(Second, Two.size()) << "expected a multi-chunk stream";
  std::vector<uint32_t> Swapped;
  Swapped.insert(Swapped.end(), Two.begin() + Second, Two.end());
  Swapped.insert(Swapped.end(), Two.begin(), Two.begin() + Second);
  EXPECT_FALSE(decodeTelemetryRecords(Swapped, Out));
}

TEST(TelemetryRecordTest, GoldenSnapRoundTripsTelemetry) {
  // The checked-in fixture predates telemetry (format v2): it must load
  // with an empty stream, and re-serializing it with telemetry attached
  // (v3) must round-trip without disturbing anything else.
  const std::string SnapPath =
      std::string(TB_TESTS_DIR) + "/golden/golden.tbsnap";
  SnapFile Snap;
  ASSERT_TRUE(loadSnap(SnapPath, Snap))
      << "missing fixture " << SnapPath
      << " — regenerate with TRACEBACK_REGEN_GOLDEN=1 ./test_goldensnap";
  EXPECT_TRUE(Snap.Telemetry.empty());
  MetricsSnapshot None;
  EXPECT_FALSE(Snap.telemetry(None)) << "v2 snap must report no telemetry";

  MetricsRegistry Health;
  fillSample(Health);
  Snap.setTelemetry(Health);
  std::vector<uint8_t> Bytes = Snap.serialize();
  SnapFile Back;
  ASSERT_TRUE(SnapFile::deserialize(Bytes, Back));
  MetricsSnapshot Embedded;
  ASSERT_TRUE(Back.telemetry(Embedded));
  EXPECT_EQ(Embedded, Health.snapshot());

  // Telemetry piggybacks on the snap without touching the trace payload.
  EXPECT_EQ(Back.ProcessName, Snap.ProcessName);
  ASSERT_EQ(Back.Buffers.size(), Snap.Buffers.size());
  for (size_t I = 0; I < Snap.Buffers.size(); ++I)
    EXPECT_EQ(Back.Buffers[I].Raw, Snap.Buffers[I].Raw) << "buffer " << I;
}

// ----------------------------------------------------------------------------
// Fault-injection counters.
// ----------------------------------------------------------------------------

namespace {

/// Two threads + a snap: gives every fault class something to hit.
const char *ChaosWorkload = R"(
fn worker(a) {
  var x = a;
  while (1) {
    x = x * 5 + 3;
    x = x % 999983;
    yield();
  }
  return x;
}
fn main() export {
  spawn(addr_of(worker), 1);
  var i = 0;
  while (i < 250) {
    i = i + 1;
    yield();
  }
  snap(1);
}
)";

} // namespace

TEST(FaultCounterTest, TwentySeedSweepMatchesFiredKinds) {
  uint64_t Base = testSeed();
  Module Mod = compileOrDie(ChaosWorkload);
  for (uint64_t I = 0; I < 20; ++I) {
    uint64_t Seed = Base + I;
    FaultPlan Plan = FaultPlan::random(Seed, 1500);

    MetricsRegistry Reg;
    SingleProcess S;
    FaultInjector FI(Plan, &Reg);
    S.D.world().Injector = &FI;
    S.runModule(Mod, /*Instrument=*/true);
    S.D.world().Injector = nullptr;

    // The per-class counters must agree exactly with the injector's own
    // record of what fired.
    std::map<std::string, uint64_t> Expected;
    for (FaultKind K : FI.firedKinds())
      ++Expected[std::string("inject.fired.") + faultKindName(K)];
    std::map<std::string, uint64_t> Got;
    for (const auto &[Name, Value] : Reg.snapshot().Counters)
      if (Name.rfind("inject.fired.", 0) == 0 && Value > 0)
        Got[Name] = Value;
    EXPECT_EQ(Got, Expected) << "seed " << Seed << " plan:\n"
                             << Plan.toText();
  }
}

// ----------------------------------------------------------------------------
// End-to-end runtime telemetry.
// ----------------------------------------------------------------------------

namespace {

const char *SnappyWorkload = R"(
fn helper(a) {
  var y = a * 2;
  return y + 1;
}
fn main() export {
  var x = 0;
  var i = 0;
  while (i < 3000) {
    x = x + helper(i);
    i = i + 1;
  }
  snap(1);
  print(x);
}
)";

} // namespace

TEST(RuntimeTelemetryTest, SnapEmbedsNonzeroRuntimeCounters) {
  // A local registry isolates this deployment's numbers from other tests.
  MetricsRegistry Reg;
  Deployment D;
  D.Metrics = &Reg;
  Machine *M = D.addMachine("host0");
  Process *P = M->createProcess("app");
  std::string Error;
  ASSERT_NE(D.deploy(*P, compileOrDie(SnappyWorkload), true, Error), nullptr)
      << Error;
  ASSERT_NE(P->start("main"), nullptr);
  ASSERT_EQ(D.world().run(), World::RunResult::AllExited);
  ASSERT_FALSE(D.snaps().empty());

  // The embedded producer telemetry carries live runtime counters.
  MetricsSnapshot Health;
  ASSERT_TRUE(D.snaps().front().telemetry(Health));
  EXPECT_GT(Health.Counters.at("runtime.words_appended"), 0u);
  EXPECT_GT(Health.Counters.at("runtime.subbuffer_commits"), 0u);
  EXPECT_GE(Health.Counters.at("runtime.snaps_taken"), 1u);
  ASSERT_TRUE(Health.Histograms.count("runtime.snap_latency_us"));
  EXPECT_GE(Health.Histograms.at("runtime.snap_latency_us").Count, 1u);

  // The daemon watched the process and saw the snap.
  MetricsSnapshot Live = Reg.snapshot();
  EXPECT_GE(Live.Counters.at("daemon.snaps_received"), 1u);
  EXPECT_GE(Live.Gauges.at("daemon.watched_processes"), 1);

  // Reconstruction exposes the same document on the trace.
  ReconstructedTrace Trace = D.reconstruct(D.snaps().front());
  MetricsSnapshot FromTrace;
  ASSERT_TRUE(MetricsSnapshot::fromJson(Trace.TelemetryJson, FromTrace));
  EXPECT_EQ(FromTrace, Health);
  // ... and its own cost shows up in the reconstruct family.
  MetricsSnapshot After = Reg.snapshot();
  EXPECT_GE(After.Counters.at("reconstruct.snaps"), 1u);
  EXPECT_GT(After.Counters.at("reconstruct.records"), 0u);
}
