//===- tests/test_transport.cpp - Snap transport + network chaos ----------===//
//
// Part of the TraceBack reproduction project.
//
// The fault-tolerant cross-machine snap transport: frame codec hardening
// (truncation, bit flips, oversized lengths), reliable exactly-once
// delivery under drop/duplicate/reorder/delay faults, partition detection
// that degrades group snaps to partial snaps instead of hanging, and a
// 200-seed deterministic chaos sweep. Runs in the `network` ctest label;
// seeds replay via TRACEBACK_TEST_SEED.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "collector/CollectorService.h"
#include "collector/SnapStore.h"
#include "distributed/Transport.h"
#include "distributed/Wire.h"
#include "reconstruct/Stitch.h"
#include "vm/FaultInjector.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <tuple>
#include <unistd.h>

using namespace traceback;
using namespace traceback::testing_helpers;

namespace {

WireFrame makeFrame(FrameType Type, uint64_t Seq,
                    std::vector<uint8_t> Payload) {
  WireFrame F;
  F.Type = Type;
  F.SrcMachine = 1;
  F.DstMachine = 2;
  F.Seq = Seq;
  F.AckSeq = Seq ? Seq - 1 : 0;
  F.Payload = std::move(Payload);
  return F;
}

/// A bare two-machine fabric with one endpoint per machine — no guests,
/// no daemons, just the reliability layer under test.
struct Fabric {
  World W;
  MetricsRegistry Reg;
  Machine *MA, *MB;
  TransportEndpoint A, B;
  std::vector<std::vector<uint8_t>> GotB; ///< Payloads B delivered, in order.

  Fabric()
      : MA(W.createMachine("a", "simos", 0, 1, 1)),
        MB(W.createMachine("b", "simos", 0, 1, 1)), A(W, MA->Id, &Reg),
        B(W, MB->Id, &Reg) {
    B.Handler = [this](const WireFrame &F) { GotB.push_back(F.Payload); };
  }

  bool quiet() const {
    return A.inFlightTotal() == 0 && B.inFlightTotal() == 0 &&
           W.netQueued(MA->Id) == 0 && W.netQueued(MB->Id) == 0;
  }

  bool pumpUntilQuiet(uint64_t MaxCycles = 4'000'000) {
    uint64_t Start = W.cycles();
    for (;;) {
      A.pump();
      B.pump();
      if (quiet())
        return true;
      if (W.cycles() - Start >= MaxCycles)
        return false;
      W.advanceIdle(500);
    }
  }

  /// Pumps for a fixed span of idle time regardless of quiescence.
  void pumpFor(uint64_t Cycles) {
    for (uint64_t T = 0; T < Cycles; T += 500) {
      A.pump();
      B.pump();
      W.advanceIdle(500);
    }
    A.pump();
    B.pump();
  }

  std::vector<uint8_t> payload(uint8_t Tag) const {
    return {Tag, 0x7b, static_cast<uint8_t>(Tag ^ 0xff)};
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Frame codec
//===----------------------------------------------------------------------===//

TEST(WireFrameTest, RoundTripAllTypes) {
  for (FrameType Type :
       {FrameType::Ack, FrameType::SnapPush, FrameType::GroupSnapRequest,
        FrameType::GroupSnapAck, FrameType::Heartbeat}) {
    WireFrame In = makeFrame(Type, 5, {1, 2, 3, 4, 5});
    In.SrcMachine = 0x1122334455667788ull;
    In.DstMachine = 42;
    In.AckSeq = 17;
    std::vector<uint8_t> Bytes;
    encodeFrame(In, Bytes);
    WireFrame Out;
    std::string Error;
    ASSERT_TRUE(decodeFrame(Bytes, Out, Error)) << Error;
    EXPECT_EQ(Out.Type, In.Type);
    EXPECT_EQ(Out.SrcMachine, In.SrcMachine);
    EXPECT_EQ(Out.DstMachine, In.DstMachine);
    EXPECT_EQ(Out.Seq, In.Seq);
    EXPECT_EQ(Out.AckSeq, In.AckSeq);
    EXPECT_EQ(Out.Payload, In.Payload);
  }
}

TEST(WireFrameTest, EmptyPayloadRoundTrips) {
  WireFrame In = makeFrame(FrameType::Ack, 0, {});
  std::vector<uint8_t> Bytes;
  encodeFrame(In, Bytes);
  WireFrame Out;
  std::string Error;
  ASSERT_TRUE(decodeFrame(Bytes, Out, Error)) << Error;
  EXPECT_TRUE(Out.Payload.empty());
}

TEST(WireFrameTest, PayloadCodecsRoundTrip) {
  GroupSnapRequestMsg Req;
  Req.RequestId = 99;
  Req.Group = "checkout";
  Req.ExceptPid = 1234;
  std::vector<uint8_t> Bytes;
  encodeGroupSnapRequest(Req, Bytes);
  GroupSnapRequestMsg Req2;
  ASSERT_TRUE(decodeGroupSnapRequest(Bytes, Req2));
  EXPECT_EQ(Req2.RequestId, 99u);
  EXPECT_EQ(Req2.Group, "checkout");
  EXPECT_EQ(Req2.ExceptPid, 1234u);

  GroupSnapAckMsg Ack;
  Ack.RequestId = 99;
  Ack.SnapsTaken = 3;
  Bytes.clear();
  encodeGroupSnapAck(Ack, Bytes);
  GroupSnapAckMsg Ack2;
  ASSERT_TRUE(decodeGroupSnapAck(Bytes, Ack2));
  EXPECT_EQ(Ack2.RequestId, 99u);
  EXPECT_EQ(Ack2.SnapsTaken, 3u);

  HeartbeatMsg HB;
  HB.DaemonClock = 777;
  HB.WatchedProcesses = 2;
  Bytes.clear();
  encodeHeartbeat(HB, Bytes);
  HeartbeatMsg HB2;
  ASSERT_TRUE(decodeHeartbeat(Bytes, HB2));
  EXPECT_EQ(HB2.DaemonClock, 777u);
  EXPECT_EQ(HB2.WatchedProcesses, 2u);

  // Truncated payloads fail cleanly in every codec.
  Bytes.clear();
  encodeGroupSnapRequest(Req, Bytes);
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    GroupSnapRequestMsg Tmp;
    EXPECT_FALSE(decodeGroupSnapRequest(Cut, Tmp));
  }
}

TEST(WireFrameTest, EveryTruncationIsRejected) {
  WireFrame In = makeFrame(FrameType::SnapPush, 7, {9, 8, 7, 6, 5, 4, 3});
  std::vector<uint8_t> Bytes;
  encodeFrame(In, Bytes);
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    WireFrame Out;
    std::string Error;
    EXPECT_FALSE(decodeFrame(Cut, Out, Error)) << "prefix length " << Len;
    EXPECT_FALSE(Error.empty());
  }
}

TEST(WireFrameTest, EverySingleBitFlipIsRejected) {
  // The CRC32C covers the header fields and the payload. A CRC detects
  // every burst of up to 32 flipped bits in what it covers, and a burst
  // inside the stored checksum mismatches the recomputation; so every
  // single flip, and every burst lying wholly inside the header, the
  // checksum field or the payload, must be rejected. This 51-byte frame
  // also has its bursts that straddle the checksum field rejected; the
  // CRC only makes those unlikely to pass (2^-32), and the bytes here
  // are fixed, so they are asserted too.
  WireFrame In = makeFrame(FrameType::GroupSnapRequest, 3, {0xde, 0xad, 0});
  std::vector<uint8_t> Bytes;
  encodeFrame(In, Bytes);
  ASSERT_EQ(Bytes.size(), 51u);
  const size_t Bits = Bytes.size() * 8;
  for (size_t Burst = 1; Burst <= 32; ++Burst)
    for (size_t Start = 0; Start + Burst <= Bits; ++Start) {
      std::vector<uint8_t> Hit = Bytes;
      for (size_t Bit = Start; Bit < Start + Burst; ++Bit)
        Hit[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
      WireFrame Out;
      std::string Error;
      EXPECT_FALSE(decodeFrame(Hit, Out, Error))
          << Burst << " bits from bit " << Start;
    }
}

TEST(WireFrameTest, VersionOneFrameIsRejected) {
  // Version 1 frames carried an FNV-1a checksum; the layout is the same,
  // so only the version field tells them apart.
  WireFrame In = makeFrame(FrameType::SnapPush, 1, {1, 2, 3});
  std::vector<uint8_t> Bytes;
  encodeFrame(In, Bytes);
  Bytes[4] = 1;
  Bytes[5] = 0;
  WireFrame Out;
  std::string Error;
  EXPECT_FALSE(decodeFrame(Bytes, Out, Error));
  EXPECT_EQ(Error, "unsupported frame version 1");
}

TEST(WireFrameTest, OversizedLengthFieldIsRejected) {
  WireFrame In = makeFrame(FrameType::SnapPush, 1, {1, 2, 3});
  std::vector<uint8_t> Bytes;
  encodeFrame(In, Bytes);
  // The payload-length field sits after magic(4) version(2) type(2) and
  // four u64 fields; patch it to huge values. The decoder must reject
  // without ever allocating toward the claimed size.
  const size_t LenOff = 4 + 2 + 2 + 8 * 4;
  for (uint32_t Claim : {0xffffffffu, MaxFramePayload + 1, 0x40000000u}) {
    std::vector<uint8_t> Hit = Bytes;
    for (int I = 0; I < 4; ++I)
      Hit[LenOff + I] = static_cast<uint8_t>(Claim >> (8 * I));
    WireFrame Out;
    std::string Error;
    EXPECT_FALSE(decodeFrame(Hit, Out, Error));
  }
}

TEST(WireFrameTest, RandomMutationFuzzNeverCrashes) {
  Rng Seeds(testSeed() ^ 0x7afe);
  WireFrame In = makeFrame(FrameType::SnapPush, 11,
                           std::vector<uint8_t>(64, 0x5a));
  std::vector<uint8_t> Clean;
  encodeFrame(In, Clean);
  for (int Round = 0; Round < 400; ++Round) {
    Rng R(Seeds.next());
    std::vector<uint8_t> Hit = Clean;
    // Resize, splice and flip: the weather a hostile or damaged link
    // produces. Decoding must fail or succeed, never crash or overread.
    if (R.chance(1, 3))
      Hit.resize(R.below(Hit.size() + 16));
    unsigned Flips = 1 + static_cast<unsigned>(R.below(12));
    for (unsigned I = 0; I < Flips && !Hit.empty(); ++I)
      Hit[R.below(Hit.size())] ^= static_cast<uint8_t>(1u << R.below(8));
    WireFrame Out;
    std::string Error;
    (void)decodeFrame(Hit, Out, Error);
  }
}

//===----------------------------------------------------------------------===//
// Reliability layer
//===----------------------------------------------------------------------===//

TEST(TransportTest, InOrderExactlyOnceDelivery) {
  Fabric F;
  const unsigned N = 20;
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(F.A.send(FrameType::SnapPush, F.MB->Id,
                       F.payload(static_cast<uint8_t>(I))),
              I + 1);
  ASSERT_TRUE(F.pumpUntilQuiet());
  ASSERT_EQ(F.GotB.size(), N);
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(F.GotB[I], F.payload(static_cast<uint8_t>(I))) << I;
  EXPECT_EQ(F.A.ackedDelivered(F.MB->Id), N);
  EXPECT_EQ(F.B.deliveredFrom(F.MA->Id), N);
  EXPECT_EQ(F.A.lostFrames(F.MB->Id), 0u);
}

TEST(TransportTest, RetryRecoversFromDrops) {
  Fabric F;
  FaultPlan Plan;
  Plan.Seed = 1;
  // Drop the first transmission of the first three data frames.
  Plan.Events.push_back({FaultKind::NetDrop, 0, 0});
  Plan.Events.push_back({FaultKind::NetDrop, 1, 0});
  Plan.Events.push_back({FaultKind::NetDrop, 2, 0});
  FaultInjector FI(Plan, &F.Reg);
  F.W.Injector = &FI;
  for (uint8_t I = 0; I < 5; ++I)
    F.A.send(FrameType::SnapPush, F.MB->Id, F.payload(I));
  ASSERT_TRUE(F.pumpUntilQuiet());
  ASSERT_EQ(F.GotB.size(), 5u);
  for (uint8_t I = 0; I < 5; ++I)
    EXPECT_EQ(F.GotB[I], F.payload(I));
  EXPECT_EQ(F.A.ackedDelivered(F.MB->Id), 5u);
  EXPECT_GE(F.Reg.counter("daemon.net.frames_retried").value(), 3u);
  EXPECT_TRUE(FI.allFired());
}

TEST(TransportTest, DuplicatesAreDiscarded) {
  Fabric F;
  FaultPlan Plan;
  Plan.Seed = 2;
  Plan.Events.push_back({FaultKind::NetDup, 0, 0});
  Plan.Events.push_back({FaultKind::NetDup, 1, 0});
  FaultInjector FI(Plan, &F.Reg);
  F.W.Injector = &FI;
  for (uint8_t I = 0; I < 4; ++I)
    F.A.send(FrameType::SnapPush, F.MB->Id, F.payload(I));
  ASSERT_TRUE(F.pumpUntilQuiet());
  ASSERT_EQ(F.GotB.size(), 4u) << "duplicates must not double-deliver";
  EXPECT_GE(F.Reg.counter("daemon.net.dups_discarded").value(), 2u);
}

TEST(TransportTest, ReorderedFramesDeliverInOrder) {
  Fabric F;
  FaultPlan Plan;
  Plan.Seed = 3;
  Plan.Events.push_back({FaultKind::NetReorder, 0, 0});
  Plan.Events.push_back({FaultKind::NetReorder, 2, 0});
  FaultInjector FI(Plan, &F.Reg);
  F.W.Injector = &FI;
  for (uint8_t I = 0; I < 6; ++I)
    F.A.send(FrameType::SnapPush, F.MB->Id, F.payload(I));
  ASSERT_TRUE(F.pumpUntilQuiet());
  ASSERT_EQ(F.GotB.size(), 6u);
  for (uint8_t I = 0; I < 6; ++I)
    EXPECT_EQ(F.GotB[I], F.payload(I)) << "reorder hold must restore order";
}

TEST(TransportTest, DelayedFramesStillDeliver) {
  Fabric F;
  FaultPlan Plan;
  Plan.Seed = 4;
  Plan.Events.push_back({FaultKind::NetDelay, 1, 40000});
  FaultInjector FI(Plan, &F.Reg);
  F.W.Injector = &FI;
  for (uint8_t I = 0; I < 3; ++I)
    F.A.send(FrameType::SnapPush, F.MB->Id, F.payload(I));
  ASSERT_TRUE(F.pumpUntilQuiet());
  ASSERT_EQ(F.GotB.size(), 3u);
  for (uint8_t I = 0; I < 3; ++I)
    EXPECT_EQ(F.GotB[I], F.payload(I));
}

TEST(TransportTest, PartitionDetectedWithoutHanging) {
  Fabric F;
  F.W.netSetPartitioned(F.MA->Id, F.MB->Id, true);
  for (uint8_t I = 0; I < 3; ++I)
    EXPECT_NE(F.A.send(FrameType::SnapPush, F.MB->Id, F.payload(I)), 0u);
  // The retry budget burns down in bounded time; no quiescence until the
  // verdict lands, then the channel is idle.
  ASSERT_TRUE(F.pumpUntilQuiet());
  EXPECT_TRUE(F.A.peerUnreachable(F.MB->Id));
  EXPECT_EQ(F.A.lostFrames(F.MB->Id), 3u);
  EXPECT_EQ(F.A.ackedDelivered(F.MB->Id), 0u);
  EXPECT_TRUE(F.GotB.empty());
  // While unreachable, sends are refused — callers degrade, not block.
  EXPECT_EQ(F.A.send(FrameType::SnapPush, F.MB->Id, F.payload(9)), 0u);
  EXPECT_GE(F.Reg.counter("daemon.net.sends_refused").value(), 1u);
}

TEST(TransportTest, HealedChannelRecoversViaGapSkip) {
  Fabric F;
  F.W.netSetPartitioned(F.MA->Id, F.MB->Id, true);
  for (uint8_t I = 0; I < 3; ++I)
    F.A.send(FrameType::SnapPush, F.MB->Id, F.payload(I));
  ASSERT_TRUE(F.pumpUntilQuiet());
  ASSERT_TRUE(F.A.peerUnreachable(F.MB->Id));

  // Heal. The sender wrote seqs 1..3 off; the next frame is seq 4, which
  // the receiver must NOT hold hostage forever waiting for lost history.
  F.W.netHealAll();
  F.A.resetPeer(F.MB->Id);
  EXPECT_EQ(F.A.send(FrameType::SnapPush, F.MB->Id, F.payload(42)), 4u);
  // The receiver's gap timeout deliberately exceeds the sender's whole
  // retry horizon, so give the channel two full horizons to resync.
  F.pumpFor(2 * TransportEndpoint::GapTimeout);
  ASSERT_TRUE(F.pumpUntilQuiet());
  ASSERT_EQ(F.GotB.size(), 1u) << "gap skip must deliver exactly once";
  EXPECT_EQ(F.GotB[0], F.payload(42));
  EXPECT_GE(F.Reg.counter("daemon.net.gap_skips").value(), 1u);
  // The invariant, not the optimistic count: frames the sender counts as
  // acked-and-delivered never exceed what the receiver actually took.
  EXPECT_LE(F.A.ackedDelivered(F.MB->Id), F.B.deliveredFrom(F.MA->Id));
  // The skip-ack's arrival is evidence of life: the verdict is cleared
  // and subsequent traffic flows normally again.
  EXPECT_FALSE(F.A.peerUnreachable(F.MB->Id));
  EXPECT_NE(F.A.send(FrameType::SnapPush, F.MB->Id, F.payload(43)), 0u);
  ASSERT_TRUE(F.pumpUntilQuiet());
  ASSERT_EQ(F.GotB.size(), 2u);
  EXPECT_EQ(F.GotB[1], F.payload(43));
}

TEST(TransportTest, OversizedPayloadIsRefusedNotWrittenOff) {
  // The receiver rejects a payload over MaxFramePayload as corrupt, so a
  // sent one would be retried until the peer was written off, taking the
  // frames queued behind it along. The sender refuses it instead.
  Fabric F;
  std::vector<uint8_t> Small1(64, 0x11), Small2(64, 0x22);
  EXPECT_EQ(F.A.send(FrameType::SnapPush, F.MB->Id, Small1), 1u);
  EXPECT_EQ(F.A.send(FrameType::SnapPush, F.MB->Id,
                     std::vector<uint8_t>(size_t{MaxFramePayload} + 1)),
            0u);
  EXPECT_EQ(F.A.send(FrameType::SnapPush, F.MB->Id, Small2), 2u);
  ASSERT_TRUE(F.pumpUntilQuiet());
  ASSERT_EQ(F.GotB.size(), 2u);
  EXPECT_EQ(F.GotB[0], Small1);
  EXPECT_EQ(F.GotB[1], Small2);
  EXPECT_FALSE(F.A.peerUnreachable(F.MB->Id));
  EXPECT_EQ(F.A.lostFrames(F.MB->Id), 0u);
  EXPECT_EQ(F.Reg.counter("daemon.net.sends_refused").value(), 1u);
}

TEST(TransportTest, CorruptDatagramsAreCountedAndDropped) {
  Fabric F;
  // Inject raw garbage straight onto the fabric.
  F.W.netSend(F.MA->Id, F.MB->Id, {0x00, 0x11, 0x22});
  F.pumpFor(10'000);
  EXPECT_TRUE(F.GotB.empty());
  EXPECT_GE(F.Reg.counter("daemon.net.frames_corrupt").value(), 1u);
}

//===----------------------------------------------------------------------===//
// Daemon protocol over the transport
//===----------------------------------------------------------------------===//

namespace {

const char *NetEchoServer = R"(
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

const char *NetSnapClient = R"(
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

/// The chaos-sweep scenario: client on alpha calls the echo server on
/// beta, then snaps; the client's API snap fans a group snap out to the
/// server across the network, and everything travels to a collector
/// machine as SnapPush frames.
struct NetTwoMachines {
  MetricsRegistry Reg;
  Deployment D;
  Machine *MA, *MB;
  Process *Client, *Server;
  uint64_t CollectorId = 0;

  NetTwoMachines() {
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

/// Renders the stitched logical threads of the client + server snaps —
/// the byte-comparison payload of the chaos sweep.
std::string stitchedRender(Deployment &D) {
  const SnapFile *Cli = nullptr, *Srv = nullptr;
  for (const SnapFile &S : D.snaps()) {
    if (S.ProcessName == "client" && S.Reason == SnapReason::Api)
      Cli = &S;
    if (S.ProcessName == "server" && S.Reason == SnapReason::GroupPeer)
      Srv = &S;
  }
  if (!Cli || !Srv)
    return "<incomplete>";
  ReconstructedTrace CT = D.reconstruct(*Cli);
  ReconstructedTrace ST = D.reconstruct(*Srv);
  DistributedStitcher Stitcher;
  Stitcher.addTrace(CT);
  Stitcher.addTrace(ST);
  std::vector<std::string> Warnings;
  std::string Out;
  for (const LogicalThread &LT : Stitcher.stitch(Warnings))
    Out += renderLogicalThread(LT);
  for (const std::string &W : Warnings)
    Out += "warning: " + W + "\n";
  return Out;
}

} // namespace

TEST(NetDaemonTest, SnapPushAndGroupSnapTravelTheNetwork) {
  Module CM = compileOrDie(NetSnapClient, "climod", Technology::Native,
                           "client.ml");
  Module SM = compileOrDie(NetEchoServer, "srvmod", Technology::Native,
                           "server.ml");
  NetTwoMachines T;
  T.deployAndRun(CM, SM);
  EXPECT_EQ(T.Client->Output, "0\n40\n");
  // Nothing surfaces until the network is pumped.
  EXPECT_TRUE(T.D.snaps().empty());
  ASSERT_TRUE(T.D.pumpNetwork());
  bool ClientApi = false, ServerPeer = false;
  for (const SnapFile &S : T.D.snaps()) {
    if (S.ProcessName == "client" && S.Reason == SnapReason::Api)
      ClientApi = true;
    if (S.ProcessName == "server" && S.Reason == SnapReason::GroupPeer)
      ServerPeer = true;
  }
  EXPECT_TRUE(ClientApi);
  EXPECT_TRUE(ServerPeer) << "group fan-out must cross the network";
  // Requests were acked; no partial degradation happened.
  ServiceDaemon *DA = T.D.daemonFor(*T.MA);
  ASSERT_NE(DA, nullptr);
  EXPECT_EQ(DA->pendingGroupRequests(), 0u);
  EXPECT_GE(T.Reg.counter("daemon.net.snap_pushes").value(), 2u);
  EXPECT_GE(T.Reg.counter("daemon.net.group_acks").value(), 1u);
  EXPECT_EQ(T.Reg.counter("daemon.net.missing_peer_markers").value(), 0u);
  // The stitched view fuses both machines, as in direct-delivery mode.
  std::string View = stitchedRender(T.D);
  EXPECT_NE(View.find("alpha"), std::string::npos);
  EXPECT_NE(View.find("beta"), std::string::npos);
}

TEST(NetDaemonTest, PartitionDegradesGroupSnapToPartialSnap) {
  Module CM = compileOrDie(NetSnapClient, "climod", Technology::Native,
                           "client.ml");
  Module SM = compileOrDie(NetEchoServer, "srvmod", Technology::Native,
                           "server.ml");
  NetTwoMachines T;
  // Cut alpha<->beta for the whole run: the group-snap request can never
  // reach the server's daemon. The push path alpha->collector stays up.
  // (Guest RPC rides its own wire plane, so the client still calls the
  // server; only the snap-transport fabric is partitioned.)
  T.D.world().netSetPartitioned(T.MA->Id, T.MB->Id, true);
  T.deployAndRun(CM, SM);
  ASSERT_TRUE(T.D.pumpNetwork()) << "a partition must degrade, not hang";
  bool ServerPeer = false;
  const SnapFile *Marker = nullptr;
  for (const SnapFile &S : T.D.snaps()) {
    if (S.ProcessName == "server" && S.Reason == SnapReason::GroupPeer)
      ServerPeer = true;
    if (S.Reason == SnapReason::MissingPeer)
      Marker = &S;
  }
  EXPECT_FALSE(ServerPeer) << "the partition should have blocked fan-out";
  ASSERT_NE(Marker, nullptr)
      << "a partial group snap must carry a MISSING-PEER marker";
  EXPECT_EQ(Marker->MachineName, "beta");
  EXPECT_EQ(Marker->ProcessName, "default") << "the group being snapped";
  ServiceDaemon *DA = T.D.daemonFor(*T.MA);
  EXPECT_EQ(DA->pendingGroupRequests(), 0u);
  EXPECT_GE(T.Reg.counter("daemon.net.missing_peer_markers").value(), 1u);

  // Reconstruction tolerates the partial set: the stitcher reports the
  // absent peer instead of failing or silently dropping it.
  const SnapFile *Cli = nullptr;
  for (const SnapFile &S : T.D.snaps())
    if (S.ProcessName == "client" && S.Reason == SnapReason::Api)
      Cli = &S;
  ASSERT_NE(Cli, nullptr);
  ReconstructedTrace CT = T.D.reconstruct(*Cli);
  DistributedStitcher Stitcher;
  Stitcher.addTrace(CT);
  Stitcher.noteMissingPeer(Marker->MachineName);
  std::vector<std::string> Warnings;
  (void)Stitcher.stitch(Warnings);
  ASSERT_FALSE(Warnings.empty());
  EXPECT_NE(Warnings.front().find("partial group snap"), std::string::npos);
  EXPECT_NE(Warnings.front().find("beta"), std::string::npos);
}

TEST(NetDaemonTest, SnapsListsWhatTheCollectorIndexed) {
  // The collector endpoint keeps pushed images encoded and snaps() decodes
  // them on first read; a CollectorService chained onto the same endpoint
  // stores those images. Both must see the same snaps in the same order.
  Module CM = compileOrDie(NetSnapClient, "climod", Technology::Native,
                           "client.ml");
  Module SM = compileOrDie(NetEchoServer, "srvmod", Technology::Native,
                           "server.ml");
  NetTwoMachines T;
  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("tb-transport-snaps-" + std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(Dir);
  SnapStore Store;
  SnapStoreOptions SO;
  SO.Metrics = &T.Reg;
  std::string Error;
  ASSERT_TRUE(Store.open(Dir, SO, Error)) << Error;
  CollectorOptions CO;
  CO.Metrics = &T.Reg;
  CollectorService Svc(Store, CO);
  Svc.attachTransport(*T.D.collectorEndpoint());
  T.deployAndRun(CM, SM);
  ASSERT_TRUE(T.D.pumpNetwork());
  Svc.drain();
  Svc.detachTransport();
  ASSERT_EQ(Svc.errors(), 0u) << Svc.lastError();

  std::vector<std::vector<uint8_t>> Stored;
  SnapStore::Cursor Cur = Store.scan(SnapQuery());
  while (const SnapStoreEntry *E = Cur.next()) {
    EXPECT_EQ(E->RefCount, 1u);
    Stored.emplace_back();
    ASSERT_TRUE(Store.loadImage(*E, Stored.back()));
  }
  const std::vector<SnapFile> &Snaps = T.D.snaps();
  ASSERT_GE(Snaps.size(), 2u);
  ASSERT_EQ(Snaps.size(), Stored.size());
  for (size_t I = 0; I < Snaps.size(); ++I)
    EXPECT_EQ(Snaps[I].serialize(), Stored[I]) << "snap " << I;
  // Nothing new arrived, so a second read decodes nothing: the same
  // elements at the same addresses.
  const SnapFile *First = Snaps.data();
  EXPECT_EQ(T.D.snaps().size(), Stored.size());
  EXPECT_EQ(T.D.snaps().data(), First);
  Store.close();
  std::filesystem::remove_all(Dir);
}

TEST(NetDaemonTest, SnapsKeepsArrivalOrderAcrossPushFallback) {
  // Cut alpha off from the collector part-way: alpha's snaps then take the
  // push_fallback path and arrive decoded, while beta's still arrive as
  // pushed images. Each direct delivery must land after the images that
  // arrived before it, and every snap exactly once.
  Module CM = compileOrDie(NetSnapClient, "climod", Technology::Native,
                           "client.ml");
  Module SM = compileOrDie(NetEchoServer, "srvmod", Technology::Native,
                           "server.ml");
  NetTwoMachines T;
  T.deployAndRun(CM, SM);
  ASSERT_TRUE(T.D.pumpNetwork());
  using Key = std::tuple<uint64_t, int, uint64_t>;
  auto keyOf = [](const SnapFile &S) {
    return Key{S.Pid, static_cast<int>(S.Reason), S.Timestamp};
  };
  std::vector<Key> Want;
  for (const SnapFile &S : T.D.snaps())
    Want.push_back(keyOf(S));
  ASSERT_GE(Want.size(), 2u);

  // A frame alpha cannot deliver exhausts its retries, so alpha judges the
  // collector unreachable (a heartbeat, so no snap is lost on the way).
  T.D.world().netSetPartitioned(T.MA->Id, T.CollectorId, true);
  TransportEndpoint *EA = T.D.endpointFor(*T.MA);
  ASSERT_NE(EA->send(FrameType::Heartbeat, T.CollectorId, {}), 0u);
  ASSERT_TRUE(T.D.pumpNetwork());
  ASSERT_TRUE(EA->peerUnreachable(T.CollectorId));

  // GroupPeer snaps do not fan out, so each call yields exactly one snap.
  TracebackRuntime *Alpha = T.D.runtimeFor(*T.Client, Technology::Native);
  TracebackRuntime *Beta = T.D.runtimeFor(*T.Server, Technology::Native);
  auto take = [&](TracebackRuntime *RT) {
    Want.push_back(keyOf(*RT->takeSnap(SnapReason::GroupPeer, 0)));
    ASSERT_TRUE(T.D.pumpNetwork());
  };
  for (TracebackRuntime *RT : {Beta, Alpha, Beta, Alpha, Beta})
    take(RT);
  EXPECT_EQ(T.Reg.counter("daemon.net.push_fallback").value(), 2u);

  std::vector<Key> Got;
  for (const SnapFile &S : T.D.snaps())
    Got.push_back(keyOf(S));
  EXPECT_EQ(Got, Want);
}

TEST(NetDaemonTest, HeartbeatsCrossTheNetwork) {
  NetTwoMachines T;
  ServiceDaemon *DA = T.D.daemonFor(*T.MA);
  ServiceDaemon *DB = T.D.daemonFor(*T.MB);
  ASSERT_NE(DA, nullptr);
  ASSERT_NE(DB, nullptr);
  DA->broadcastHeartbeat();
  ASSERT_TRUE(T.D.pumpNetwork());
  auto It = DB->peerHeartbeats().find(T.MA->Id);
  ASSERT_NE(It, DB->peerHeartbeats().end());
  EXPECT_GE(T.Reg.counter("daemon.net.heartbeats_seen").value(), 1u);
}

//===----------------------------------------------------------------------===//
// The 200-seed network chaos sweep
//===----------------------------------------------------------------------===//

TEST(NetChaosSweepTest, TwoHundredSeedsDeliverExactlyOnce) {
  Module CM = compileOrDie(NetSnapClient, "climod", Technology::Native,
                           "client.ml");
  Module SM = compileOrDie(NetEchoServer, "srvmod", Technology::Native,
                           "server.ml");

  // Fault-free baseline, network mode: the stitched render every
  // faulted-but-complete run must reproduce byte for byte.
  std::string Baseline;
  size_t BaselineSnaps = 0;
  {
    NetTwoMachines T;
    T.deployAndRun(CM, SM);
    if (::testing::Test::HasFatalFailure())
      return;
    ASSERT_TRUE(T.D.pumpNetwork());
    Baseline = stitchedRender(T.D);
    BaselineSnaps = T.D.snaps().size();
    ASSERT_NE(Baseline, "<incomplete>");
    ASSERT_GE(BaselineSnaps, 2u);
  }

  const int Sweeps = 200;
  uint64_t Base = testSeed();
  int Partitioned = 0, Complete = 0;
  for (int I = 0; I < Sweeps; ++I) {
    uint64_t Seed = Base + static_cast<uint64_t>(I);
    SCOPED_TRACE(::testing::Message() << "seed " << Seed);
    // MaxSlice is tuned to the scenario's actual run length so that
    // partition/heal events usually fire while traffic is in flight
    // instead of after the world went idle.
    FaultPlan Plan = FaultPlan::randomNetwork(Seed, /*MaxPacket=*/16,
                                              /*MaxSlice=*/60);
    NetTwoMachines T;
    FaultInjector FI(Plan, &T.Reg);
    T.D.world().Injector = &FI;
    T.deployAndRun(CM, SM);
    if (::testing::Test::HasFatalFailure())
      return;
    // Whatever the weather, the transport must reach quiescence: every
    // frame acked, written off after partition detection, or resynced.
    ASSERT_TRUE(T.D.pumpNetwork()) << "transport hang under plan:\n"
                                   << Plan.toText();

    // Acked => delivered, exactly once, per channel into the collector.
    TransportEndpoint *C = T.D.collectorEndpoint();
    for (Machine *M : {T.MA, T.MB}) {
      TransportEndpoint *EP = T.D.endpointFor(*M);
      ASSERT_NE(EP, nullptr);
      EXPECT_EQ(EP->inFlightTotal(), 0u);
      EXPECT_GE(C->deliveredFrom(M->Id), EP->ackedDelivered(T.CollectorId))
          << "an acked snap push was never delivered";
    }

    // No snap is ever double-delivered: captures are unique by
    // (pid, reason, capture time), and receive-side dedup must hold.
    std::set<std::tuple<uint64_t, int, uint64_t>> Unique;
    for (const SnapFile &S : T.D.snaps())
      EXPECT_TRUE(
          Unique.insert({S.Pid, static_cast<int>(S.Reason), S.Timestamp})
              .second)
          << "duplicate snap delivered: " << S.ProcessName << "/"
          << snapReasonName(S.Reason);

    // Every daemon resolved its group requests (ack or marker).
    for (Machine *M : {T.MA, T.MB})
      EXPECT_EQ(T.D.daemonFor(*M)->pendingGroupRequests(), 0u);

    bool SawPartition = false;
    for (FaultKind K : FI.firedKinds())
      if (K == FaultKind::NetPartition)
        SawPartition = true;
    if (SawPartition) {
      ++Partitioned;
      continue;
    }

    // Drop/dup/reorder/delay only: delivery must COMPLETE — nothing lost,
    // nothing refused, and the stitched reconstruction byte-identical to
    // the fault-free run.
    ++Complete;
    for (Machine *M : {T.MA, T.MB}) {
      TransportEndpoint *EP = T.D.endpointFor(*M);
      EXPECT_EQ(EP->lostFrames(T.CollectorId), 0u);
      EXPECT_FALSE(EP->peerUnreachable(T.CollectorId));
    }
    EXPECT_EQ(T.D.snaps().size(), BaselineSnaps) << Plan.toText();
    EXPECT_EQ(stitchedRender(T.D), Baseline)
        << "faulted-but-complete delivery must reconstruct identically\n"
        << Plan.toText();
  }
  std::printf("[ chaos sweep: %d seeds, %d complete, %d partitioned ]\n",
              Sweeps, Complete, Partitioned);
  EXPECT_GT(Complete, 0) << "sweep never exercised the fault-free path";
}
