//===- triage/Signature.h - Crash-signature extraction ----------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first stage of automated triage: normalize one snap (and, when
/// mapfiles are available, its reconstructed trace) into a stable
/// *fault signature* — the fingerprint millions of production snaps are
/// clustered by. At volume, the same few hundred faults recur endlessly;
/// what distinguishes two occurrences of the *same* fault is exactly the
/// incidental state a signature must abstract away: thread ids, runtime
/// ids, machine names, timestamps, addresses, torn-write word positions,
/// repeat counts, and which particular peer a partition happened to cut
/// off. What distinguishes two *different* faults is what it must keep:
/// the fault kind, the faulting module set, the canonicalized
/// top-of-trace DAG path (the last TopFrames normalized frames of the
/// faulting thread), and degradation markers (MISSING-PEER, torn tail,
/// ring wrap) stripped of their identity payload.
///
/// Grounded in "Reproducing Failures in Fault Signatures": a failure kind
/// plus a reduced trace context is enough to group (and often reproduce)
/// failures. Our FaultInjector's seeded plans label every snap with the
/// fault that produced it, so clustering precision/recall against these
/// signatures is asserted in CI (tests/test_triage.cpp) instead of
/// eyeballed.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_TRIAGE_SIGNATURE_H
#define TRACEBACK_TRIAGE_SIGNATURE_H

#include "reconstruct/Trace.h"
#include "runtime/Snap.h"
#include "support/Hash.h"

#include <cstdint>
#include <string>
#include <vector>

namespace traceback {

/// Tuning knobs for signature extraction.
struct SignatureOptions {
  /// How many normalized frames of the faulting thread's history (newest
  /// end) enter the signature. Enough to localize a fault site; small
  /// enough that unrelated old history cannot split a cluster.
  unsigned TopFrames = 16;
};

/// A normalized fault signature. Every field is identity-free: two snaps
/// of the same fault on different machines/threads/runs produce equal
/// signatures (the exact-match tier), and truncated/torn variants of the
/// same fault differ only by a small path edit distance (the near-match
/// tier, see triage/Clusterer.h).
struct FaultSignature {
  /// The failure kind: "none" (clean / post-mortem capture), "hang",
  /// "missing-peer", or "fault:<code>@<module>" for exception snaps.
  /// Fault offsets are deliberately absent (addresses are identity); the
  /// path frames localize the site instead.
  std::string Kind;
  /// Canonicalized top-of-trace path, oldest to newest, at most
  /// SignatureOptions::TopFrames entries. Empty for header-level
  /// signatures (extracted without reconstruction) and buffer-less
  /// marker snaps.
  std::vector<std::string> Path;
  /// Sorted unique names of the instrumented modules the snap mapped.
  std::vector<std::string> Modules;
  /// Sorted unique degradation markers: "missing-peer", "ring-wrap",
  /// "torn-tail". Positions, word offsets and peer identities are
  /// abstracted away — only the *shape* of the degradation remains.
  std::vector<std::string> Markers;

  /// The canonical serialized form ("kind"/"module"/"marker"/"frame"
  /// lines). Equal signatures have byte-equal canonical text; the
  /// fingerprint and the golden fixture are both derived from it.
  std::string canonicalText() const;

  /// FNV-1a 64 of canonicalText() — the exact-match clustering key and
  /// the signature store index.
  uint64_t fingerprint() const;

  bool operator==(const FaultSignature &RHS) const {
    return Kind == RHS.Kind && Path == RHS.Path && Modules == RHS.Modules &&
           Markers == RHS.Markers;
  }
  bool operator!=(const FaultSignature &RHS) const { return !(*this == RHS); }
};

/// Header-level extraction: what a service daemon can compute at ingest
/// time, with no mapfiles and no reconstruction — fault kind, module set
/// and the missing-peer marker. Path is empty, so these signatures
/// cluster by kind+modules only.
FaultSignature extractSignature(const SnapFile &Snap);

/// Full extraction from a reconstructed trace. The path is taken from the
/// faulting thread (SnapFile::FaultThread) when its trace was recovered,
/// else from the longest recovered thread (ties: lowest thread id), so
/// the choice is deterministic.
FaultSignature extractSignature(const SnapFile &Snap,
                                const ReconstructedTrace &Trace,
                                const SignatureOptions &Opts = {});

/// Bounded Levenshtein distance over path frames (each frame compares as
/// one symbol). Returns a value > \p Limit (specifically Limit + 1) as
/// soon as the distance provably exceeds \p Limit — the near-match tier
/// only needs "within D", never the exact distance.
size_t pathEditDistance(const std::vector<std::string> &A,
                        const std::vector<std::string> &B, size_t Limit);

/// FNV-1a 64 of a string with the collector and triage seed: the
/// fingerprint hash and the store's name keys.
inline uint64_t signatureHash(const std::string &Text) {
  return fnv1a64(Text.data(), Text.size(), Fnv1a64ShortBasis);
}

} // namespace traceback

#endif // TRACEBACK_TRIAGE_SIGNATURE_H
