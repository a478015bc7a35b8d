//===- triage/SignatureStore.h - Indexable signature store ------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent half of triage: a textual store of fault signatures
/// (".tbsig"). `tbtool triage --store` persists full (path-bearing)
/// signatures so a later run can be diffed against this one
/// (`tbtool triage --diff`) — the regression check "which faults are new
/// in run B?".
///
/// The format is line-oriented text, indexable by fingerprint, mergeable
/// by concatenation, and reviewable in a diff — the same reasons the
/// golden fixtures are text:
///
///   TBSIG v1
///   sig <fingerprint hex16>
///   count <n>
///   label <l>          (zero or more, arrival order)
///   kind <k>
///   module <m>         (zero or more, sorted)
///   marker <m>         (zero or more, sorted)
///   frame <f>          (zero or more, oldest -> newest)
///   end
///
//======---------------------------------------------------------------===//

#ifndef TRACEBACK_TRIAGE_SIGNATURESTORE_H
#define TRACEBACK_TRIAGE_SIGNATURESTORE_H

#include "support/Metrics.h"
#include "triage/Signature.h"

#include <cstdint>
#include <string>
#include <vector>

namespace traceback {

/// One stored signature with its occurrence count and labels (snap file
/// names, process names — whatever the producer uses to find members
/// again).
struct SignatureStoreEntry {
  FaultSignature Sig;
  uint64_t Fingerprint = 0;
  uint64_t Count = 0;
  std::vector<std::string> Labels;
};

/// In-memory signature index; load/save round-trips the text format.
class SignatureStore {
public:
  /// Records one occurrence. Duplicate fingerprints merge (count summed,
  /// labels appended); entries keep first-seen order so serialization is
  /// deterministic in arrival order.
  void add(const FaultSignature &Sig, const std::string &Label = "",
           uint64_t Count = 1);

  bool contains(uint64_t Fingerprint) const;
  const SignatureStoreEntry *byFingerprint(uint64_t Fingerprint) const;

  const std::vector<SignatureStoreEntry> &entries() const { return Entries; }
  size_t size() const { return Entries.size(); }
  /// Total occurrences across all entries.
  uint64_t totalCount() const;
  /// Estimated heap bytes held by the loaded entries. load() publishes
  /// this to the process-global `store.bytes_resident` gauge (shared
  /// with MapFileStore); the store gives it back when it is destroyed or
  /// reset.
  uint64_t residentBytes() const;

  std::string serialize() const;
  static bool parse(const std::string &Text, SignatureStore &Out,
                    std::string &Error);

  bool save(const std::string &Path) const;
  static bool load(const std::string &Path, SignatureStore &Out,
                   std::string &Error);

private:
  std::vector<SignatureStoreEntry> Entries;
  /// What load() published to `store.bytes_resident`.
  GaugeShare Resident{MetricsRegistry::global().gauge("store.bytes_resident")};
};

} // namespace traceback

#endif // TRACEBACK_TRIAGE_SIGNATURESTORE_H
