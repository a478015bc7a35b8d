//===- triage/SignatureStore.cpp - Indexable signature store --------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "triage/SignatureStore.h"

#include "support/Metrics.h"
#include "support/Text.h"

#include <cstdio>

using namespace traceback;

void SignatureStore::add(const FaultSignature &Sig, const std::string &Label,
                         uint64_t Count) {
  uint64_t FP = Sig.fingerprint();
  for (SignatureStoreEntry &E : Entries) {
    if (E.Fingerprint != FP)
      continue;
    E.Count += Count;
    if (!Label.empty())
      E.Labels.push_back(Label);
    return;
  }
  SignatureStoreEntry E;
  E.Sig = Sig;
  E.Fingerprint = FP;
  E.Count = Count;
  if (!Label.empty())
    E.Labels.push_back(Label);
  Entries.push_back(std::move(E));
}

bool SignatureStore::contains(uint64_t Fingerprint) const {
  return byFingerprint(Fingerprint) != nullptr;
}

const SignatureStoreEntry *
SignatureStore::byFingerprint(uint64_t Fingerprint) const {
  for (const SignatureStoreEntry &E : Entries)
    if (E.Fingerprint == Fingerprint)
      return &E;
  return nullptr;
}

uint64_t SignatureStore::totalCount() const {
  uint64_t Sum = 0;
  for (const SignatureStoreEntry &E : Entries)
    Sum += E.Count;
  return Sum;
}

uint64_t SignatureStore::residentBytes() const {
  auto StringsBytes = [](const std::vector<std::string> &V) {
    uint64_t B = 0;
    for (const std::string &S : V)
      B += sizeof(std::string) + S.size();
    return B;
  };
  uint64_t B = 0;
  for (const SignatureStoreEntry &E : Entries)
    B += sizeof(SignatureStoreEntry) + E.Sig.Kind.size() +
         StringsBytes(E.Sig.Modules) + StringsBytes(E.Sig.Markers) +
         StringsBytes(E.Sig.Path) + StringsBytes(E.Labels);
  return B;
}

std::string SignatureStore::serialize() const {
  std::string Out = "TBSIG v1\n";
  for (const SignatureStoreEntry &E : Entries) {
    Out += formatv("sig %016llx\n", static_cast<unsigned long long>(
                                         E.Sig.fingerprint()));
    Out += formatv("count %llu\n", static_cast<unsigned long long>(E.Count));
    for (const std::string &L : E.Labels)
      if (!L.empty())
        Out += "label " + L + "\n";
    Out += E.Sig.canonicalText();
    Out += "end\n";
  }
  return Out;
}

namespace {

/// The store format's line-fed state machine, shared by the in-memory
/// parse() and the streaming load() so the two readers cannot drift. One
/// entry's fields at a time is all it holds — feeding a multi-gigabyte
/// store keeps the transient footprint at one entry.
struct TbsigLineParser {
  SignatureStore &Out;
  bool InEntry = false;
  FaultSignature Sig;
  uint64_t Count = 0;
  std::vector<std::string> Labels;
  size_t LineNo = 0;

  explicit TbsigLineParser(SignatureStore &Out) : Out(Out) {}

  bool line(const std::string &Line, std::string &Error) {
    ++LineNo;
    if (LineNo == 1) {
      if (!startsWith(Line, "TBSIG v1")) {
        Error = "not a TBSIG v1 signature store";
        return false;
      }
      return true;
    }
    if (trimString(Line).empty())
      return true;
    size_t Space = Line.find(' ');
    std::string Tag = Line.substr(0, Space);
    std::string Rest =
        Space == std::string::npos ? "" : Line.substr(Space + 1);
    if (Tag == "sig") {
      if (InEntry) {
        Error = formatv("line %zu: 'sig' inside an open entry", LineNo);
        return false;
      }
      InEntry = true;
      Sig = FaultSignature();
      Count = 0;
      Labels.clear();
      // The recorded fingerprint is advisory; it is recomputed from the
      // canonical fields at 'end' so a hand-edited store cannot lie.
      return true;
    }
    if (!InEntry) {
      Error = formatv("line %zu: '%s' outside an entry", LineNo,
                      Tag.c_str());
      return false;
    }
    if (Tag == "count") {
      int64_t V = 0;
      if (!parseInt(Rest, V) || V < 0) {
        Error = formatv("line %zu: bad count '%s'", LineNo, Rest.c_str());
        return false;
      }
      Count = static_cast<uint64_t>(V);
    } else if (Tag == "label") {
      Labels.push_back(Rest);
    } else if (Tag == "kind") {
      Sig.Kind = Rest;
    } else if (Tag == "module") {
      Sig.Modules.push_back(Rest);
    } else if (Tag == "marker") {
      Sig.Markers.push_back(Rest);
    } else if (Tag == "frame") {
      Sig.Path.push_back(Rest);
    } else if (Tag == "end") {
      if (Count == 0)
        Count = 1;
      // The whole count attaches to the first add; further adds (count 0)
      // only merge the remaining labels in.
      Out.add(Sig, Labels.empty() ? "" : Labels.front(), Count);
      for (size_t I = 1; I < Labels.size(); ++I)
        Out.add(Sig, Labels[I], 0);
      InEntry = false;
    } else {
      Error = formatv("line %zu: unknown tag '%s'", LineNo, Tag.c_str());
      return false;
    }
    return true;
  }

  bool finish(std::string &Error) {
    if (LineNo == 0) {
      Error = "not a TBSIG v1 signature store";
      return false;
    }
    if (InEntry) {
      Error = "unterminated entry (missing 'end')";
      return false;
    }
    Error.clear();
    return true;
  }
};

} // namespace

bool SignatureStore::parse(const std::string &Text, SignatureStore &Out,
                           std::string &Error) {
  Out = SignatureStore();
  TbsigLineParser P(Out);
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    if (!P.line(Text.substr(Pos, Eol - Pos), Error))
      return false;
    Pos = Eol + 1;
  }
  return P.finish(Error);
}

bool SignatureStore::save(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  std::string Text = serialize();
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  bool Ok = Written == Text.size();
  Ok &= std::fclose(F) == 0;
  return Ok;
}

bool SignatureStore::load(const std::string &Path, SignatureStore &Out,
                          std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Error = "cannot open " + Path;
    return false;
  }
  // Stream the file a chunk at a time through the line parser: the
  // transient footprint is one buffer plus any partial line carried
  // across a chunk boundary, never the whole file.
  Out = SignatureStore();
  TbsigLineParser P(Out);
  std::string Carry;
  char Buf[4096];
  size_t N;
  bool Ok = true;
  while (Ok && (N = std::fread(Buf, 1, sizeof(Buf), F)) > 0) {
    size_t Start = 0;
    for (size_t I = 0; I < N; ++I) {
      if (Buf[I] != '\n')
        continue;
      Carry.append(Buf + Start, I - Start);
      Start = I + 1;
      Ok = P.line(Carry, Error);
      Carry.clear();
      if (!Ok)
        break;
    }
    if (Ok)
      Carry.append(Buf + Start, N - Start);
  }
  bool ReadOk = !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    return false;
  if (!ReadOk) {
    Error = "read error in " + Path;
    return false;
  }
  if (!Carry.empty() && !P.line(Carry, Error))
    return false;
  if (!P.finish(Error))
    return false;
  Out.Resident.add(static_cast<int64_t>(Out.residentBytes()));
  return true;
}
