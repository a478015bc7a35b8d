//===- Metrics.cpp - self-telemetry registry implementation ---------------===//

#include "support/Metrics.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace traceback {

//===----------------------------------------------------------------------===//
// Thread slots
//===----------------------------------------------------------------------===//

unsigned metricThreadSlot() {
  static std::atomic<unsigned> NextSlot{0};
  thread_local unsigned Slot =
      NextSlot.fetch_add(1, std::memory_order_relaxed);
  return Slot;
}

//===----------------------------------------------------------------------===//
// Histogram merge
//===----------------------------------------------------------------------===//

uint64_t Histogram::count() const {
  uint64_t N = 0;
  for (const auto &S : Shard)
    for (const auto &B : S.Bucket)
      N += B.load(std::memory_order_relaxed);
  return N;
}

uint64_t Histogram::sum() const {
  uint64_t N = 0;
  for (const auto &S : Shard)
    N += S.Sum.load(std::memory_order_relaxed);
  return N;
}

std::vector<uint64_t> Histogram::buckets() const {
  uint64_t Merged[HistogramBuckets];
  mergeBuckets(Merged);
  return std::vector<uint64_t>(Merged, Merged + HistogramBuckets);
}

void Histogram::mergeBuckets(uint64_t (&Out)[HistogramBuckets]) const {
  for (uint64_t &B : Out)
    B = 0;
  for (const auto &S : Shard)
    for (unsigned I = 0; I < HistogramBuckets; ++I)
      Out[I] += S.Bucket[I].load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto &P = CounterMap[Name];
  if (!P)
    P = std::make_unique<Counter>();
  return *P;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto &P = GaugeMap[Name];
  if (!P)
    P = std::make_unique<Gauge>();
  return *P;
}

Histogram &MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto &P = HistogramMap[Name];
  if (!P)
    P = std::make_unique<Histogram>();
  return *P;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> L(Mu);
  MetricsSnapshot Snap;
  for (const auto &[Name, C] : CounterMap)
    Snap.Counters[Name] = C->value();
  for (const auto &[Name, G] : GaugeMap)
    Snap.Gauges[Name] = G->value();
  for (const auto &[Name, H] : HistogramMap) {
    HistogramSnapshot HS;
    HS.Buckets = H->buckets();
    for (uint64_t B : HS.Buckets)
      HS.Count += B;
    HS.Sum = H->sum();
    Snap.Histograms[Name] = std::move(HS);
  }
  return Snap;
}

void Histogram::reset() {
  for (auto &S : Shard) {
    for (auto &B : S.Bucket)
      B.store(0, std::memory_order_relaxed);
    S.Sum.store(0, std::memory_order_relaxed);
  }
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> L(Mu);
  for (auto &[Name, C] : CounterMap)
    C->reset();
  for (auto &[Name, G] : GaugeMap)
    G->set(0);
  for (auto &[Name, H] : HistogramMap)
    H->reset();
}

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry G;
  return G;
}

//===----------------------------------------------------------------------===//
// JSON emit
//===----------------------------------------------------------------------===//

namespace {

/// True when no byte of \p S needs escaping. Every snap renders every
/// name, and names are plain ASCII, so this tests eight bytes at a time:
/// a byte below 0x20, or equal to '"' or '\\', sets its high bit in
/// one of the three terms (a borrow can only follow such a byte).
bool isPlain(std::string_view S) {
  constexpr uint64_t Ones = 0x0101010101010101ull, Highs = Ones << 7;
  size_t I = 0;
  for (; I + 8 <= S.size(); I += 8) {
    uint64_t X;
    std::memcpy(&X, S.data() + I, 8);
    uint64_t Quote = X ^ ('"' * Ones), Slash = X ^ ('\\' * Ones);
    if ((((X - 0x20 * Ones) & ~X) | ((Quote - Ones) & ~Quote) |
         ((Slash - Ones) & ~Slash)) &
        Highs)
      return false;
  }
  for (; I < S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C < 0x20 || C == '"' || C == '\\')
      return false;
  }
  return true;
}

void appendEscaped(std::string &Out, std::string_view S) {
  Out.push_back('"');
  if (isPlain(S)) {
    Out.append(S);
    Out.push_back('"');
    return;
  }
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
  }
  Out.push_back('"');
}

/// Tiny stateful pretty-printer: with Indent == 0 everything stays on one
/// line with no spaces, otherwise nested levels are indented.
struct JsonWriter {
  std::string &Out;
  unsigned Indent;
  unsigned Depth = 0;

  JsonWriter(std::string &Out, unsigned Indent) : Out(Out), Indent(Indent) {}

  void newline() {
    if (!Indent)
      return;
    Out.push_back('\n');
    Out.append(static_cast<size_t>(Indent) * Depth, ' ');
  }
  void open(char C) {
    Out.push_back(C);
    ++Depth;
  }
  void close(char C) {
    --Depth;
    newline();
    Out.push_back(C);
  }
  void key(std::string_view K) {
    appendEscaped(Out, K);
    Out.push_back(':');
    if (Indent)
      Out.push_back(' ');
  }
  /// Opens the next member of an object: a comma after the first, then a
  /// line break and the key.
  void member(bool &First, std::string_view K) {
    if (!First)
      Out.push_back(',');
    First = false;
    newline();
    key(K);
  }
  template <typename T> void number(T V) {
    char Buf[24];
    auto [End, Ec] = std::to_chars(Buf, Buf + sizeof Buf, V);
    (void)Ec; // 24 bytes hold any 64-bit integer.
    Out.append(Buf, End);
  }
};

/// One histogram as the schema prints it.
struct HistogramFields {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  const uint64_t *Buckets = nullptr;
  size_t NumBuckets = 0;
};

// The writer reads a MetricsSnapshot's plain values and a registry's live
// instruments through the same overloads.
uint64_t counterValue(uint64_t V) { return V; }
uint64_t counterValue(const std::unique_ptr<Counter> &C) { return C->value(); }
int64_t gaugeValue(int64_t V) { return V; }
int64_t gaugeValue(const std::unique_ptr<Gauge> &G) { return G->value(); }
HistogramFields histogramFields(const HistogramSnapshot &H,
                                uint64_t (&)[HistogramBuckets]) {
  return {H.Count, H.Sum, H.Buckets.data(), H.Buckets.size()};
}
HistogramFields histogramFields(const std::unique_ptr<Histogram> &H,
                                uint64_t (&Merged)[HistogramBuckets]) {
  H->mergeBuckets(Merged);
  HistogramFields F{0, H->sum(), Merged, HistogramBuckets};
  for (uint64_t B : Merged)
    F.Count += B;
  return F;
}

/// Writes the "traceback-metrics-v1" document: the one place that knows
/// its key order, escaping and number format. Both maps of a kind are
/// std::maps keyed by name, so members come out sorted either way.
template <typename CounterMap, typename GaugeMap, typename HistogramMap>
void writeMetricsJson(std::string &Out, unsigned Indent,
                      const CounterMap &Counters, const GaugeMap &Gauges,
                      const HistogramMap &Histograms) {
  JsonWriter W(Out, Indent);
  W.open('{');
  W.newline();
  W.key("schema");
  Out += "\"traceback-metrics-v1\",";
  W.newline();

  W.key("counters");
  W.open('{');
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    W.member(First, Name);
    W.number(counterValue(C));
  }
  W.close('}');
  Out.push_back(',');
  W.newline();

  W.key("gauges");
  W.open('{');
  First = true;
  for (const auto &[Name, G] : Gauges) {
    W.member(First, Name);
    W.number(gaugeValue(G));
  }
  W.close('}');
  Out.push_back(',');
  W.newline();

  W.key("histograms");
  W.open('{');
  First = true;
  uint64_t Merged[HistogramBuckets];
  for (const auto &[Name, H] : Histograms) {
    W.member(First, Name);
    HistogramFields F = histogramFields(H, Merged);
    W.open('{');
    W.newline();
    W.key("count");
    W.number(F.Count);
    Out.push_back(',');
    W.newline();
    W.key("sum");
    W.number(F.Sum);
    Out.push_back(',');
    W.newline();
    W.key("buckets");
    Out.push_back('[');
    for (size_t I = 0; I < F.NumBuckets; ++I) {
      if (I)
        Out.push_back(',');
      W.number(F.Buckets[I]);
    }
    Out.push_back(']');
    W.close('}');
  }
  W.close('}');
  W.close('}');
}

} // namespace

std::string MetricsSnapshot::toJson(unsigned Indent) const {
  std::string Out;
  writeMetricsJson(Out, Indent, Counters, Gauges, Histograms);
  return Out;
}

std::string MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> L(Mu);
  // A close estimate (names plus typical value widths), so the render
  // rarely reallocates.
  size_t Hint = 96;
  for (const auto &[Name, C] : CounterMap)
    Hint += Name.size() + 8;
  for (const auto &[Name, G] : GaugeMap)
    Hint += Name.size() + 8;
  for (const auto &[Name, H] : HistogramMap)
    Hint += Name.size() + 40 + 2 * HistogramBuckets;
  std::string Out;
  Out.reserve(Hint);
  writeMetricsJson(Out, 0, CounterMap, GaugeMap, HistogramMap);
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON parse (minimal: objects, arrays, strings, integers — exactly what
// toJson emits; no dependency on an external JSON library)
//===----------------------------------------------------------------------===//

namespace {

struct JsonParser {
  const char *P;
  const char *End;

  explicit JsonParser(const std::string &S)
      : P(S.data()), End(S.data() + S.size()) {}

  void skipWs() {
    while (P != End && std::isspace(static_cast<unsigned char>(*P)))
      ++P;
  }
  bool expect(char C) {
    skipWs();
    if (P == End || *P != C)
      return false;
    ++P;
    return true;
  }
  bool peek(char C) {
    skipWs();
    return P != End && *P == C;
  }

  bool parseString(std::string &Out) {
    if (!expect('"'))
      return false;
    Out.clear();
    while (P != End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P == End)
          return false;
        switch (*P) {
        case '"':
          Out.push_back('"');
          break;
        case '\\':
          Out.push_back('\\');
          break;
        case 'n':
          Out.push_back('\n');
          break;
        case 't':
          Out.push_back('\t');
          break;
        case 'u': {
          if (End - P < 5)
            return false;
          char Hex[5] = {P[1], P[2], P[3], P[4], 0};
          Out.push_back(static_cast<char>(std::strtoul(Hex, nullptr, 16)));
          P += 4;
          break;
        }
        default:
          return false;
        }
        ++P;
      } else {
        Out.push_back(*P++);
      }
    }
    return expect('"');
  }

  bool parseU64(uint64_t &Out) {
    skipWs();
    const char *Start = P;
    while (P != End && std::isdigit(static_cast<unsigned char>(*P)))
      ++P;
    if (P == Start)
      return false;
    Out = std::strtoull(std::string(Start, P).c_str(), nullptr, 10);
    return true;
  }

  bool parseI64(int64_t &Out) {
    skipWs();
    bool Neg = false;
    if (P != End && *P == '-') {
      Neg = true;
      ++P;
    }
    uint64_t U;
    if (!parseU64(U))
      return false;
    // Negate in unsigned arithmetic: -INT64_MIN does not fit an int64_t.
    if (U > static_cast<uint64_t>(INT64_MAX) + (Neg ? 1 : 0))
      return false;
    Out = static_cast<int64_t>(Neg ? 0 - U : U);
    return true;
  }

  /// Parse `{ "key": ... }` driving a per-member callback; the callback
  /// consumes the value.
  template <typename Fn> bool parseObject(Fn &&Member) {
    if (!expect('{'))
      return false;
    if (peek('}'))
      return expect('}');
    do {
      std::string Key;
      if (!parseString(Key) || !expect(':') || !Member(Key))
        return false;
    } while (expect(','));
    return expect('}');
  }
};

} // namespace

bool MetricsSnapshot::fromJson(const std::string &Text, MetricsSnapshot &Out) {
  Out = MetricsSnapshot();
  JsonParser J(Text);
  bool SchemaOk = false;

  bool Ok = J.parseObject([&](const std::string &Key) {
    if (Key == "schema") {
      std::string S;
      if (!J.parseString(S))
        return false;
      SchemaOk = (S == "traceback-metrics-v1");
      return SchemaOk;
    }
    if (Key == "counters") {
      return J.parseObject([&](const std::string &Name) {
        uint64_t V;
        if (!J.parseU64(V))
          return false;
        Out.Counters[Name] = V;
        return true;
      });
    }
    if (Key == "gauges") {
      return J.parseObject([&](const std::string &Name) {
        int64_t V;
        if (!J.parseI64(V))
          return false;
        Out.Gauges[Name] = V;
        return true;
      });
    }
    if (Key == "histograms") {
      return J.parseObject([&](const std::string &Name) {
        HistogramSnapshot H;
        bool HOk = J.parseObject([&](const std::string &Field) {
          if (Field == "count")
            return J.parseU64(H.Count);
          if (Field == "sum")
            return J.parseU64(H.Sum);
          if (Field == "buckets") {
            if (!J.expect('['))
              return false;
            if (J.peek(']'))
              return J.expect(']');
            do {
              uint64_t B;
              if (!J.parseU64(B))
                return false;
              H.Buckets.push_back(B);
            } while (J.expect(','));
            return J.expect(']');
          }
          return false;
        });
        if (!HOk)
          return false;
        Out.Histograms[Name] = std::move(H);
        return true;
      });
    }
    return false; // unknown key
  });

  J.skipWs();
  return Ok && SchemaOk && J.P == J.End;
}

} // namespace traceback
