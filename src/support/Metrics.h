//===- Metrics.h - self-telemetry counters/gauges/histograms ----*- C++ -*-===//
//
// TraceBack is meant to run always-on in production, so the tracer has to be
// able to account for its own cost.  This header provides the process-wide
// metrics layer used by the runtime, the service daemon, the reconstructor
// and the fault injector:
//
//   * Counter   - monotonically increasing u64, sharded per thread.
//   * Gauge     - last-written i64 value (set/add), single atomic.
//   * Histogram - fixed power-of-two latency buckets, sharded per thread.
//
// Hot-path updates are a single relaxed atomic add on a cache-line-private
// shard: no locks, no allocation.  Shards are merged only when a snapshot is
// taken.  Registration (name -> instrument lookup) takes a mutex and may
// allocate, so callers cache the returned pointer; instruments live for the
// lifetime of their registry and pointers remain stable.
//
// MetricsSnapshot is a plain-data copy of the registry that serializes to a
// stable, sorted-key JSON schema ("traceback-metrics-v1") and parses back,
// so snapshots can travel inside snaps as TELEMETRY extended records. The
// registry renders the same compact document straight from its
// instruments (no snapshot in between), since every snap embeds one; one
// writer lays out the schema for both, so the bytes are the same.
//
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_SUPPORT_METRICS_H
#define TRACEBACK_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace traceback {

/// Number of per-thread shards for counters and histograms.  Threads hash to
/// a shard by a registration-order thread index, so contention is bounded by
/// the (small) shard count rather than the thread count.
constexpr unsigned MetricShards = 16;

/// Fixed bucket count for latency histograms.  Bucket I holds samples whose
/// value V satisfies 2^(I-1) <= V < 2^I (bucket 0 holds V == 0), with the
/// last bucket absorbing everything larger.  Units are whatever the caller
/// records (by convention microseconds, suffix the name with "_us").
constexpr unsigned HistogramBuckets = 24;

/// Returns a small per-thread index, assigned on first use in registration
/// order.  Shared by all sharded instruments so a thread always touches the
/// same shard of every metric.
unsigned metricThreadSlot();

//===----------------------------------------------------------------------===//
// Counter
//===----------------------------------------------------------------------===//

class Counter {
public:
  /// Hot path: single relaxed fetch_add on this thread's shard.
  void add(uint64_t Delta = 1) {
    Shard[metricThreadSlot() % MetricShards].V.fetch_add(
        Delta, std::memory_order_relaxed);
  }

  /// Merge all shards.  Cheap enough for tests and snapshots, not meant for
  /// hot paths.
  uint64_t value() const {
    uint64_t Sum = 0;
    for (const auto &S : Shard)
      Sum += S.V.load(std::memory_order_relaxed);
    return Sum;
  }

  void reset() {
    for (auto &S : Shard)
      S.V.store(0, std::memory_order_relaxed);
  }

private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> V{0};
  };
  Slot Shard[MetricShards];
};

//===----------------------------------------------------------------------===//
// Gauge
//===----------------------------------------------------------------------===//

class Gauge {
public:
  void set(int64_t Value) { V.store(Value, std::memory_order_relaxed); }
  void add(int64_t Delta) { V.fetch_add(Delta, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// One owner's contribution to a gauge that several owners add to. The
/// share is taken back when the owner is destroyed; a copy adds its share
/// again and a move hands it over, so the gauge always equals the sum
/// over the owners alive.
class GaugeShare {
public:
  explicit GaugeShare(Gauge &G) : G(&G) {}
  GaugeShare(const GaugeShare &O) : G(O.G), V(O.V) { G->add(V); }
  GaugeShare(GaugeShare &&O) noexcept : G(O.G), V(O.V) { O.V = 0; }
  GaugeShare &operator=(GaugeShare O) noexcept {
    std::swap(G, O.G);
    std::swap(V, O.V);
    return *this;
  }
  ~GaugeShare() { G->add(-V); }

  void add(int64_t Delta) {
    V += Delta;
    G->add(Delta);
  }
  int64_t value() const { return V; }

private:
  Gauge *G;
  int64_t V = 0;
};

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

class Histogram {
public:
  /// Hot path: two relaxed adds (bucket + sum) on this thread's shard.
  void observe(uint64_t Value) {
    Slot &S = Shard[metricThreadSlot() % MetricShards];
    S.Bucket[bucketFor(Value)].fetch_add(1, std::memory_order_relaxed);
    S.Sum.fetch_add(Value, std::memory_order_relaxed);
  }

  uint64_t count() const;
  uint64_t sum() const;
  /// Merged per-bucket counts (size HistogramBuckets).
  std::vector<uint64_t> buckets() const;
  /// The same counts, merged into \p Out without allocating.
  void mergeBuckets(uint64_t (&Out)[HistogramBuckets]) const;

  void reset();

  static unsigned bucketFor(uint64_t Value) {
    if (Value == 0)
      return 0;
    unsigned B = 64 - static_cast<unsigned>(__builtin_clzll(Value));
    return B < HistogramBuckets ? B : HistogramBuckets - 1;
  }

private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> Bucket[HistogramBuckets]{};
    std::atomic<uint64_t> Sum{0};
  };
  Slot Shard[MetricShards];
};

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  std::vector<uint64_t> Buckets; // size HistogramBuckets

  bool operator==(const HistogramSnapshot &O) const {
    return Count == O.Count && Sum == O.Sum && Buckets == O.Buckets;
  }
};

/// Point-in-time copy of a registry.  Maps keep keys sorted so the JSON form
/// is byte-stable for identical contents.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, int64_t> Gauges;
  std::map<std::string, HistogramSnapshot> Histograms;

  bool operator==(const MetricsSnapshot &O) const {
    return Counters == O.Counters && Gauges == O.Gauges &&
           Histograms == O.Histograms;
  }

  /// Serialize to the stable "traceback-metrics-v1" schema.  Indent == 0
  /// yields one compact line; Indent > 0 pretty-prints with that many spaces
  /// per level.  Keys are emitted sorted, so equal snapshots produce equal
  /// bytes.
  std::string toJson(unsigned Indent = 0) const;

  /// Parse a document produced by toJson (either compact or pretty).
  /// Returns false (and leaves Out unspecified) on malformed input or a
  /// wrong/missing schema tag.
  static bool fromJson(const std::string &Text, MetricsSnapshot &Out);
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// Named instrument registry.  Lookup-or-create is mutex-guarded (cold);
/// returned references are stable for the registry's lifetime, so callers
/// resolve once and keep the pointer for hot-path updates.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  MetricsSnapshot snapshot() const;

  /// Renders the instruments as compact JSON, byte for byte
  /// `snapshot().toJson()`, without building the snapshot.
  std::string toJson() const;

  /// Reset every instrument to zero (shards included).  Primarily for tests
  /// and bench runs that want per-phase deltas.
  void reset();

  /// Process-wide default registry.  Components take an optional
  /// MetricsRegistry* and fall back to this when given nullptr, so tests can
  /// isolate themselves with a local registry.
  static MetricsRegistry &global();

private:
  mutable std::mutex Mu;
  // node-based maps: element addresses are stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>> CounterMap;
  std::map<std::string, std::unique_ptr<Gauge>> GaugeMap;
  std::map<std::string, std::unique_ptr<Histogram>> HistogramMap;
};

} // namespace traceback

#endif // TRACEBACK_SUPPORT_METRICS_H
