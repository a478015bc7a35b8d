//===- perfbench/src/Trace.h - In-memory spans around layer calls -*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's span recorder. A Span wraps one call the benchmark
/// makes into a layer's public API and records name, start, end, parent
/// span and operation id. Spans stay in memory and are written out when
/// the run ends. Recording happens only on the benchmark's single main
/// thread; a disabled tracer costs one branch per span.
///
/// A span's name is the layer metric it feeds: "collector.drain" becomes
/// collector.drain_ms, a name without a dot ("reconstruct") becomes
/// reconstruct.ms. Self time is a span's duration minus its children's.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_PERFBENCH_TRACE_H
#define TRACEBACK_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds.
uint64_t nowNs();

struct SpanRecord {
  const char *Name = nullptr; ///< Static string: the layer name.
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, -1 at the root.
  uint64_t OpId = 0;   ///< Operation the span belongs to (0 = pass-level).
};

/// The process's one span recorder.
class Tracer {
public:
  static Tracer &get();

  bool enabled() const { return Enabled; }
  void enable(bool On) { Enabled = On; }
  /// Spans opened from now on belong to operation \p Id.
  void setOp(uint64_t Id) { OpId = Id; }

  int32_t open(const char *Name);
  void close(int32_t Index);

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Self time in nanoseconds per span name.
  std::map<std::string, uint64_t> selfTimes() const;

  /// Writes every span as JSON to \p Path. Returns false on I/O failure.
  bool write(const std::string &Path, const std::string &Workload) const;

private:
  bool Enabled = false;
  uint64_t OpId = 0;
  int32_t Current = -1;
  std::vector<SpanRecord> Spans;
};

/// Records one span for its lifetime when tracing is on.
class Span {
public:
  explicit Span(const char *Name) {
    if (Tracer::get().enabled())
      Index = Tracer::get().open(Name);
  }
  ~Span() {
    if (Index >= 0)
      Tracer::get().close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int32_t Index = -1;
};

/// The layer metric a span name feeds.
std::string layerMetricName(const std::string &SpanName);

} // namespace perfbench

#endif // TRACEBACK_PERFBENCH_TRACE_H
