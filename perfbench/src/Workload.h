//===- perfbench/src/Workload.h - One seeded benchmark workload --*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract between main.cpp and a workload. A workload
/// builds its inputs from the seed in setup(), then runs passes: each
/// pass is a fixed sequence of operations, so the counts of every
/// complete pass are the same and must repeat exactly. main.cpp runs
/// operations back to back (a closed loop) until its time is up, always
/// finishing at least the first pass.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_PERFBENCH_WORKLOAD_H
#define TRACEBACK_PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace perfbench {

/// Deterministic counts of one complete pass.
using Counts = std::map<std::string, uint64_t>;

struct Metric {
  double Value = 0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

struct OpResult {
  /// The operation as a user waits for it; the benchmark's own checks
  /// run after this interval.
  uint64_t LatencyNs = 0;
  /// Units of work the operation completed (snaps, records, modules).
  uint64_t Items = 0;
  bool Ok = true;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds every input from \p Seed under the directory \p Dir.
  virtual bool setup(uint64_t Seed, const std::string &Dir,
                     std::string &Error) = 0;

  /// Operations in one pass.
  virtual size_t passLength() const = 0;
  virtual void beginPass() = 0;
  /// Runs operation \p I of the current pass.
  virtual OpResult step(size_t I) = 0;
  /// Ends the current pass, \p Complete when every operation ran. Returns
  /// the nanoseconds of pass-level work that belongs to the workload's
  /// throughput (the store checkpoint); clears \p Ok on a failed check.
  virtual uint64_t endPass(bool Complete, bool &Ok) = 0;
  /// Counts of the last complete pass.
  virtual Counts passCounts() const = 0;

  /// Serialized bytes of one snap as stored or shipped.
  virtual double snapBytes() const = 0;

  /// Restarts the per-layer counters (the traced run reads only its own).
  virtual void resetLayers() = 0;
  /// Adds the per-layer counter metrics accumulated since resetLayers()
  /// over \p Ops operations. \p SelfNs is the traced self time per span.
  virtual void layerMetrics(MetricMap &Out, uint64_t Ops,
                            const std::map<std::string, uint64_t> &SelfNs)
      const = 0;
};

std::unique_ptr<Workload> makeFleetStorm();
std::unique_ptr<Workload> makeDiagnoseBatch();
std::unique_ptr<Workload> makeReproduce();

/// Hash of a rendered text, compared only within one process.
inline uint64_t textHash(const std::string &S) {
  return std::hash<std::string_view>()(S);
}

/// Deterministic 64-bit mix of a seed and a stream id.
inline uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

} // namespace perfbench

#endif // TRACEBACK_PERFBENCH_WORKLOAD_H
