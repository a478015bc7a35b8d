//===- reconstruct/Reconstructor.h - Trace reconstruction ------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage two of reconstruction (paper sections 4.1–4.2): resolve each DAG
/// record to its module via the snap's DAG-range metadata, decode the path
/// bits into a block sequence using the mapfile, expand blocks into source
/// lines, trim at exception addresses, collapse redundant adjacent lines,
/// and rebuild the call hierarchy from the block annotations.
///
/// At deployment scale the reconstructor is the hot path (group snaps
/// arrive from thousands of machines), so this stage is built as a batch
/// pipeline: a memoized DAG-path decode cache shared across records,
/// buffers and snaps; flat-hash indices for mapfile and module-range
/// resolution; and optional fan-out of independent buffers and thread
/// segments over a fixed-size thread pool with a deterministic merge
/// order — output is byte-identical whatever the worker count.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_RECONSTRUCT_RECONSTRUCTOR_H
#define TRACEBACK_RECONSTRUCT_RECONSTRUCTOR_H

#include "instrument/MapFile.h"
#include "reconstruct/DecodeCache.h"
#include "reconstruct/Trace.h"
#include "runtime/Snap.h"
#include "support/FlatMap.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <string>
#include <vector>

namespace traceback {

/// A registered mapfile's names, interned once when the store registers
/// it, so building a thread's events stores pointers and never takes the
/// intern pool's lock.
struct MapFileNames {
  InternedString Module;
  std::vector<InternedString> Files; ///< By mapfile file index.
  /// Every block's function, the mapfile's DAGs one after another.
  std::vector<InternedString> Functions;
  /// By position in MapFile::Dags: where that DAG's block 0 sits in
  /// Functions.
  std::vector<uint32_t> FirstFunction;

  /// The function names of \p Dag (a DAG of \p Map), by DAG-local block
  /// index.
  const InternedString *functionsOf(const MapFile &Map,
                                    const MapDag &Dag) const {
    return Functions.data() + FirstFunction[&Dag - Map.Dags.data()];
  }
};

/// Holds the mapfiles reconstruction may need, keyed by module checksum
/// (the matching rule of paper section 2.3).
class MapFileStore {
public:
  /// Registers a mapfile. A duplicate checksum replaces the previous
  /// mapfile (last add wins — re-instrumenting a module produces the
  /// same checksum, so the newest registration is authoritative) and
  /// reports the replacement through \p Warning when provided. Returns
  /// true when the checksum was new.
  bool add(MapFile Map, std::string *Warning = nullptr);

  /// Loads one .tbmap directly into the store: the file is read into an
  /// exact-size buffer, parsed, and the buffer discarded before the next
  /// file is touched. Bulk gather loops stream through this one file at a
  /// time instead of materializing a whole directory of byte buffers.
  /// Returns false (store unchanged) on a read or parse failure.
  bool addFromFile(const std::string &Path, std::string *Warning = nullptr);

  const MapFile *byChecksum(const MD5Digest &Digest) const;
  const MapFile *byKey(uint64_t ChecksumLow64) const;

  size_t size() const { return Maps.size(); }
  const std::vector<MapFile> &all() const { return Maps; }

  /// The interned names of \p Map, which must be one of this store's
  /// mapfiles (as byChecksum / byKey return them).
  const MapFileNames &names(const MapFile &Map) const {
    return Names[static_cast<size_t>(&Map - Maps.data())];
  }

  /// Estimated heap bytes held by the registered mapfiles. Also published
  /// to the process-global `store.bytes_resident` gauge (shared with
  /// SignatureStore) so tracer-health snapshots show how much memory the
  /// always-resident lookup stores cost; a store gives its share back
  /// when it is destroyed.
  uint64_t residentBytes() const {
    return static_cast<uint64_t>(Resident.value());
  }

private:
  std::vector<MapFile> Maps;
  std::vector<MapFileNames> Names; ///< By slot in Maps.
  FlatMap64<size_t> Index; ///< Checksum low word -> slot in Maps.
  GaugeShare Resident{MetricsRegistry::global().gauge("store.bytes_resident")};
};

/// Decodes the path a DAG record describes. Returns the DAG-local block
/// indices in execution order (starting with the header, block 0), or an
/// empty vector if \p PathBits is inconsistent with the DAG shape
/// (corruption). In a DAG, a path is uniquely determined by its set of
/// bit-carrying blocks; blocks whose execution is implied (single
/// successor chains) are filled in. The walk is an explicit-stack
/// iterative search hardened against fuzzed mapfiles: out-of-range
/// successors are ignored and paths longer than the block count (only
/// possible with cyclic, i.e. corrupt, map data) fail the decode instead
/// of overflowing the stack.
std::vector<uint16_t> decodeDagPath(const MapDag &Dag, uint32_t PathBits);

/// Tuning knobs for reconstruction. Worker count is not one of them:
/// reconstruct() takes an explicit pool, sized by its caller.
struct ReconstructOptions {
  struct CacheOptions {
    /// Memoize DAG-path decoding in a cache shared across records,
    /// buffers and snaps. Purely an optimization: output is identical
    /// either way.
    bool Enabled = true;
    /// Reproduces the original single-pass reconstructor: per-record
    /// linear module scan, per-record mapfile lookup, fresh DFS for every
    /// record, no arena reservations. Kept as the benchmark baseline
    /// (bench_reconstruct measures the pipeline against it) and as the
    /// reference of the byte-identity sweep in test_reconstruct_parallel.
    bool LegacyUncached = false;
  };

  CacheOptions Cache;
};

/// Turns snaps into per-thread line traces.
class Reconstructor {
public:
  /// \p Metrics receives the "reconstruct." instrument family (snap count,
  /// record throughput, per-phase wall time, cache hit/miss); null = the
  /// process-global registry.
  explicit Reconstructor(const MapFileStore &Maps,
                         MetricsRegistry *Metrics = nullptr)
      : Reconstructor(Maps, ReconstructOptions(), Metrics) {}
  Reconstructor(const MapFileStore &Maps, const ReconstructOptions &Opts,
                MetricsRegistry *Metrics = nullptr);

  /// Reconstructs one snap. With a non-null \p Pool, buffer recovery and
  /// thread-segment building fan out across its workers; results are
  /// merged in (buffer, segment) order, so the trace and its warnings are
  /// byte-identical to a serial run. Do not pass a pool whose workers
  /// call back into reconstruct() (one fan-out level per pool).
  ReconstructedTrace reconstruct(const SnapFile &Snap,
                                 ThreadPool *Pool = nullptr) const;

  /// Decode-cache statistics, read from this instance's registry: they
  /// cover every snap it reconstructed, plus the work of any other
  /// Reconstructor built on the same registry.
  const DagPathCache &pathCache() const { return Cache; }

private:
  const MapFileStore &Maps;
  ReconstructOptions Opts;
  /// The memoized decode cache. Mutable: caching is invisible in the
  /// results, and sharing it across const reconstruct() calls is the
  /// point (batch mode reuses one Reconstructor for a whole directory).
  mutable DagPathCache Cache;

  /// "reconstruct." instruments, resolved once at construction.
  struct Instruments {
    Counter *Snaps = nullptr;
    Counter *Records = nullptr;
    Histogram *SnapUs = nullptr;
    Histogram *PhaseRecoverUs = nullptr;
    Histogram *PhaseBuildUs = nullptr;
    Histogram *PhaseMergeUs = nullptr;
  };
  Instruments M;
};

} // namespace traceback

#endif // TRACEBACK_RECONSTRUCT_RECONSTRUCTOR_H
