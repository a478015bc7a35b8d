//===- reconstruct/Trace.h - Reconstructed trace model ----------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output model of trace reconstruction (paper section 4): per-thread,
/// line-by-line execution histories with call-depth, exception and SYNC
/// annotations, ready for the display layer.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_RECONSTRUCT_TRACE_H
#define TRACEBACK_RECONSTRUCT_TRACE_H

#include "isa/Module.h"
#include "runtime/TraceRecord.h"
#include "support/StringPool.h"

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace traceback {

/// One entry in a reconstructed history.
struct TraceEvent {
  enum class Kind : uint8_t {
    Line,         ///< A source line executed.
    Exception,    ///< A fault / signal was raised here.
    ExceptionEnd, ///< Control resumed after a fault / signal handler.
    Sync,         ///< RPC / cross-technology boundary record.
    ThreadStart,
    ThreadEnd,
    Untraced,     ///< Execution passed through a bad-DAG or unknown module.
  };

  // Fields are ordered widest first so an event packs into 88 bytes (see
  // the static_assert below): a snap's events are built, collapsed,
  // rendered and held by the hundred thousand, so padding is paid on
  // every pass.

  // Line events. Names are interned (see support/StringPool.h): events
  // repeat the same few names millions of times, and a reconstructed
  // trace must stay valid after its snap and mapfiles are gone.
  InternedString Module;
  InternedString File;
  InternedString Function;
  uint32_t Line = 0;
  uint32_t Repeat = 1;     ///< Consecutive executions collapsed.
  uint32_t Depth = 0;      ///< Call nesting depth.

  // Exception events.
  uint32_t FaultOffset = 0;
  uint64_t FaultModuleKey = 0;

  // Sync events.
  uint64_t LogicalThreadId = 0;
  uint64_t Sequence = 0;
  uint64_t PeerRuntimeId = 0;

  /// Most recent clock reading at or before this event (that runtime's
  /// clock; 0 when no timestamp has been seen yet).
  uint64_t Timestamp = 0;

  uint16_t FaultCodeValue = 0; ///< Exception events.
  SyncKind Sync = SyncKind::CallSend;
  Kind EventKind = Kind::Line;
  uint8_t BlockFlags = 0;  ///< MapBlockFlags of the source block.
  bool Trimmed = false;    ///< Last line before an exception cut the block.
};

static_assert(sizeof(TraceEvent) == 88 &&
                  std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent is packed and memcpy-able; keep it so");

/// The history of one physical thread, oldest to newest.
struct ThreadTrace {
  uint64_t RuntimeId = 0;
  uint64_t ThreadId = 0;
  std::string ProcessName;
  std::string MachineName;
  Technology Tech = Technology::Native;
  /// True when the ring overwrote older records (history incomplete at the
  /// old end).
  bool Truncated = false;
  /// Linear word position where a torn write cut off the *new* end of the
  /// history (newer records were dropped); UINT64_MAX when intact.
  uint64_t TruncatedAt = UINT64_MAX;
  std::vector<TraceEvent> Events;
};

/// Everything recovered from one snap (plus diagnostics).
struct ReconstructedTrace {
  std::vector<ThreadTrace> Threads;
  std::vector<std::string> Warnings;
  /// The producing tracer's self-telemetry ("traceback-metrics-v1" JSON),
  /// decoded from the snap's TELEMETRY records; empty when the snap
  /// predates telemetry or the stream was torn. Diagnostic side data —
  /// never part of the rendered trace.
  std::string TelemetryJson;

  /// Finds the trace of a physical thread, or nullptr.
  const ThreadTrace *threadById(uint64_t ThreadId) const {
    for (const ThreadTrace &T : Threads)
      if (T.ThreadId == ThreadId)
        return &T;
    return nullptr;
  }
};

} // namespace traceback

#endif // TRACEBACK_RECONSTRUCT_TRACE_H
