//===- runtime/Policy.h - Snap policy file ----------------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The textual policy file the runtime reads at startup (paper section
/// 3.6): which triggers produce snaps, how snap suppression behaves, and
/// how much memory the trace buffers get.
///
/// Syntax (one directive per line, `#` comments):
/// \code
///   buffer_bytes 65536
///   buffer_count 4
///   sub_buffers 4
///   snap_on exception            # any machine-level fault
///   snap_on trap 3               # a specific language-level trap code
///   snap_on signal 11
///   snap_on unhandled            # last-chance
///   snap_on exit
///   snap_on api
///   suppress_repeats 1           # max snaps per (module, offset, code)
///   timestamp_interval 4         # timestamp record every Nth syscall
///   timestamp_batch 16           # batch N timestamps per record (0 = off)
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_RUNTIME_POLICY_H
#define TRACEBACK_RUNTIME_POLICY_H

#include <cstdint>
#include <set>
#include <string>

namespace traceback {

/// Parsed runtime policy.
struct RtPolicy {
  // Buffer configuration (section 3.1).
  uint32_t BufferBytes = 64 * 1024;
  uint32_t BufferCount = 4;
  uint32_t SubBufferCount = 4;

  // Snap triggers (section 3.6).
  bool SnapOnAnyException = false;
  std::set<uint16_t> SnapOnTrapCodes;
  std::set<int> SnapOnSignals;
  bool SnapOnUnhandled = true;
  bool SnapOnExit = false;
  bool SnapOnApi = true;

  // Suppression (section 3.6.2). 0 disables snapping entirely.
  uint32_t SuppressRepeats = 1;

  // Timestamp records every Nth syscall (section 3.5). 0 disables.
  uint32_t TimestampInterval = 1;

  /// Batch timestamp samples host-side and emit one TimestampBatch record
  /// per N samples instead of one Timestamp record each (0 = off, max 64).
  /// Cuts record framing overhead on syscall-heavy workloads at the cost
  /// of coarser attribution: samples only reach the buffer at flush
  /// points (batch full, thread/process end, snap), and a thread that
  /// dies abruptly loses its pending batch to the scavenger.
  uint32_t TimestampBatch = 0;

  /// Use the logical-clock fallback instead of the machine's hardware
  /// clock (section 3.5: platforms without RDTSC/gethrtime). Orders
  /// events within one process but cannot interleave across processes.
  bool UseLogicalClock = false;

  /// Include a memory dump in snaps (section 3.6: "snaps may also include
  /// a memory or object dump, so that TraceBack can display the values of
  /// variables"): each live thread's stack top and the faulting address's
  /// page neighborhood.
  bool CaptureMemory = false;

  /// Record the execution's nondeterministic inputs (scheduler picks,
  /// SysRand draws, wire deliveries, network fault actions, fault
  /// firings) into an ExecutionLog and embed it in every snap, making the
  /// snap a re-executable test case (`tbtool replay`). Requires an
  /// ExecutionRecorder attached to the world; the flag only controls
  /// whether snaps ask for an embedded log.
  bool RecordExecution = false;

  /// Ring cap on retained execution-log entries (0 = unbounded). Like the
  /// trace buffers, recording cost stays O(window): older entries are
  /// dropped from the head and replay of a windowed log begins enforcing
  /// only once the retained suffix starts.
  uint32_t RecordWindow = 0;

  /// Parses the policy text; unknown directives are diagnosed. Returns
  /// false and sets \p Error on the first malformed line.
  static bool parse(const std::string &Text, RtPolicy &Out,
                    std::string &Error);

  /// Renders back to policy-file text (round-trips through parse).
  std::string toText() const;
};

} // namespace traceback

#endif // TRACEBACK_RUNTIME_POLICY_H
