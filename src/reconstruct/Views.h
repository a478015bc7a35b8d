//===- reconstruct/Views.h - Trace display rendering ------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text renderings of reconstructed traces — the stand-in for the paper's
/// GUI (section 4.3): the flat line history, the call-hierarchy view with
/// indentation, the multi-thread interleaved view, and the fault-directed
/// view selection that picks a layout by snap reason (section 4.3.3).
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_RECONSTRUCT_VIEWS_H
#define TRACEBACK_RECONSTRUCT_VIEWS_H

#include "reconstruct/Stitch.h"
#include "reconstruct/Trace.h"
#include "runtime/Snap.h"

#include <string>
#include <vector>

namespace traceback {

/// Flat line-by-line history of one thread (module, file:line, function).
std::string renderFlatTrace(const ThreadTrace &Trace);

/// Call-hierarchy view: lines indented by call depth, with call/return,
/// exception and sync annotations.
std::string renderCallTree(const ThreadTrace &Trace);

/// Interleaved multi-thread view ordered by skew-corrected timestamps:
/// one line per event, prefixed with its thread id left-aligned in three
/// columns (`t7   |<event>`).
std::string renderMultiThread(const std::vector<const ThreadTrace *> &Traces);

/// Renders one fused logical thread across machines/runtimes (the
/// Figure 6-style cross-machine history).
std::string renderLogicalThread(const LogicalThread &LT);

/// Fault-directed view selection: exceptions get the faulting thread's
/// call tree with the fault highlighted; hangs get one line per thread.
std::string renderFaultView(const SnapFile &Snap,
                            const ReconstructedTrace &Trace);

/// Hex dump of the snap's captured memory regions (section 3.6's
/// variable/object display; enabled by the capture_memory policy).
std::string renderMemoryDump(const SnapFile &Snap);

} // namespace traceback

#endif // TRACEBACK_RECONSTRUCT_VIEWS_H
