//===- support/SnapCodec.h - Trace-aware snap compression -------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The word-oriented codec the snap fast path uses (snap format v4).
///
/// Trace buffers are dominated by three shapes: zeroed sub-buffer space
/// (whole sub-buffers the ring never reached), the per-sub-buffer sentinel
/// word, and 32-bit DAG records whose DAG IDs cluster tightly (a thread
/// re-executes the same few DAGs). The codec exploits exactly that:
///
///   * run-length ops for zero words and sentinel words,
///   * a repeat op for any immediately repeated word,
///   * DAG records as a varint of (zigzag(dag-id delta from the previous
///     DAG record) << 10 | path bits) — the hot case (same DAG, small
///     path) is 2 bytes instead of 4,
///   * a 32-slot direct-mapped dictionary of recent DAG words: traces
///     cluster on a small working set of (DAG, path-bits) pairs that
///     recur non-adjacently, and such a recurrence is one tag byte,
///   * literal runs for everything else (extended-record words),
///   * a raw-block passthrough when the input does not compress
///     (telemetry JSON, memory dumps of high-entropy data).
///
/// Unlike the generic LZSS in support/Compress.h (kept for the paper's
/// archival-compression experiment), this codec is single-pass, allocates
/// nothing beyond the output, and appends directly into a caller-provided
/// sink buffer so serialization never round-trips through intermediate
/// vectors.
///
/// Stream layout: varint uncompressed byte count, one mode byte (0 = word
/// ops, 1 = raw passthrough), then the body. The decoder is defensive:
/// any malformed stream yields false, never a crash or unbounded
/// allocation.
///
/// A caller that knows where its input is zero — snap capture does: the
/// guest pages nothing has written (vm/AddressSpace.h) — passes those
/// ranges as hints. A zero run then steps over a whole hinted range at
/// once and scans only the bytes between ranges; the stream is byte for
/// byte the one the unhinted encoder writes for the same input.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_SUPPORT_SNAPCODEC_H
#define TRACEBACK_SUPPORT_SNAPCODEC_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace traceback {

/// Hard ceiling on the uncompressed size a stream may claim (defends the
/// decoder against fuzzed headers demanding absurd allocations).
constexpr uint64_t SnapCodecMaxRawSize = 1ull << 28; // 256 MiB

/// The bytes [Begin, End) of a buffer, known to be zero.
struct ZeroRange {
  size_t Begin = 0;
  size_t End = 0;
};

/// Encodes \p Size bytes at \p Data, appending the stream to \p Out.
/// Returns the number of bytes appended. Never fails: input that does not
/// compress is stored as a raw block (a few bytes of framing overhead).
/// \p Zeros, when given, lists byte ranges of the input that hold only
/// zeros, sorted by Begin, within [0, Size) and word-aligned (a ragged
/// edge is ignored, not trusted). The output does not depend on them as
/// long as they are true; a range that is not zero corrupts the stream.
size_t snapEncodeTo(const uint8_t *Data, size_t Size,
                    std::vector<uint8_t> &Out,
                    std::span<const ZeroRange> Zeros = {});

/// Convenience wrapper returning a fresh vector.
std::vector<uint8_t> snapEncode(const std::vector<uint8_t> &Input);

/// Decodes the stream at [Data, Data+Size), appending the reconstructed
/// bytes to \p Out. The whole span must be consumed exactly. Returns false
/// on any malformed input, leaving \p Out in an unspecified-but-valid
/// state (callers treat false as fatal for the containing section).
bool snapDecodeTo(const uint8_t *Data, size_t Size, std::vector<uint8_t> &Out);

/// Convenience wrapper; \p Output is cleared first.
bool snapDecode(const std::vector<uint8_t> &Input,
                std::vector<uint8_t> &Output);

/// Reads only the stream header's uncompressed byte count. Returns false
/// if the header itself is malformed or over the size ceiling.
bool snapEncodedRawSize(const uint8_t *Data, size_t Size, uint64_t &RawSize);

} // namespace traceback

#endif // TRACEBACK_SUPPORT_SNAPCODEC_H
