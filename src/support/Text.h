//===- support/Text.h - Small string utilities ------------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string, printf-compatible appends for
/// renderers that write one line per trace event, plus tokenizing helpers
/// used by the policy-file and assembler parsers.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_SUPPORT_TEXT_H
#define TRACEBACK_SUPPORT_TEXT_H

#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace traceback {

/// printf into a std::string.
std::string formatv(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

// The appends below write exactly the bytes of the printf conversion they
// name, with no format pass and no temporary string, so a renderer can
// build its whole output in one buffer.

/// Appends \p V in decimal, as "%llu".
void appendDecimal(std::string &Out, uint64_t V);

/// Appends \p V in lower-case hex, zero-padded to at least \p MinWidth
/// digits, as "%0<MinWidth>llx" ("%llx" when 0).
void appendHex(std::string &Out, uint64_t V, unsigned MinWidth = 0);

/// Appends \p S up to its first NUL, then spaces up to \p MinWidth
/// characters in all, as "%-<MinWidth>s": a longer string is never
/// truncated.
void appendCString(std::string &Out, const char *S, size_t MinWidth = 0);

/// Splits on any character in \p Seps, dropping empty pieces.
std::vector<std::string> splitString(const std::string &S, const char *Seps);

/// Strips leading and trailing whitespace.
std::string trimString(const std::string &S);

/// True if \p S begins with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Parses a decimal or 0x-prefixed integer; returns false on junk.
bool parseInt(const std::string &S, int64_t &Out);

} // namespace traceback

#endif // TRACEBACK_SUPPORT_TEXT_H
