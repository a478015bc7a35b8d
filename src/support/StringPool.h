//===- support/StringPool.h - Process-wide string interning -----*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned strings for the reconstruction event arenas. A reconstructed
/// trace repeats the same module / file / function names millions of
/// times; storing each event's names as owned std::strings made
/// TraceEvent ~170 bytes and non-trivially copyable, which dominated
/// reconstruction time (vector growth could not memmove, and every event
/// paid three string copies). An InternedString is one pointer into a
/// process-wide, never-freed pool, so events are trivially copyable and
/// name assignment is a pointer store.
///
/// The pool deliberately leaks: reconstruction tools are short-lived
/// batch processes and the distinct-name universe (module, file,
/// function names) is tiny compared to the traces that reference it.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_SUPPORT_STRINGPOOL_H
#define TRACEBACK_SUPPORT_STRINGPOOL_H

#include <cstddef>
#include <string>

namespace traceback {

/// Returns the pooled copy of \p S (creating it on first sight). The
/// returned reference is valid for the rest of the process. Thread-safe.
const std::string &internString(const std::string &S);

namespace detail {
/// The shared empty string. It is not pool-allocated and is initialized
/// at compile time, so a default-constructed handle is an address
/// constant: no call, no lock.
extern const std::string EmptyPooled;
} // namespace detail

/// The shared empty string.
inline const std::string &emptyPooledString() { return detail::EmptyPooled; }

/// A pointer into the intern pool that converts to const std::string&,
/// so existing code that compares, concatenates or formats the name
/// keeps working unchanged. Default-constructed instances reference the
/// pooled empty string. Copying is a pointer copy; the type is
/// trivially copyable, which keeps structs of interned names memmove-able.
class InternedString {
public:
  InternedString() : S(&emptyPooledString()) {}
  InternedString(const std::string &V) : S(&internString(V)) {}
  InternedString(const char *V) : S(&internString(std::string(V))) {}

  operator const std::string &() const { return *S; }
  const std::string &str() const { return *S; }
  const char *c_str() const { return S->c_str(); }
  bool empty() const { return S->empty(); }
  size_t size() const { return S->size(); }

private:
  const std::string *S;

  // std::string's non-member operators are templates, so implicit
  // conversion from InternedString never applies to them; spell out the
  // mixed forms callers use. Pointer equality is exact: the pool holds
  // one copy per distinct value.
  friend bool operator==(const InternedString &A, const InternedString &B) {
    return A.S == B.S;
  }
  friend bool operator==(const InternedString &A, const std::string &B) {
    return *A.S == B;
  }
  friend bool operator==(const InternedString &A, const char *B) {
    return *A.S == B;
  }
  friend std::string operator+(const InternedString &A, const char *B) {
    return *A.S + B;
  }
  friend std::string operator+(const char *A, const InternedString &B) {
    return A + *B.S;
  }
  friend std::string operator+(const InternedString &A,
                               const std::string &B) {
    return *A.S + B;
  }
  friend std::string operator+(const std::string &A,
                               const InternedString &B) {
    return A + *B.S;
  }
};

} // namespace traceback

#endif // TRACEBACK_SUPPORT_STRINGPOOL_H
