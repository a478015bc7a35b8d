//===- support/StringPool.cpp - Process-wide string interning -------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/StringPool.h"

#include <mutex>
#include <unordered_set>

using namespace traceback;

constinit const std::string traceback::detail::EmptyPooled;

const std::string &traceback::internString(const std::string &S) {
  if (S.empty())
    return emptyPooledString();
  // node-based container: element addresses are stable across rehash.
  static std::unordered_set<std::string> Pool;
  static std::mutex PoolMutex;
  std::lock_guard<std::mutex> Lock(PoolMutex);
  return *Pool.insert(S).first;
}
