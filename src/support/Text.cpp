//===- support/Text.cpp - Small string utilities --------------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Text.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace traceback;

std::string traceback::formatv(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Args2;
  va_copy(Args2, Args);
  int Need = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Need < 0) {
    va_end(Args2);
    return std::string();
  }
  std::string S(static_cast<size_t>(Need), '\0');
  std::vsnprintf(S.data(), S.size() + 1, Fmt, Args2);
  va_end(Args2);
  return S;
}

void traceback::appendDecimal(std::string &Out, uint64_t V) {
  char Buf[20]; // UINT64_MAX has 20 digits.
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

void traceback::appendHex(std::string &Out, uint64_t V, unsigned MinWidth) {
  char Buf[16];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), V, 16).ptr;
  size_t Len = static_cast<size_t>(End - Buf);
  if (Len < MinWidth)
    Out.append(MinWidth - Len, '0');
  Out.append(Buf, Len);
}

void traceback::appendCString(std::string &Out, const char *S,
                              size_t MinWidth) {
  size_t Len = std::strlen(S);
  Out.append(S, Len);
  if (Len < MinWidth)
    Out.append(MinWidth - Len, ' ');
}

std::vector<std::string> traceback::splitString(const std::string &S,
                                                const char *Seps) {
  std::vector<std::string> Parts;
  std::string Cur;
  for (char C : S) {
    if (std::strchr(Seps, C)) {
      if (!Cur.empty())
        Parts.push_back(Cur);
      Cur.clear();
    } else {
      Cur.push_back(C);
    }
  }
  if (!Cur.empty())
    Parts.push_back(Cur);
  return Parts;
}

std::string traceback::trimString(const std::string &S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

bool traceback::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() &&
         std::memcmp(S.data(), Prefix.data(), Prefix.size()) == 0;
}

bool traceback::parseInt(const std::string &S, int64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(S.c_str(), &End, 0);
  if (errno != 0 || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}
