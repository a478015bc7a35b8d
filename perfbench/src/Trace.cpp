//===- perfbench/src/Trace.cpp - In-memory spans around layer calls -------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <chrono>
#include <cstdio>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int32_t Tracer::open(const char *Name) {
  SpanRecord R;
  R.Name = Name;
  R.Parent = Current;
  R.OpId = OpId;
  Spans.push_back(R);
  Current = static_cast<int32_t>(Spans.size() - 1);
  // Stamp last so the bookkeeping above is charged to the parent.
  Spans.back().StartNs = nowNs();
  return Current;
}

void Tracer::close(int32_t Index) {
  Spans[Index].EndNs = nowNs();
  Current = Spans[Index].Parent;
}

std::map<std::string, uint64_t> Tracer::selfTimes() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, uint64_t> Self;
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[Spans[I].Name] += Spans[I].EndNs - Spans[I].StartNs - ChildNs[I];
  return Self;
}

bool Tracer::write(const std::string &Path, const std::string &Workload) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"workload\": \"%s\", \"spans\": [", Workload.c_str());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F,
                 "%s\n {\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %d, \"op\": %llu}",
                 I ? "," : "", S.Name,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs), S.Parent,
                 static_cast<unsigned long long>(S.OpId));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

std::string perfbench::layerMetricName(const std::string &SpanName) {
  return SpanName + (SpanName.find('.') == std::string::npos ? ".ms" : "_ms");
}
