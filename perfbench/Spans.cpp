//===- perfbench/Spans.cpp - In-memory span recorder ------------------------===//

#include "Spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>

using namespace perfbench;

namespace {

struct ThreadBuffer {
  std::vector<Span> Spans;
  int32_t Top = -1; ///< innermost open span.
  uint32_t Job = 0;
  uint32_t Tid = 0;
};

std::atomic<bool> Enabled{false};
std::mutex BuffersMu;
std::vector<std::unique_ptr<ThreadBuffer>> Buffers; // guarded by BuffersMu

bool spansEnabled() { return Enabled.load(std::memory_order_relaxed); }

ThreadBuffer &threadBuffer() {
  thread_local ThreadBuffer *Mine = nullptr;
  if (!Mine) {
    std::lock_guard<std::mutex> Lock(BuffersMu);
    Buffers.push_back(std::make_unique<ThreadBuffer>());
    Mine = Buffers.back().get();
    Mine->Tid = static_cast<uint32_t>(Buffers.size());
    Mine->Spans.reserve(4096);
  }
  return *Mine;
}

} // namespace

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void perfbench::enableSpans() { Enabled.store(true); }

void perfbench::setSpanJob(uint32_t Job) {
  if (spansEnabled())
    threadBuffer().Job = Job;
}

ScopedSpan::ScopedSpan(const char *Name) {
  if (!spansEnabled())
    return;
  ThreadBuffer &B = threadBuffer();
  Span S;
  S.Name = Name;
  S.Parent = B.Top;
  S.Job = B.Job;
  Index = static_cast<int32_t>(B.Spans.size());
  B.Spans.push_back(S);
  B.Top = Index;
  B.Spans.back().StartNs = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (Index < 0)
    return;
  uint64_t End = nowNs();
  ThreadBuffer &B = threadBuffer();
  Span &S = B.Spans[static_cast<size_t>(Index)];
  S.EndNs = End;
  B.Top = S.Parent;
}

SpanSummary perfbench::summarizeSpans() {
  SpanSummary Sum;
  std::lock_guard<std::mutex> Lock(BuffersMu);
  for (const std::unique_ptr<ThreadBuffer> &B : Buffers) {
    std::vector<uint64_t> ChildNs(B->Spans.size(), 0);
    for (const Span &S : B->Spans)
      if (S.Parent >= 0)
        ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
    for (size_t I = 0; I != B->Spans.size(); ++I) {
      const Span &S = B->Spans[I];
      uint64_t Dur = S.EndNs - S.StartNs;
      Sum.SelfMs[S.Name] += static_cast<double>(Dur - ChildNs[I]) / 1e6;
      if (S.Parent < 0)
        Sum.RootMs += static_cast<double>(Dur) / 1e6;
    }
    Sum.Spans += B->Spans.size();
  }
  return Sum;
}

bool perfbench::writeSpans(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(BuffersMu);
  uint64_t Origin = UINT64_MAX;
  for (const std::unique_ptr<ThreadBuffer> &B : Buffers)
    for (const Span &S : B->Spans)
      Origin = std::min(Origin, S.StartNs);
  std::fprintf(F, "{\"traceEvents\": [\n");
  bool First = true;
  for (const std::unique_ptr<ThreadBuffer> &B : Buffers)
    for (size_t I = 0; I != B->Spans.size(); ++I) {
      const Span &S = B->Spans[I];
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"job\": %u, \"index\": %zu, \"parent\": %d}}",
                   First ? "" : ",\n", S.Name, B->Tid,
                   static_cast<double>(S.StartNs - Origin) / 1e3,
                   static_cast<double>(S.EndNs - S.StartNs) / 1e3, S.Job, I,
                   S.Parent);
      First = false;
    }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
