//===- perfbench/Spans.h - In-memory span recorder --------------*- C++ -*-===//
///
/// \file
/// The traced run's recorder. A Span is one call into a layer's public
/// function, made by the benchmark: name, start, end, the enclosing span on
/// the same thread, and the job it belongs to. Spans are appended to
/// per-thread buffers (no locking on the hot path), kept in memory, and
/// reduced or written out when the run ends. While tracing is off, a
/// ScopedSpan costs one load and a branch.
///
//===----------------------------------------------------------------------===//

#ifndef BSCHED_PERFBENCH_SPANS_H
#define BSCHED_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

uint64_t nowNs();

struct Span {
  const char *Name;
  uint64_t StartNs = 0, EndNs = 0;
  int32_t Parent = -1; ///< index into the same thread's buffer, or -1.
  uint32_t Job = 0;
};

/// Turns recording on for the rest of the process.
void enableSpans();

/// The job id stamped on spans opened by this thread from now on.
void setSpanJob(uint32_t Job);

class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int32_t Index = -1;
};

/// Per-layer reduction of every recorded span.
struct SpanSummary {
  std::map<std::string, double> SelfMs; ///< duration minus child spans.
  double RootMs = 0;  ///< summed durations of spans without a parent.
  size_t Spans = 0;
};
SpanSummary summarizeSpans();

/// Writes every span as Chrome trace-event JSON ("X" events; the job id
/// and parent index go in args). Returns false when the file cannot be
/// written.
bool writeSpans(const std::string &Path);

} // namespace perfbench

#endif // BSCHED_PERFBENCH_SPANS_H
