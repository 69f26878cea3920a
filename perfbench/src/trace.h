// In-memory span recorder for the traced run. The benchmark wraps each of
// its own calls into a library layer in a ScopedSpan; spans nest per thread
// (the innermost open span on the thread is the parent) and all spans of
// one arrival carry the arrival index as their id. Nothing is written until
// the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";  ///< static string: the layer call
  int64_t id = -1;        ///< arrival index shared by one arrival's spans
  int32_t parent = -1;    ///< index of the parent span in the same vector
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; ScopedSpan on it is a branch.
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Every span recorded so far, parents re-indexed into the returned
  /// vector. Call once the recording threads have been joined.
  std::vector<Span> Collect() const;

  /// Writes `spans` as Chrome trace-event JSON (one complete event each).
  static bool WriteChromeTrace(const std::vector<Span>& spans,
                               const std::string& path);

 private:
  friend class ScopedSpan;
  struct ThreadBuffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<int32_t> open;
  };
  ThreadBuffer* Local();

  const bool enabled_;
  const uint64_t epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

/// Records [construction, destruction) as one span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t id);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::ThreadBuffer* buffer_ = nullptr;
  int32_t index_ = -1;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per-name durations and self times, in milliseconds.
struct SpanSamples {
  std::vector<double> total_ms;
  std::vector<double> self_ms;
};
std::map<std::string, SpanSamples> AggregateSpans(
    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
