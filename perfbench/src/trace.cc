#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_epoch{1};

// The calling thread's buffer in the most recent tracer it recorded into.
thread_local uint64_t tls_epoch = 0;
thread_local void* tls_buffer = nullptr;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(g_next_epoch.fetch_add(1)) {}

Tracer::ThreadBuffer* Tracer::Local() {
  if (tls_epoch != epoch_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->thread = static_cast<uint32_t>(buffers_.size() - 1);
    buffers_.back()->spans.reserve(1 << 16);
    tls_buffer = buffers_.back().get();
    tls_epoch = epoch_;
  }
  return static_cast<ThreadBuffer*>(tls_buffer);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    const int32_t offset = static_cast<int32_t>(out.size());
    for (Span span : buffer->spans) {
      if (span.parent >= 0) span.parent += offset;
      span.thread = buffer->thread;
      out.push_back(span);
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::vector<Span>& spans,
                              const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.thread, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, static_cast<long long>(s.id),
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t id) {
  if (tracer == nullptr || !tracer->enabled()) return;
  buffer_ = tracer->Local();
  index_ = static_cast<int32_t>(buffer_->spans.size());
  Span span;
  span.name = name;
  span.id = id;
  span.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  buffer_->spans.push_back(span);
  buffer_->open.push_back(index_);
  // Stamp last so the bookkeeping above is not inside the span.
  buffer_->spans[static_cast<size_t>(index_)].start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  buffer_->open.pop_back();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, cursor = lo;
    for (const auto& [start, end] : kids) {
      const int64_t a = std::max(start, cursor), b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, SpanSamples> AggregateSpans(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanSamples> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSamples& s = out[spans[i].name];
    s.total_ms.push_back((spans[i].end_ns - spans[i].start_ns) / 1e6);
    s.self_ms.push_back(self[i] / 1e6);
  }
  return out;
}

}  // namespace perfbench
