#ifndef TSQ_PERFBENCH_SPANS_H_
#define TSQ_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed interval recorded by the benchmark around a call into the
/// engine or one of its layers. `parent` indexes the enclosing span (-1 for
/// a root); spans of one user operation share `op`.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
};

/// In-memory span log. Disabled, Begin/End cost one branch and record
/// nothing, which is how the untraced half of a traced run measures the
/// recorder's own overhead. Spans are written out once, at exit.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  std::int64_t Begin(const char* name, std::uint64_t op) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op;
    span.start_ns = NowNanos();
    spans_.push_back(span);
    open_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(std::int64_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = NowNanos();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"stamp": <stamp_json>, "spans": [...]} to `path`; false on an
  /// I/O error.
  bool WriteJson(const std::string& path, const std::string& stamp_json) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t op)
      : log_(log), index_(log.Begin(name, op)) {}
  ~ScopedSpan() { log_.End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int64_t index_;
};

}  // namespace perfbench

#endif  // TSQ_PERFBENCH_SPANS_H_
