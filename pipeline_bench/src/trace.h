// In-memory span recorder for the traced mode. A span is one call into a
// layer of the library: name, start, end, the span it ran under, and the
// pass (or publish) it belongs to. Spans are kept in memory and written
// out once the run ends; with tracing off nothing is recorded and no
// clock is read.
#ifndef PIPELINE_BENCH_TRACE_H_
#define PIPELINE_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into Tracer::spans(), -1 at top level
  int pass = -1;    // pass / publish ordinal, -1 outside any
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Opens a span under the innermost open one; returns its id (-1 off).
  int Begin(const char* name, int pass) {
    if (!on_) return -1;
    SpanRecord s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.pass = pass;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start_ns = NowNs();
    return open_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per pass, the summed duration (s) of the spans called `name`; passes
  /// without such a span are left out.
  std::vector<double> PerPass(const std::string& name) const;
  /// Duration (s) of every span called `name`, in order.
  std::vector<double> Each(const std::string& name) const;
  /// Smallest share of an `outer` span's wall time that its direct child
  /// spans cover, over all `outer` spans (1 when there are none).
  double MinChildCoverage(const std::string& outer) const;
  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool on_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int pass)
      : tracer_(tracer), id_(tracer->Begin(name, pass)) {}
  ~Span() { tracer_->End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace pb

#endif  // PIPELINE_BENCH_TRACE_H_
