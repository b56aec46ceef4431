// Span tracer — RAII scoped spans serialized as Chrome trace-event
// JSON ("X" complete events), loadable in chrome://tracing or Perfetto.
//
// The pipeline nests spans three deep: binary (one per Analyze call) →
// phase (one per obs::PhaseScope, src/obs/phase.h) → function (one
// per intraprocedural symbolic analysis). Nesting is
// positional — Chrome reconstructs the stack per thread from
// timestamps — so spans from the interprocedural worker pool land on
// their own tracks via obs::ThreadId().
//
// Cost model: a span against a stopped tracer stores two string_views
// and a null pointer — no clock read, no allocation (asserted by the
// obs test suite). Only an enabled span pays for a timestamp pair and,
// at destruction, one mutex-guarded event append.
//
// Two output modes:
//  * Buffered (Start + WriteChromeJson): events accumulate in memory
//    and the whole JSON Object Format document is written at the end.
//    Zero I/O during the run, but a crash loses the entire trace.
//  * Streamed (StreamTo + FinishStream): events are appended to the
//    file as they finish, in Chrome's JSON Array Format, one write(2)
//    per record with the separating comma *prefixed* to the record.
//    Crash-tolerance guarantee: at any instant the file is
//    `[\n` + zero or more `,`-separated records — appending a single
//    `]` makes it a valid JSON array (and Perfetto loads the
//    unterminated form as-is). Every span that finished before a crash
//    is in the file; nothing dangles except possibly a torn final
//    record, which recovery tooling may drop.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dtaint::obs {

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer the pipeline reports into (started by --trace-out).
  static Tracer& Global();

  /// Clears recorded events and starts accepting spans; timestamps are
  /// relative to this call.
  void Start();

  /// Stops accepting spans (recorded events are kept for export).
  void Stop();

  /// Crash-tolerant alternative to Start(): creates/truncates `path`,
  /// writes the array opener, and streams each completed event to the
  /// file immediately (one write(2) per record, comma prefixed — see
  /// the file comment for the recovery guarantee). Implies Start();
  /// events are NOT additionally buffered in memory. False on I/O
  /// failure (tracer stays stopped).
  bool StreamTo(const std::string& path);

  /// Writes the closing `]` and closes the streamed file; stops the
  /// tracer. False on I/O failure or if not streaming.
  bool FinishStream();

  bool streaming() const;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since Start() — what spans record.
  uint64_t NowRelNanos() const;

  /// Appends one complete event; `rel_start_ns` is an offset from
  /// Start(). Dropped when the tracer is stopped. Public so tests can
  /// record deterministic timestamps.
  void RecordComplete(std::string_view category, std::string_view name,
                      uint64_t rel_start_ns, uint64_t dur_ns);

  size_t EventCount() const;

  /// {"traceEvents":[{"name":…,"cat":…,"ph":"X","ts":…,"dur":…,
  ///   "pid":1,"tid":…},…],"displayTimeUnit":"ms"} — ts/dur in
  /// microseconds with nanosecond precision, as the format specifies.
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Event {
    std::string category;
    std::string name;
    uint64_t start_ns = 0;
    uint64_t dur_ns = 0;
    uint32_t tid = 0;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::chrono::steady_clock::time_point t0_;
  // Streamed mode (guarded by mu_): destination fd, whether the next
  // record is the first (no comma prefix), events written so far.
  int stream_fd_ = -1;
  bool stream_first_ = true;
  size_t stream_count_ = 0;
};

/// RAII scoped span. Construction against a stopped tracer is a no-op
/// (no clock read, no allocation); against a running one, destruction
/// records a complete event covering the span's lifetime. The category
/// and name string_views must outlive the span — in the pipeline they
/// are literals and Program-owned function names.
class Span {
 public:
  Span() = default;
  Span(Tracer& tracer, std::string_view category, std::string_view name) {
    if (!tracer.enabled()) return;
    tracer_ = &tracer;
    category_ = category;
    name_ = name;
    start_ns_ = tracer.NowRelNanos();
  }

  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    Finish();
    tracer_ = other.tracer_;
    category_ = other.category_;
    name_ = other.name_;
    start_ns_ = other.start_ns_;
    other.tracer_ = nullptr;
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { Finish(); }

  /// Records the event now instead of at destruction.
  void Finish() {
    if (!tracer_) return;
    tracer_->RecordComplete(category_, name_, start_ns_,
                            tracer_->NowRelNanos() - start_ns_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_ = nullptr;
  std::string_view category_;
  std::string_view name_;
  uint64_t start_ns_ = 0;
};

}  // namespace dtaint::obs
