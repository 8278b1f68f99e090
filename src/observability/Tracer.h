//===- observability/Tracer.h - Hierarchical phase tracing -----*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records hierarchical phase spans — FE -> IPA -> BE pipeline stages,
/// individual analyses and transforms, and per-workload interpretation —
/// with wall time and a small per-thread id. Spans from ThreadPool
/// workers interleave freely; nesting is per thread (a span opened on a
/// worker closes on that worker), which is exactly the model of the
/// Chrome trace_event viewer the output targets.
///
/// Rendering:
///  - renderChromeJson(): "X" (complete) events in the trace_event JSON
///    schema, loadable in chrome://tracing or https://ui.perfetto.dev;
///  - renderTextSummary(): per-span-name aggregation (count, total and
///    max wall time) sorted by total time, for terminal consumption.
///
/// Tracing off is a null Tracer pointer everywhere: call sites guard
/// with a single branch (TraceSpan on a null tracer reads no clock and
/// takes no lock), so a disabled build path costs nothing measurable.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_OBSERVABILITY_TRACER_H
#define SLO_OBSERVABILITY_TRACER_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace slo {

/// Collects completed spans; thread-safe.
class Tracer {
public:
  using Clock = std::chrono::steady_clock;

  struct Event {
    std::string Name;
    std::string Category;
    uint64_t StartMicros = 0; // Relative to the tracer's epoch.
    uint64_t DurMicros = 0;
    uint32_t ThreadId = 0; // Small dense id, not the OS tid.
  };

  Tracer() : Epoch(Clock::now()) {}

  /// A tracer whose timestamps count from \p Epoch: a daemon request
  /// traces from its frame's first byte. Room for the few spans one
  /// request records is reserved up front, so a request allocates once.
  explicit Tracer(Clock::time_point Epoch) : Epoch(Epoch) {
    Events.reserve(8);
  }

  /// Records one completed span. Called by TraceSpan's destructor.
  void record(std::string Name, std::string Category, Clock::time_point Start,
              Clock::time_point End);

  /// All events recorded so far, in completion order.
  std::vector<Event> events() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}).
  std::string renderChromeJson() const;

  /// Per-name aggregation: "count total_ms max_ms name", sorted by
  /// total descending.
  std::string renderTextSummary() const;

  Clock::time_point epoch() const { return Epoch; }

private:
  mutable std::mutex Mutex;
  std::vector<Event> Events;
  Clock::time_point Epoch;
};

/// RAII span. On a null tracer this is fully inert: no clock read, no
/// allocation, no lock — the guarded fast path for tracing-off runs.
class TraceSpan {
public:
  TraceSpan(Tracer *T, const char *Name, const char *Category = "phase")
      : T(T) {
    if (T) {
      this->Name = Name;
      this->Category = Category;
      Start = Tracer::Clock::now();
    }
  }

  /// Spans are scope-bound; moving or copying one would double-record.
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  ~TraceSpan() { finish(); }

  /// Ends the span before scope exit; later calls are no-ops. Timing a
  /// lock acquisition reads `TraceSpan W(T, "lock-wait"); lock();
  /// W.finish();`.
  void finish() {
    if (!T)
      return;
    T->record(std::move(Name), std::move(Category), Start,
              Tracer::Clock::now());
    T = nullptr;
  }

private:
  Tracer *T;
  std::string Name;
  std::string Category;
  Tracer::Clock::time_point Start;
};

} // namespace slo

#endif // SLO_OBSERVABILITY_TRACER_H
