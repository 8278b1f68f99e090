//===- perfbench/Bench.h - Shared benchmark plumbing -----------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the run configuration, the report each
/// fills (operations, end-to-end metrics for the untraced run, per-layer
/// samples for the traced run), span self-time accounting, and clocks.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_PERFBENCH_BENCH_H
#define SLO_PERFBENCH_BENCH_H

#include "Stats.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace slo {
class Tracer;
} // namespace slo

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// \p Num / \p Den, or 0 when there is nothing to divide by.
inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// Runs \p Body repeatedly for about \p Seconds: at least once, and not
/// again once the longest repetition so far would overrun.
template <typename Fn> unsigned repeatFor(double Seconds, Fn Body) {
  auto Start = Clock::now();
  double LongestMs = 0;
  unsigned N = 0;
  for (;;) {
    auto T0 = Clock::now();
    Body();
    ++N;
    LongestMs = std::max(LongestMs, msSince(T0));
    if (msSince(Start) + LongestMs > Seconds * 1000.0)
      return N;
  }
}

/// Everything a run is parameterised by; printed with every result.
struct Config {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  /// FE fan-out of every timed advice run (IncrementalOptions::Threads).
  unsigned Threads = 0;
  /// Closed-loop GetAdvice connections in serve_mixed.
  unsigned Readers = 0;
  /// Scratch directory for summary caches; the caller removes it.
  std::string WorkDir;
  /// Checkout root, for the committed Table 3 baseline.
  std::string RepoRoot;
};

/// Repeats a workload's set-up, timing each: at least three times and for
/// at least a second, so a set-up of a few milliseconds still has a
/// steady median. \p Body must release the previous set-up before
/// building the next one.
template <typename Fn> std::vector<double> repeatSetup(Fn Body) {
  std::vector<double> Ms;
  auto Start = Clock::now();
  while (Ms.size() < 3 || msSince(Start) < 1000.0) {
    auto T0 = Clock::now();
    Body();
    Ms.push_back(msSince(T0));
  }
  return Ms;
}

/// Work the traced replays count beside their span times.
struct LayerCounts {
  uint64_t Tokens = 0;
  uint64_t IrInstructions = 0;
  uint64_t PointsToCells = 0;
  uint64_t TypesTransformed = 0;
  uint64_t CacheLookups = 0;
  uint64_t CacheReused = 0;
};

/// Self times of one Tracer's spans. A span's self time is its duration
/// minus the part of it that its child spans (same thread, nested) cover.
struct SpanTimes {
  /// "<span>_ms", and "<span>_ms.<category>" for spans whose category is
  /// not the default, to self milliseconds.
  std::map<std::string, double> SelfMs;
  /// Total duration of the "leg.*" root spans, and the part of it no
  /// layer span covers.
  double LegMs = 0;
  double LegSelfMs = 0;

  double get(const std::string &Key) const {
    auto It = SelfMs.find(Key);
    return It == SelfMs.end() ? 0.0 : It->second;
  }
};

SpanTimes selfTimes(const slo::Tracer &T);

/// One run's outcome.
class Report {
public:
  struct Metric {
    std::string Name;
    double Value = 0;
    std::string Unit;
  };

  OpLedger Ops;

  /// An end-to-end metric (untraced run).
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// <Prefix>_p50_ms and <Prefix>_tail_ms of \p SamplesMs; the printed
  /// line calls them \p Label and gives the tail's percentile and count.
  void latency(const std::string &Prefix, const std::string &Label,
               const std::vector<double> &SamplesMs);

  /// One iteration's value of a per-layer metric (traced run).
  void layer(const std::string &Name, double Value) {
    LayerSamples[Name].push_back(Value);
  }
  /// Adds every span self time of \p S as a layer sample; with \p Legs,
  /// also each layer's share of the legs and the trace coverage.
  void spans(const SpanTimes &S, bool Legs);

  const std::vector<Metric> &metrics() const { return Metrics; }
  /// The median of every per-layer metric BENCHMARK.json lists; 0 for a
  /// layer this workload never ran.
  std::vector<Metric> layerMetrics() const;

private:
  std::vector<Metric> Metrics;
  std::map<std::string, std::vector<double>> LayerSamples;
};

/// Prints one line of the human-readable report (stdout, before the JSON).
void say(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

int runSimTable3(const Config &C, Report &R);
int runAdviseCorpus(const Config &C, Report &R);
int runServeMixed(const Config &C, Report &R);

} // namespace perfbench

#endif // SLO_PERFBENCH_BENCH_H
