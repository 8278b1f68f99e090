//===- perfbench/Stats.h - Sample statistics and failure counting -*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statistics every benchmark metric is reported with, and the ledger
/// that counts operations attempted and failed. Header-only, so the
/// benchmark's own tests exercise exactly the code the benchmark runs.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_PERFBENCH_STATS_H
#define SLO_PERFBENCH_STATS_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Median of \p V (mean of the two middle values for an even count); 0
/// for an empty sample.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank 75th percentile of \p V; 0 for an empty sample.
inline double upperQuartile(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  return V[(3 * V.size() + 3) / 4 - 1];
}

/// A tail value, always reported with its percentile and sample count.
struct Tail {
  bool Valid = false;
  double Percentile = 0.0;
  double Value = 0.0;
  size_t Count = 0;
};

/// Samples that must lie strictly above a reported tail value.
constexpr size_t TailSamplesBeyond = 10;
/// The tail never reaches past this percentile: with thousands of samples
/// the "highest percentile with ten samples beyond it" would measure a
/// handful of scheduler preemptions, not the program.
constexpr size_t TailPercentileCap = 99;

/// The highest nearest-rank percentile, up to TailPercentileCap, that has
/// at least TailSamplesBeyond samples beyond it. Invalid when the sample
/// is too small to have one (TailSamplesBeyond values or fewer).
inline Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Count = V.size();
  if (V.size() <= TailSamplesBeyond)
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  // Rank K (1-based) leaves N - K samples above it.
  size_t K = N - TailSamplesBeyond;
  T.Percentile = 100.0 * static_cast<double>(K) / static_cast<double>(N);
  if (100 * K >= TailPercentileCap * N) {
    // The cap's nearest rank: ceil(Cap * N / 100).
    K = (TailPercentileCap * N + 99) / 100;
    T.Percentile = static_cast<double>(TailPercentileCap);
  }
  T.Valid = true;
  T.Value = V[K - 1];
  return T;
}

/// Counts operations against failed ones. An operation whose output check
/// fails counts once as failed, however many of its checks failed.
class OpLedger {
public:
  /// Records one operation; \p Ok false marks it failed and reports
  /// \p What on stderr.
  void record(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
  }

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  /// True when something ran and nothing failed.
  bool correct() const { return Failed == 0 && Attempted > 0; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

} // namespace perfbench

#endif // SLO_PERFBENCH_STATS_H
