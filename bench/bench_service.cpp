//===- bench/bench_service.cpp - Advisory daemon telemetry tax ------------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
// What always-on telemetry costs the SLO-as-a-service daemon, measured
// through the wire protocol (socketpair transport, same code path as
// TCP). Two daemons run in this process over the same generated corpus:
//
//   - the telemetry-on daemon keeps counters, latency histograms and
//     the flight recorder, as slo_served does by default;
//   - the telemetry-off daemon has null registries and flight recorder
//     depth 0, so its request path reads no clock at all.
//
// Each daemon is fed the corpus through one client, and both must then
// serve advice byte-identical to a monolithic runIncrementalAdvice over
// the same TU set. The on-daemon's service.latency.PutSource histogram
// must count exactly one observation per PutSource frame sent (TUs fed
// plus RetryAfter resends), and GetMetrics must serve the same count.
//
// Comparing two separate bench invocations confounds the tax with
// machine drift between them (run-to-run QPS moves more than the 5%
// budget). So one thread alternates single GetAdvice requests between
// the two daemons for seven rounds, and the artifact carries
// overhead_qps_ratio, the median per-round on/off QPS ratio, for
// scripts/bench_compare.py --service-overhead.
//
// Throughput and latency under concurrent load are perfbench's
// serve_mixed workload, not this bench's.
//
//   bench_service [--tus N] [--duration-ms D] [--seed S] [--out FILE]
//
// Writes BENCH_service.json. Exits 1 when either daemon's advice
// diverges from the one-shot run or the telemetry counts disagree.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtils.h"

#include "fuzz/ProgramFuzzer.h"
#include "observability/CounterRegistry.h"
#include "observability/Histogram.h"
#include "pipeline/Incremental.h"
#include "service/AdvisoryDaemon.h"
#include "service/ServiceClient.h"
#include "support/Error.h"

#include <algorithm>
#include <chrono>
#include <cstring>

using namespace slo;
using namespace slo::bench;
using namespace slo::service;

namespace {

/// Opens one client connection to \p D over a socketpair.
int connectTo(AdvisoryDaemon &D) {
  int Fds[2];
  if (!makeSocketPair(Fds))
    reportFatalError("bench_service: socketpair failed");
  if (!D.adoptConnection(Fds[0]))
    reportFatalError("bench_service: daemon refused a connection");
  return Fds[1];
}

/// Streams every TU into \p D through one client; returns the number of
/// RetryAfter resends.
uint64_t feed(AdvisoryDaemon &D, const std::vector<TuSource> &TUs) {
  ServiceClient Feeder(connectTo(D), 30000);
  uint64_t Retries = 0;
  for (const TuSource &Tu : TUs) {
    unsigned R = 0;
    if (!Feeder
             .putWithRetry(Opcode::PutSource,
                           encodePutSource(Tu.Name, Tu.Source), 1000, &R)
             .ok())
      reportFatalError("bench_service: ingest of " + Tu.Name + " failed");
    Retries += R;
  }
  return Retries;
}

bool servesOracle(AdvisoryDaemon &D, const std::string &Oracle) {
  ServiceClient C(connectTo(D), 30000);
  ServiceReply R = C.getAdvice(false);
  return R.Transport && R.Op == Opcode::Advice && R.Text == Oracle;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Units = 24;
  unsigned DurationMs = 1500;
  uint64_t Seed = 42;
  std::string OutPath = "BENCH_service.json";
  for (int I = 1; I < argc; ++I) {
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (std::strcmp(argv[I], "--tus") == 0) {
      if (const char *V = Next())
        Units = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (std::strcmp(argv[I], "--duration-ms") == 0) {
      if (const char *V = Next())
        DurationMs = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (std::strcmp(argv[I], "--seed") == 0) {
      if (const char *V = Next())
        Seed = std::strtoull(V, nullptr, 10);
    } else if (std::strcmp(argv[I], "--out") == 0) {
      if (const char *V = Next())
        OutPath = V;
    } else {
      std::fprintf(stderr, "usage: bench_service [--tus N] [--duration-ms D] "
                           "[--seed S] [--out FILE]\n");
      return 2;
    }
  }
  if (Units < 2)
    Units = 2;

  std::vector<FuzzTu> Corpus = generateFuzzCorpus(Seed, Units);
  std::vector<TuSource> TUs;
  for (const FuzzTu &Tu : Corpus)
    TUs.push_back({Tu.FileName, Tu.Program.render()});

  SummaryOptions Summary;
  Summary.Lint = false;
  CounterRegistry DaemonCounters;
  HistogramRegistry DaemonHist;
  DaemonConfig OnConfig;
  OnConfig.Summary = Summary;
  OnConfig.Counters = &DaemonCounters;
  OnConfig.Hist = &DaemonHist;
  AdvisoryDaemon OnDaemon(std::move(OnConfig));
  DaemonConfig OffConfig;
  OffConfig.Summary = Summary;
  OffConfig.FlightRecorderDepth = 0; // Fully off: no clock on the path.
  AdvisoryDaemon OffDaemon(std::move(OffConfig));

  std::printf("bench_service: %zu TUs, 7 paired rounds x %u ms (seed %llu)\n",
              TUs.size(), DurationMs, static_cast<unsigned long long>(Seed));

  uint64_t Retries = feed(OnDaemon, TUs);
  feed(OffDaemon, TUs);

  //===--------------------------------------------------------------------===//
  // The invariant: serve equals oneshot, byte for byte, on both daemons
  //===--------------------------------------------------------------------===//
  std::vector<TuSource> Sorted = TUs;
  std::sort(Sorted.begin(), Sorted.end(),
            [](const TuSource &A, const TuSource &B) { return A.Name < B.Name; });
  IncrementalOptions O;
  O.Summary = Summary;
  IncrementalResult Oracle = runIncrementalAdvice(Sorted, O);
  if (!Oracle.Ok)
    reportFatalError("bench_service: oracle corpus failed to compile");
  bool Identical = servesOracle(OnDaemon, Oracle.AdviceText);
  bool OffIdentical = servesOracle(OffDaemon, Oracle.AdviceText);

  //===--------------------------------------------------------------------===//
  // Telemetry cross-check
  //===--------------------------------------------------------------------===//
  // The daemon's own PutSource latency histogram must have seen exactly
  // one observation per PutSource frame: every TU fed plus every
  // RetryAfter resend. Counts are scheduling-independent, so this is an
  // equality, not a tolerance.
  bool TelemetryOk = true;
  HistogramSnapshot DaemonPut =
      DaemonHist.get("service.latency.PutSource").snapshot();
  uint64_t Expected = TUs.size() + Retries;
  if (DaemonPut.Count != Expected) {
    std::fprintf(stderr,
                 "bench_service: daemon PutSource histogram count %llu != "
                 "TUs+retries %llu\n",
                 static_cast<unsigned long long>(DaemonPut.Count),
                 static_cast<unsigned long long>(Expected));
    TelemetryOk = false;
  }
  {
    // The wire endpoint must serve the same merged snapshot the
    // in-process registry renders.
    ServiceClient C(connectTo(OnDaemon), 30000);
    ServiceReply M = C.getMetrics(0);
    std::string Want = "\"service.latency.PutSource\": {\"count\": " +
                       std::to_string(DaemonPut.Count);
    if (!M.Transport || M.Op != Opcode::Metrics ||
        M.Text.find(Want) == std::string::npos) {
      std::fprintf(stderr,
                   "bench_service: GetMetrics disagrees with the in-process "
                   "registry (want substring %s)\n",
                   Want.c_str());
      TelemetryOk = false;
    }
  }

  //===--------------------------------------------------------------------===//
  // The telemetry tax, paired request by request
  //===--------------------------------------------------------------------===//
  // One thread alternates single requests between the two daemons, so
  // every on-request is bracketed by off-requests issued microseconds
  // apart — the tightest pairing ambient load allows. Competing reader
  // pools or adjacent timed windows both showed ±5% swings from
  // scheduler slice allocation alone (the container may have a single
  // core); per-request alternation cancels that drift pairwise. Each
  // round's ratio is (sum of off latencies) / (sum of on latencies),
  // i.e. the on/off QPS ratio at saturation, and the gated statistic
  // is the MEDIAN round ratio so a preemption spike landing inside
  // one round cannot tip the gate.
  constexpr unsigned OverheadRounds = 7;
  double QpsOn = 0.0, QpsOff = 0.0, QpsRatio = 1.0;
  uint64_t AdviceRequests = 0, AdviceFailures = 0;
  std::vector<double> Ratios;
  ServiceClient Con(connectTo(OnDaemon), 30000);
  ServiceClient Coff(connectTo(OffDaemon), 30000);
  for (unsigned Round = 0; Round < OverheadRounds; ++Round) {
    uint64_t OnUs = 0, OffUs = 0, Pairs = 0;
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(DurationMs);
    while (std::chrono::steady_clock::now() < Deadline) {
      bool OnFirst = (Pairs % 2 == 0);
      for (int Leg = 0; Leg < 2; ++Leg) {
        bool IsOn = (Leg == 0) == OnFirst;
        auto S = std::chrono::steady_clock::now();
        ServiceReply Reply = (IsOn ? Con : Coff).getAdvice(false);
        auto E = std::chrono::steady_clock::now();
        if (Reply.Transport && Reply.Op == Opcode::Advice)
          ++AdviceRequests;
        else
          ++AdviceFailures;
        (IsOn ? OnUs : OffUs) += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(E - S)
                .count());
      }
      ++Pairs;
    }
    if (OnUs > 0 && OffUs > 0 && Pairs > 0) {
      QpsOn = std::max(QpsOn, static_cast<double>(Pairs) /
                                  (static_cast<double>(OnUs) / 1e6));
      QpsOff = std::max(QpsOff, static_cast<double>(Pairs) /
                                    (static_cast<double>(OffUs) / 1e6));
      Ratios.push_back(static_cast<double>(OffUs) /
                       static_cast<double>(OnUs));
    }
  }
  if (AdviceFailures)
    reportFatalError("bench_service: advice failures in overhead rounds");
  if (!Ratios.empty()) {
    std::sort(Ratios.begin(), Ratios.end());
    QpsRatio = Ratios[Ratios.size() / 2];
  }
  OffDaemon.stop();
  OnDaemon.stop();

  std::printf("  advice vs oneshot: %s (on), %s (off)\n",
              Identical ? "identical" : "DIVERGED",
              OffIdentical ? "identical" : "DIVERGED");
  std::printf("  daemon  PutSource x %llu (%llu retries): p50 %llu us, "
              "p99 %llu us (telemetry %s)\n",
              static_cast<unsigned long long>(DaemonPut.Count),
              static_cast<unsigned long long>(Retries),
              static_cast<unsigned long long>(DaemonPut.quantile(0.50)),
              static_cast<unsigned long long>(DaemonPut.quantile(0.99)),
              TelemetryOk ? "consistent" : "INCONSISTENT");
  std::printf("  overhead  median on/off qps ratio %.3f over %llu requests "
              "(best %.1f on, %.1f off)\n",
              QpsRatio, static_cast<unsigned long long>(AdviceRequests), QpsOn,
              QpsOff);

  std::string Json;
  Json += "{\n";
  Json += "  \"bench\": \"service\",\n";
  Json += "  \"tus\": " + std::to_string(TUs.size()) + ",\n";
  Json += "  \"seed\": " + std::to_string(Seed) + ",\n";
  Json += "  \"advice_requests\": " + std::to_string(AdviceRequests) + ",\n";
  Json += "  \"advice_qps_on\": " + std::to_string(QpsOn) + ",\n";
  Json += "  \"advice_qps_off\": " + std::to_string(QpsOff) + ",\n";
  Json += "  \"overhead_qps_ratio\": " + std::to_string(QpsRatio) + ",\n";
  Json += std::string("  \"telemetry_consistent\": ") +
          (TelemetryOk ? "true" : "false") + ",\n";
  Json += std::string("  \"advice_identical_off\": ") +
          (OffIdentical ? "true" : "false") + ",\n";
  Json += std::string("  \"advice_identical\": ") +
          (Identical ? "true" : "false") + "\n";
  Json += "}\n";
  writeTextFile(OutPath, Json);
  std::printf("wrote %s\n", OutPath.c_str());

  // Smoke gates: byte divergence or a telemetry miscount is wrong
  // regardless of the ratio.
  return Identical && TelemetryOk && OffIdentical ? 0 : 1;
}
