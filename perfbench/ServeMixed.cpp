//===- perfbench/ServeMixed.cpp - The serve_mixed workload ----------------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
// The advisory daemon under mixed traffic, in process over socketpairs: a
// fixed set of closed-loop readers sends GetAdvice back to back while one
// open-loop writer sends PutSource every WriterPeriodMs, alternating an
// edited TU with a byte-identical re-put of another, each timed from when
// it was due. The daemon's final advice must equal runIncrementalAdvice
// over the TUs it holds.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"
#include "Replay.h"

#include "observability/Tracer.h"
#include "service/AdvisoryDaemon.h"
#include "service/ServiceClient.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unistd.h>

using namespace slo;
using namespace slo::service;

namespace perfbench {
namespace {

constexpr unsigned CorpusUnits = 100;
constexpr int WriterPeriodMs = 25;
constexpr int ClientTimeoutMs = 30000;
constexpr int PingRounds = 200;

/// A client connection to \p D over a fresh socketpair; -1 on failure
/// (a client on -1 fails every call, which counts as failed operations).
int connectTo(AdvisoryDaemon &D) {
  int Fds[2];
  if (!makeSocketPair(Fds))
    return -1;
  if (!D.adoptConnection(Fds[0])) { // Closes Fds[0] when it refuses.
    ::close(Fds[1]);
    return -1;
  }
  return Fds[1];
}

/// The set-up: a daemon with every TU of \p C ingested over one
/// connection.
std::unique_ptr<AdvisoryDaemon> startDaemon(const Corpus &C, OpLedger &Ops) {
  auto D = std::make_unique<AdvisoryDaemon>(DaemonConfig());
  ServiceClient Cl(connectTo(*D), ClientTimeoutMs);
  for (const TuSource &Tu : C.TUs) {
    ServiceReply Rep = Cl.putWithRetry(Opcode::PutSource,
                                       encodePutSource(Tu.Name, Tu.Source));
    Ops.record(Rep.ok(), "initial PutSource of " + Tu.Name + ": " +
                             Rep.Message);
  }
  return D;
}

std::vector<TuSource> sortedByName(std::vector<TuSource> TUs) {
  std::sort(TUs.begin(), TUs.end(),
            [](const TuSource &A, const TuSource &B) { return A.Name < B.Name; });
  return TUs;
}

struct Traffic {
  std::vector<double> ReadMs, IngestMs, LagMs;
  /// GetAdvice completed in each whole second of the window.
  std::vector<double> ReadsPerSecond;
  uint64_t Retries = 0;
};

Traffic runTraffic(AdvisoryDaemon &D, Corpus &C, Editor &Ed,
                   unsigned Readers, double Seconds, OpLedger &Ops) {
  struct Reader {
    std::vector<double> Ms;
    std::vector<uint64_t> PerSecond;
    uint64_t Failed = 0;
    std::string FirstFailure;
  };
  size_t Slots = static_cast<size_t>(Seconds) + 2;
  std::vector<Reader> Rs(Readers);
  for (Reader &Rd : Rs)
    Rd.PerSecond.assign(Slots, 0);
  std::atomic<bool> Stop{false};
  const std::string Header = "tus " + std::to_string(C.TUs.size()) + "\n";
  auto Start = Clock::now();

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Readers; ++I)
    Threads.emplace_back([&, I] {
      Reader &Rd = Rs[I];
      ServiceClient Cl(connectTo(D), ClientTimeoutMs);
      while (!Stop.load(std::memory_order_relaxed)) {
        auto T0 = Clock::now();
        ServiceReply Rep = Cl.getAdvice(false);
        auto T1 = Clock::now();
        if (!Rep.Transport || Rep.Op != Opcode::Advice ||
            Rep.Text.find(Header) == std::string::npos) {
          if (Rd.Failed++ == 0)
            Rd.FirstFailure = std::string("GetAdvice: ") +
                              (Rep.Transport ? "bad reply " + Rep.Message
                                             : "connection lost");
          if (!Rep.Transport)
            break;
          continue;
        }
        Rd.Ms.push_back(
            std::chrono::duration<double, std::milli>(T1 - T0).count());
        auto Slot = static_cast<size_t>(
            std::chrono::duration<double>(T1 - Start).count());
        if (Slot < Slots)
          ++Rd.PerSecond[Slot];
      }
    });

  Traffic Out;
  {
    ServiceClient W(connectTo(D), ClientTimeoutMs);
    auto Period = std::chrono::milliseconds(WriterPeriodMs);
    auto Puts = static_cast<int64_t>(Seconds * 1000.0 / WriterPeriodMs);
    for (int64_t I = 0; I < Puts; ++I) {
      // Even puts carry an edited TU, odd ones re-send a TU unchanged.
      size_t K = I % 2 == 0 ? Ed.edit(C) : Ed.pick(C);
      std::string Body = encodePutSource(C.TUs[K].Name, C.TUs[K].Source);
      Clock::time_point Due = Start + Period * I;
      std::this_thread::sleep_until(Due);
      Out.LagMs.push_back(msSince(Due));
      ServiceReply Rep = W.call(Opcode::PutSource, Body);
      while (Rep.Transport && Rep.Op == Opcode::RetryAfter) {
        ++Out.Retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(Rep.RetryMillis));
        Rep = W.call(Opcode::PutSource, Body);
      }
      Ops.record(Rep.ok(),
                 "PutSource of " + C.TUs[K].Name + ": " + Rep.Message);
      if (Rep.ok())
        Out.IngestMs.push_back(msSince(Due));
    }
  }
  Stop = true;
  for (std::thread &Th : Threads)
    Th.join();
  double Elapsed = msSince(Start) / 1000.0;

  for (const Reader &Rd : Rs) {
    Out.ReadMs.insert(Out.ReadMs.end(), Rd.Ms.begin(), Rd.Ms.end());
    for (size_t I = 0; I < Rd.Ms.size(); ++I)
      Ops.record(true, "");
    for (uint64_t I = 0; I < Rd.Failed; ++I)
      Ops.record(false, Rd.FirstFailure);
  }
  size_t Whole = std::min(static_cast<size_t>(Elapsed), Slots);
  for (size_t S = 0; S < Whole; ++S) {
    uint64_t Sum = 0;
    for (const Reader &Rd : Rs)
      Sum += Rd.PerSecond[S];
    Out.ReadsPerSecond.push_back(static_cast<double>(Sum));
  }
  if (Out.ReadsPerSecond.empty())
    Out.ReadsPerSecond.push_back(
        ratio(static_cast<double>(Out.ReadMs.size()), Elapsed));
  return Out;
}

/// The daemon's advice against a one-shot runIncrementalAdvice over the
/// TUs it holds, ordered by module name (the serving contract).
void checkFinal(AdvisoryDaemon &D, const Corpus &C, unsigned Threads,
                OpLedger &Ops) {
  IncrementalOptions O;
  O.Threads = Threads;
  IncrementalResult Oracle = runIncrementalAdvice(sortedByName(C.TUs), O);
  ServiceClient Cl(connectTo(D), ClientTimeoutMs);
  ServiceReply Rep = Cl.getAdvice(false);
  Ops.record(Oracle.Ok && Rep.Transport && Rep.Op == Opcode::Advice &&
                 Rep.Text == Oracle.AdviceText,
             "final GetAdvice differs from runIncrementalAdvice over the "
             "daemon's TUs");
}

/// The traced run: half the time the same traffic (for the writer's
/// retries and lag), then a Ping reference and in-process replays of
/// AdvisoryState's read and ingest paths, layer by layer.
void tracedServe(const Config &Cfg, AdvisoryDaemon &D, Corpus &C,
                 Editor &Ed, Report &R) {
  double TrafficS = Cfg.Seconds / 2;
  Traffic Tr = runTraffic(D, C, Ed, Cfg.Readers, TrafficS, R.Ops);
  checkFinal(D, C, Cfg.Threads, R.Ops);
  R.layer("service.retry_after", static_cast<double>(Tr.Retries));
  Tail Lag = tailOf(Tr.LagMs);
  R.layer("serve.ingest_lag_ms", Lag.Valid ? Lag.Value : median(Tr.LagMs));

  {
    ServiceClient Cl(connectTo(D), ClientTimeoutMs);
    std::vector<double> Us;
    for (int I = 0; I < PingRounds; ++I) {
      auto T0 = Clock::now();
      ServiceReply Rep = Cl.ping();
      Us.push_back(msSince(T0) * 1000.0);
      R.Ops.record(Rep.Transport && Rep.Op == Opcode::Pong, "Ping");
    }
    R.layer("service.ping_us", median(Us));
  }

  std::vector<TuSource> TUs = sortedByName(C.TUs);
  SummaryOptions Opts;
  AdvisoryState State(Opts);
  for (const TuSource &Tu : TUs)
    R.Ops.record(State.putSource(Tu.Name, Tu.Source).Ok,
                 "AdvisoryState::putSource of " + Tu.Name);
  IncrementalOptions IO;
  IO.Threads = Cfg.Threads;
  IncrementalResult Base = runIncrementalAdvice(TUs, IO);
  R.Ops.record(Base.Ok, "runIncrementalAdvice over the daemon's TUs");
  PlannerOptions Planner;
  Planner.HotnessFromProfile = false;
  size_t Next = 0;
  repeatFor(Cfg.Seconds - TrafficS, [&] {
    Tracer T;
    LayerCounts LC;
    auto T0 = Clock::now();
    std::string Served = State.getAdvice(false);
    double GetUs = msSince(T0) * 1000.0;
    std::string Replayed;
    {
      TraceSpan Leg(&T, "leg.read");
      std::vector<ModuleSummary> Snapshot;
      {
        TraceSpan S(&T, "service.snapshot");
        Snapshot = Base.Summaries;
      }
      MergedProgram MP;
      {
        TraceSpan S(&T, "pipeline.merge");
        MP = mergeModuleSummaries(Snapshot, Planner);
      }
      TraceSpan S(&T, "pipeline.render");
      Replayed = renderAdviceText(MP, Snapshot, Opts.Scheme);
    }
    R.Ops.record(Replayed == Served,
                 "read replay differs from AdvisoryState::getAdvice");

    const TuSource &Tu = TUs[Next++ % TUs.size()];
    T0 = Clock::now();
    R.Ops.record(State.putSource(Tu.Name, Tu.Source).Ok,
                 "AdvisoryState::putSource of " + Tu.Name);
    double PutUs = msSince(T0) * 1000.0;
    {
      TraceSpan Leg(&T, "leg.ingest");
      auto Ctx = std::make_unique<IRContext>();
      std::string Error;
      std::unique_ptr<Module> M =
          replayCompileTu(*Ctx, Tu.Name, Tu.Source, &T, LC, Error);
      if (M) {
        TraceSpan S(&T, "pipeline.summarize");
        computeModuleSummary(*M, Opts);
      }
      TraceSpan S(&T, "ir.teardown");
      M.reset();
      Ctx.reset();
    }

    SpanTimes S = selfTimes(T);
    R.spans(S, true);
    R.layer("service.state_get_advice_us", GetUs);
    R.layer("service.state_put_source_us", PutUs);
    R.layer("trace.overhead", ratio(S.LegMs, (GetUs + PutUs) / 1000.0) - 1.0);
    R.layer("frontend.tokens_per_s",
            ratio(static_cast<double>(LC.Tokens),
                  S.get("frontend.lex_ms") / 1000.0));
  });
}

} // namespace

int runServeMixed(const Config &Cfg, Report &R) {
  std::unique_ptr<AdvisoryDaemon> D;
  std::unique_ptr<Corpus> Corp;
  std::vector<double> SetupMs = repeatSetup([&] {
    D.reset(); // Drains and joins the previous daemon.
    Corp.reset();
    Corp = std::make_unique<Corpus>(CorpusUnits);
    D = startDaemon(*Corp, R.Ops);
  });
  Editor Ed(Cfg.Seed);
  if (Cfg.Trace) {
    tracedServe(Cfg, *D, *Corp, Ed, R);
    D->stop();
    return 0;
  }

  Traffic Tr = runTraffic(*D, *Corp, Ed, Cfg.Readers, Cfg.Seconds, R.Ops);
  checkFinal(*D, *Corp, Cfg.Threads, R.Ops);
  D->stop();

  Tail Lag = tailOf(Tr.LagMs);
  say("  serve.read_qps           %.1f GetAdvice/s (median of %zu whole "
      "seconds, %u readers)",
      median(Tr.ReadsPerSecond), Tr.ReadsPerSecond.size(), Cfg.Readers);
  say("  writer                   %zu PutSource, one every %d ms, %llu "
      "RetryAfter, lag p50 %.3f ms, tail %.3f ms",
      Tr.IngestMs.size(), WriterPeriodMs,
      static_cast<unsigned long long>(Tr.Retries), median(Tr.LagMs),
      Lag.Valid ? Lag.Value : 0.0);
  R.metric("setup_s", median(SetupMs) / 1000.0, "s");
  R.metric("throughput_per_s", median(Tr.ReadsPerSecond), "1/s");
  R.latency("primary", "serve.read", Tr.ReadMs);
  R.latency("secondary", "serve.ingest", Tr.IngestMs);
  return 0;
}

} // namespace perfbench
