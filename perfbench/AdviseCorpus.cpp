//===- perfbench/AdviseCorpus.cpp - The advise_corpus workload ------------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
// The advisor path on a 200-unit generated corpus, in cycles: warm
// re-advice with nothing changed, re-advice after a one-TU edit (a
// different TU each time), and a cold run of the edited corpus into an
// empty summary cache, which is both a cold sample and the from-scratch
// reference the edit must equal. Every few cycles the linked one-shot
// path runs too: compileProgram + runStructLayoutPipeline, AnalyzeOnly,
// with Lint on like the summaries.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"
#include "Replay.h"

#include "frontend/Frontend.h"
#include "observability/Tracer.h"

#include <cstring>
#include <filesystem>

using namespace slo;

namespace perfbench {
namespace {

constexpr unsigned CorpusUnits = 200;
/// Warm re-advice runs per cycle.
constexpr unsigned WarmPerCycle = 5;
/// The linked path, several times as costly as a whole cycle, runs every
/// this many cycles.
constexpr unsigned LinkedEvery = 8;

void wipe(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

IncrementalResult advise(const std::vector<TuSource> &TUs,
                         const std::string &CacheDir, unsigned Threads,
                         double &Ms) {
  IncrementalOptions O;
  O.CacheDir = CacheDir;
  O.Threads = Threads;
  auto T0 = Clock::now();
  IncrementalResult Res = runIncrementalAdvice(TUs, O);
  Ms = msSince(T0);
  return Res;
}

/// Same advice: the text, and per type the census and plan fields. The
/// JSON bytes are not compared, because hotness_bits can differ in the
/// last bit between two cold runs (NOTES.md); \p BitMismatches counts
/// those differences.
bool sameAdvice(const IncrementalResult &A, const IncrementalResult &B,
                uint64_t &BitMismatches, std::string &Why) {
  if (!A.Ok || !B.Ok) {
    const std::vector<std::string> &E = A.Ok ? B.Errors : A.Errors;
    Why = "advice run failed: " + (E.empty() ? std::string("?") : E.front());
    return false;
  }
  if (A.AdviceText != B.AdviceText) {
    Why = "advice text differs";
    return false;
  }
  if (A.Merged.Types.size() != B.Merged.Types.size()) {
    Why = "type count differs";
    return false;
  }
  for (size_t I = 0; I < A.Merged.Types.size(); ++I) {
    const MergedTypeAdvice &X = A.Merged.Types[I], &Y = B.Merged.Types[I];
    const PlanDecision &P = X.Plan, &Q = Y.Plan;
    bool Same = X.Name == Y.Name && X.NumFields == Y.NumFields &&
                X.Size == Y.Size && X.Violations == Y.Violations &&
                X.Legal == Y.Legal && X.Proven == Y.Proven &&
                X.Relax == Y.Relax && X.Pinned == Y.Pinned &&
                P.Kind == Q.Kind && P.HotFields == Q.HotFields &&
                P.ColdFields == Q.ColdFields && P.PeelGroups == Q.PeelGroups &&
                P.DeadFields == Q.DeadFields &&
                P.UnusedFields == Q.UnusedFields && P.Reason == Q.Reason &&
                X.Hotness.size() == Y.Hotness.size();
    if (!Same) {
      Why = "type " + X.Name + " differs";
      return false;
    }
    for (size_t J = 0; J < X.Hotness.size(); ++J)
      BitMismatches +=
          std::memcmp(&X.Hotness[J], &Y.Hotness[J], sizeof(double)) != 0;
  }
  return true;
}

std::vector<std::string> sourcesOf(const std::vector<TuSource> &TUs) {
  std::vector<std::string> Sources;
  for (const TuSource &Tu : TUs)
    Sources.push_back(Tu.Source);
  return Sources;
}

PipelineOptions linkedOptions() {
  PipelineOptions O;
  O.AnalyzeOnly = true;
  O.Lint = true;
  return O;
}

/// The linked one-shot path; returns its wall time in ms.
double linkedAdvice(const std::vector<TuSource> &TUs, OpLedger &Ops) {
  std::vector<std::string> Sources = sourcesOf(TUs);
  auto T0 = Clock::now();
  IRContext Ctx;
  std::vector<std::string> Diags;
  std::unique_ptr<Module> M = compileProgram(Ctx, "corpus", Sources, Diags);
  PipelineResult P;
  if (M)
    P = runStructLayoutPipeline(*M, linkedOptions());
  double Ms = msSince(T0);
  Ops.record(M && P.Plans.size() == P.Legality.types().size(),
             "linked corpus: " +
                 (M ? std::string("not one plan per type")
                    : Diags.empty() ? std::string("?") : Diags.front()));
  return Ms;
}

/// The traced run: each leg once through the library (serially, for the
/// overhead baseline) and once as a layer-by-layer replay with its own
/// cache; the two must agree.
void tracedAdvise(const Config &Cfg, Corpus &C, Editor &Ed, Report &R) {
  size_t N = C.TUs.size();
  std::string LibDir = Cfg.WorkDir + "/advise-lib";
  std::string RepDir = Cfg.WorkDir + "/advise-replay";
  repeatFor(Cfg.Seconds, [&] {
    Tracer T;
    LayerCounts LC;
    uint64_t Bits = 0;
    std::string Why;
    double UntracedMs = 0, Ms = 0;

    wipe(LibDir);
    wipe(RepDir);
    IncrementalResult Lib = advise(C.TUs, LibDir, 1, Ms);
    UntracedMs += Ms;
    IncrementalResult Rep;
    {
      TraceSpan Leg(&T, "leg.cold");
      Rep = replayIncremental(C.TUs, RepDir, &T, LC);
    }
    R.Ops.record(Rep.TusRecomputed == N && sameAdvice(Rep, Lib, Bits, Why),
                 "cold replay vs runIncrementalAdvice: " + Why);
    std::vector<ModuleSummary> ColdSummaries = Rep.Summaries;

    Lib = advise(C.TUs, LibDir, 1, Ms);
    UntracedMs += Ms;
    {
      TraceSpan Leg(&T, "leg.warm");
      Rep = replayIncremental(C.TUs, RepDir, &T, LC);
    }
    R.Ops.record(Rep.TusReused == N && sameAdvice(Rep, Lib, Bits, Why),
                 "warm replay vs runIncrementalAdvice: " + Why);

    Ed.edit(C);
    Lib = advise(C.TUs, LibDir, 1, Ms);
    UntracedMs += Ms;
    {
      TraceSpan Leg(&T, "leg.edit");
      Rep = replayIncremental(C.TUs, RepDir, &T, LC);
    }
    R.Ops.record(Lib.TusRecomputed == 1 && Rep.TusRecomputed == 1 &&
                     sameAdvice(Rep, Lib, Bits, Why),
                 "edit replay vs runIncrementalAdvice: " + Why);
    R.layer("pipeline.tus_reused", Lib.TusReused);
    R.layer("pipeline.tus_recomputed", Lib.TusRecomputed);

    {
      std::vector<std::string> Sources = sourcesOf(C.TUs);
      auto T0 = Clock::now();
      IRContext LibCtx;
      std::vector<std::string> Diags;
      std::unique_ptr<Module> LibM =
          compileProgram(LibCtx, "corpus", Sources, Diags);
      PipelineResult LibP;
      if (LibM)
        LibP = runStructLayoutPipeline(*LibM, linkedOptions());
      UntracedMs += msSince(T0);
      IRContext RepCtx;
      std::unique_ptr<Module> RepM;
      PipelineResult RepP;
      {
        TraceSpan Leg(&T, "leg.linked");
        std::string Error;
        RepM = replayCompileProgram(RepCtx, "corpus", Sources, &T, LC, Error);
        if (RepM)
          RepP = replayPipeline(*RepM, linkedOptions(), nullptr, &T, LC);
      }
      R.Ops.record(LibM && RepM && samePlans(LibP.Plans, RepP.Plans),
                   "linked replay's TypePlans differ from "
                   "runStructLayoutPipeline's");
      if (RepM)
        LC.IrInstructions += countInstructions(*RepM);
    }

    // Summary (de)serialization, timed on its own over the cold leg's
    // summaries: inside the legs it is part of cache_store/cache_load.
    Tracer Codec;
    bool RoundTrips = true;
    for (const ModuleSummary &S : ColdSummaries) {
      std::string Text;
      {
        TraceSpan Sp(&Codec, "pipeline.serialize");
        Text = serializeModuleSummary(S);
      }
      ModuleSummary Back;
      std::string Error;
      bool Ok;
      {
        TraceSpan Sp(&Codec, "pipeline.deserialize");
        Ok = deserializeModuleSummary(Text, Back, Error);
      }
      RoundTrips = RoundTrips && Ok && serializeModuleSummary(Back) == Text;
    }
    R.Ops.record(RoundTrips, "summaries do not round-trip");

    SpanTimes S = selfTimes(T);
    R.spans(S, true);
    R.spans(selfTimes(Codec), false);
    R.layer("trace.overhead", ratio(S.LegMs, UntracedMs) - 1.0);
    R.layer("pipeline.cache_lookups", static_cast<double>(LC.CacheLookups));
    R.layer("pipeline.cache_hit_ratio",
            ratio(static_cast<double>(LC.CacheReused),
                  static_cast<double>(LC.CacheLookups)));
    R.layer("advise.json_bit_mismatches", static_cast<double>(Bits));
    R.layer("frontend.tokens_per_s",
            ratio(static_cast<double>(LC.Tokens),
                  S.get("frontend.lex_ms") / 1000.0));
    R.layer("ir.instructions", static_cast<double>(LC.IrInstructions));
    R.layer("analysis.pointsto_cells", static_cast<double>(LC.PointsToCells));
  });
}

} // namespace

int runAdviseCorpus(const Config &Cfg, Report &R) {
  std::unique_ptr<Corpus> Corp;
  std::vector<double> SetupMs = repeatSetup([&] {
    Corp.reset();
    Corp = std::make_unique<Corpus>(CorpusUnits);
  });
  Corpus &C = *Corp;
  Editor Ed(Cfg.Seed);
  if (Cfg.Trace) {
    tracedAdvise(Cfg, C, Ed, R);
    return 0;
  }

  size_t N = C.TUs.size();
  std::string WarmDir = Cfg.WorkDir + "/advise-warm";
  std::string ColdDir = Cfg.WorkDir + "/advise-cold";
  std::vector<double> ColdMs, WarmMs, EditMs, LinkedMs;
  uint64_t Bits = 0;
  std::string Why;
  double Ms = 0;

  wipe(WarmDir);
  IncrementalResult Ref = advise(C.TUs, WarmDir, Cfg.Threads, Ms);
  ColdMs.push_back(Ms);
  R.Ops.record(Ref.Ok && Ref.TusRecomputed == N, "first cold run");
  unsigned Cycle = 0, Reused = 0, Recomputed = 0;
  repeatFor(Cfg.Seconds, [&] {
    for (unsigned I = 0; I < WarmPerCycle; ++I) {
      IncrementalResult Warm = advise(C.TUs, WarmDir, Cfg.Threads, Ms);
      WarmMs.push_back(Ms);
      bool AllReused = Warm.TusReused == N;
      R.Ops.record(AllReused && sameAdvice(Warm, Ref, Bits, Why),
                   "warm run: " +
                       (AllReused ? Why : "not every summary reused"));
    }

    size_t K = Ed.edit(C);
    IncrementalResult Edited = advise(C.TUs, WarmDir, Cfg.Threads, Ms);
    EditMs.push_back(Ms);
    wipe(ColdDir);
    Ref = advise(C.TUs, ColdDir, Cfg.Threads, Ms);
    ColdMs.push_back(Ms);
    R.Ops.record(Ref.Ok && Ref.TusRecomputed == N, "cold run");
    bool OneRecomputed = Edited.TusRecomputed == 1 && Edited.TusReused == N - 1;
    R.Ops.record(OneRecomputed && sameAdvice(Edited, Ref, Bits, Why),
                 "edit of " + C.TUs[K].Name + ": " +
                     (OneRecomputed ? Why : "not exactly one TU recomputed"));
    Reused = Edited.TusReused;
    Recomputed = Edited.TusRecomputed;

    if (Cycle++ % LinkedEvery == 0)
      LinkedMs.push_back(linkedAdvice(C.TUs, R.Ops));
  });
  wipe(WarmDir);
  wipe(ColdDir);

  double ColdS = median(ColdMs) / 1000.0;
  say("  cycles                   %u (%u warm runs, one edit, one cold run "
      "each)",
      Cycle, WarmPerCycle);
  say("  advise.cold_s            %.4f s (%zu runs, %zu TUs, %u threads)",
      ColdS, ColdMs.size(), N, Cfg.Threads);
  say("  advise.warm_p50_ms       %.3f ms (%zu runs)", median(WarmMs),
      WarmMs.size());
  say("  advise.linked_s          %.4f s (%zu runs)", median(LinkedMs) / 1000.0,
      LinkedMs.size());
  say("  edits                    reuse %u, recompute %u TUs",
      Reused, Recomputed);
  say("  advise.json_bit_mismatches %llu",
      static_cast<unsigned long long>(Bits));
  R.metric("setup_s", median(SetupMs) / 1000.0, "s");
  R.metric("throughput_per_s", ratio(static_cast<double>(N), ColdS), "1/s");
  R.latency("primary", "advise.edit", EditMs);
  R.latency("secondary", "advise.warm", WarmMs);
  return 0;
}

} // namespace perfbench
