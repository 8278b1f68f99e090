//===- perfbench/Replay.cpp - Layer-by-layer replays ----------------------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
// Each function follows the library function it replays statement for
// statement (frontend/Frontend.cpp, pipeline/Pipeline.cpp,
// pipeline/Incremental.cpp); a change there must be mirrored here, and
// the traced run's checks fail until it is.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "analysis/PointsTo.h"
#include "frontend/IRGen.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Linker.h"
#include "ir/Verifier.h"
#include "observability/Tracer.h"

#include <map>

using namespace slo;

namespace perfbench {

std::unique_ptr<Module> replayCompileTu(IRContext &Ctx, const std::string &Name,
                                        const std::string &Source, Tracer *T,
                                        LayerCounts &C, std::string &Error) {
  std::vector<Token> Tokens;
  {
    TraceSpan S(T, "frontend.lex");
    Lexer Lex(Source);
    std::string LexError;
    Tokens = Lex.lexAll(LexError);
    if (!LexError.empty()) {
      Error = Name + ": " + LexError;
      return nullptr;
    }
  }
  C.Tokens += Tokens.size();

  std::vector<std::string> Diags;
  std::unique_ptr<TranslationUnit> TU;
  {
    TraceSpan S(T, "frontend.parse");
    Parser P(std::move(Tokens), Diags);
    TU = P.parse();
  }
  std::unique_ptr<Module> M;
  if (TU) {
    TraceSpan S(T, "frontend.irgen");
    IRGenerator Gen(Ctx, Diags);
    M = Gen.run(*TU, Name);
  }
  if (!M) {
    Error = Name + ": " + (Diags.empty() ? "compile failed" : Diags.front());
    return nullptr;
  }

  TraceSpan S(T, "frontend.verify");
  std::vector<std::string> VerifyErrors;
  if (!verifyModule(*M, VerifyErrors)) {
    Error = Name + ": internal error: " + VerifyErrors.front();
    return nullptr;
  }
  return M;
}

std::unique_ptr<Module>
replayCompileProgram(IRContext &Ctx, const std::string &Name,
                     const std::vector<std::string> &Sources, Tracer *T,
                     LayerCounts &C, std::string &Error) {
  std::vector<std::unique_ptr<Module>> TUs;
  for (size_t I = 0; I < Sources.size(); ++I) {
    std::unique_ptr<Module> M = replayCompileTu(
        Ctx, Name + ".tu" + std::to_string(I), Sources[I], T, C, Error);
    if (!M)
      return nullptr;
    TUs.push_back(std::move(M));
  }
  std::unique_ptr<Module> Linked;
  {
    TraceSpan S(T, "ir.link");
    Linked = linkModules(Ctx, std::move(TUs), Name);
  }
  TraceSpan S(T, "frontend.verify");
  std::vector<std::string> VerifyErrors;
  if (!verifyModule(*Linked, VerifyErrors)) {
    Error = Name + ": internal error after linking: " + VerifyErrors.front();
    return nullptr;
  }
  return Linked;
}

PipelineResult replayPipeline(Module &M, const PipelineOptions &Opts,
                              const FeedbackFile *Train, Tracer *T,
                              LayerCounts &C) {
  PipelineResult R;
  {
    TraceSpan S(T, "analysis.legality");
    R.Legality = analyzeLegality(M, Opts.Legality);
  }
  if (Opts.UseProvenLegality || Opts.Lint) {
    PointsToResult PT;
    {
      TraceSpan S(T, "analysis.pointsto");
      PT = analyzePointsTo(M);
    }
    C.PointsToCells += PT.stats().NumCells;
    if (Opts.Lint) {
      TraceSpan S(T, "analysis.lint");
      R.Lint = runLint(M, &PT, &R.Legality, LintOptions());
      reportLintFindings(R.Lint, R.Diags);
    }
    if (Opts.UseProvenLegality) {
      TraceSpan S(T, "analysis.refine");
      R.Refined = refineLegality(M, R.Legality, PT, &R.Diags,
                                 Opts.Lint ? &R.Lint.Pinnings : nullptr);
    }
  }
  {
    TraceSpan S(T, "analysis.fieldstats");
    SchemeInputs In;
    In.M = &M;
    In.TrainProfile = Train;
    In.UninstrumentedProfile = Train;
    In.Exponent = Opts.IspboExponent;
    R.Stats = computeSchemeFieldStats(Opts.Scheme, In);
  }
  {
    TraceSpan S(T, "transform.plan");
    PlannerOptions Planner = Opts.Planner;
    Planner.HotnessFromProfile = Opts.Scheme == WeightScheme::PBO ||
                                 Opts.Scheme == WeightScheme::PPBO ||
                                 Opts.Scheme == WeightScheme::DMISS ||
                                 Opts.Scheme == WeightScheme::DLAT ||
                                 Opts.Scheme == WeightScheme::DMISS_NO;
    R.Plans = planLayout(M, R.Legality, R.Stats, Planner,
                         Opts.UseProvenLegality ? &R.Refined : nullptr);
  }
  if (!Opts.AnalyzeOnly) {
    TraceSpan S(T, "transform.apply");
    R.Summary = applyPlans(M, R.Plans, R.Legality);
  }
  return R;
}

IncrementalResult replayIncremental(const std::vector<TuSource> &TUs,
                                    const std::string &CacheDir, Tracer *T,
                                    LayerCounts &C) {
  IncrementalResult R;
  SummaryOptions Opts;
  uint64_t OptKey = summaryOptionsKey(Opts);
  SummaryCache Cache(CacheDir);
  std::vector<bool> FromCache(TUs.size(), false);
  R.Summaries.resize(TUs.size());

  auto Compute = [&](size_t I) {
    FromCache[I] = false;
    auto Ctx = std::make_unique<IRContext>();
    std::string Error;
    std::unique_ptr<Module> M =
        replayCompileTu(*Ctx, TUs[I].Name, TUs[I].Source, T, C, Error);
    if (!M) {
      R.Errors.push_back(Error);
      return;
    }
    ModuleSummary &S = R.Summaries[I];
    {
      TraceSpan Span(T, "pipeline.summarize");
      S = computeModuleSummary(*M, Opts);
    }
    S.ModuleName = TUs[I].Name;
    S.SourceHash = sourceHashForTu(TUs[I].Source, OptKey);
    S.OptionsKey = OptKey;
    TraceSpan Span(T, "ir.teardown");
    M.reset();
    Ctx.reset();
  };

  for (size_t I = 0; I < TUs.size(); ++I) {
    ModuleSummary Cached;
    SummaryCache::LoadStatus St;
    {
      TraceSpan S(T, "pipeline.cache_load");
      St = Cache.load(TUs[I].Name, Cached, nullptr);
    }
    ++C.CacheLookups;
    if (St == SummaryCache::LoadStatus::Hit &&
        Cached.ModuleName == TUs[I].Name && Cached.OptionsKey == OptKey &&
        Cached.SourceHash == sourceHashForTu(TUs[I].Source, OptKey)) {
      R.Summaries[I] = std::move(Cached);
      FromCache[I] = true;
      ++C.CacheReused;
      ++R.TusReused;
      continue;
    }
    Compute(I);
    ++R.TusRecomputed;
  }
  if (!R.Errors.empty())
    return R;

  // The schema fixpoint: recompute cached summaries stamped against a
  // different program-wide record schema.
  auto Authoritative = [&] {
    std::map<std::string, uint64_t> A;
    for (const ModuleSummary &S : R.Summaries)
      for (const RecordSchemaSummary &RS : S.Schemas)
        if (RS.Complete && !A.count(RS.Name))
          A[RS.Name] = RS.LocalFingerprint;
    return A;
  };
  std::map<std::string, uint64_t> Auth = Authoritative();
  for (;;) {
    std::vector<size_t> Invalid;
    for (size_t I = 0; I < TUs.size(); ++I) {
      if (!FromCache[I])
        continue;
      for (const RecordSchemaSummary &RS : R.Summaries[I].Schemas) {
        auto It = Auth.find(RS.Name);
        if (RS.ResolvedFingerprint != (It == Auth.end() ? 0 : It->second)) {
          Invalid.push_back(I);
          break;
        }
      }
    }
    if (Invalid.empty())
      break;
    for (size_t I : Invalid) {
      Compute(I);
      --R.TusReused;
      ++R.TusSchemaInvalidated;
    }
    if (!R.Errors.empty())
      return R;
    Auth = Authoritative();
  }

  for (size_t I = 0; I < TUs.size(); ++I) {
    for (RecordSchemaSummary &RS : R.Summaries[I].Schemas) {
      auto It = Auth.find(RS.Name);
      RS.ResolvedFingerprint = It == Auth.end() ? 0 : It->second;
    }
    if (!FromCache[I]) {
      TraceSpan S(T, "pipeline.cache_store");
      Cache.store(R.Summaries[I], nullptr);
    }
  }

  PlannerOptions Planner;
  Planner.HotnessFromProfile = false;
  {
    TraceSpan S(T, "pipeline.merge");
    R.Merged = mergeModuleSummaries(R.Summaries, Planner);
  }
  {
    TraceSpan S(T, "pipeline.render");
    R.AdviceText = renderAdviceText(R.Merged, R.Summaries, Opts.Scheme);
    R.AdviceJson = renderAdviceJson(R.Merged, R.Summaries, Opts.Scheme);
  }
  R.Ok = true;
  return R;
}

bool samePlans(const std::vector<TypePlan> &A, const std::vector<TypePlan> &B) {
  if (A.size() != B.size())
    return false;
  auto Name = [](const TypePlan &P) {
    return P.Rec ? P.Rec->getRecordName() : std::string();
  };
  for (size_t I = 0; I < A.size(); ++I) {
    const TypePlan &X = A[I], &Y = B[I];
    if (Name(X) != Name(Y) || X.Kind != Y.Kind || X.HotFields != Y.HotFields ||
        X.ColdFields != Y.ColdFields || X.PeelGroups != Y.PeelGroups ||
        X.DeadFields != Y.DeadFields || X.UnusedFields != Y.UnusedFields ||
        X.Reason != Y.Reason)
      return false;
  }
  return true;
}

uint64_t countInstructions(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      N += BB->size();
  return N;
}

} // namespace perfbench
