//===- analysis/WeightSchemes.cpp - The paper's weighting schemes ---------===//

#include "analysis/WeightSchemes.h"

#include "support/Error.h"

using namespace slo;

const char *slo::weightSchemeName(WeightScheme S) {
  switch (S) {
  case WeightScheme::PBO:
    return "PBO";
  case WeightScheme::PPBO:
    return "PPBO";
  case WeightScheme::SPBO:
    return "SPBO";
  case WeightScheme::ISPBO:
    return "ISPBO";
  case WeightScheme::ISPBO_NO:
    return "ISPBO.NO";
  case WeightScheme::ISPBO_W:
    return "ISPBO.W";
  case WeightScheme::DMISS:
    return "DMISS";
  case WeightScheme::DLAT:
    return "DLAT";
  case WeightScheme::DMISS_NO:
    return "DMISS.NO";
  }
  return "?";
}

static const FeedbackFile &requireProfile(const FeedbackFile *FB,
                                          const char *Scheme) {
  if (!FB)
    reportFatalError(std::string("weighting scheme ") + Scheme +
                     " requires a profile that was not provided");
  return *FB;
}

/// Replaces the hotness vectors with d-cache derived values.
static void overlayCacheHotness(FieldStatsResult &Stats,
                                const FeedbackFile &FB, bool UseLatency) {
  for (RecordType *R : Stats.types()) {
    TypeFieldStats &S = Stats.getOrCreate(R);
    for (unsigned I = 0; I < R->getNumFields(); ++I) {
      const FieldCacheStats *C = FB.getFieldStats(R, I);
      if (!C) {
        S.Hotness[I] = 0.0;
        continue;
      }
      S.Hotness[I] = UseLatency ? C->TotalLatency
                                : static_cast<double>(C->Misses);
    }
  }
}

FieldStatsResult slo::computeSchemeFieldStats(WeightScheme Scheme,
                                              const SchemeInputs &Inputs) {
  const Module &M = *Inputs.M;
  switch (Scheme) {
  case WeightScheme::PBO: {
    ProfileWeightSource WS(requireProfile(Inputs.TrainProfile, "PBO"));
    return computeFieldStats(M, WS, ModuleLoops(M));
  }
  case WeightScheme::PPBO: {
    ProfileWeightSource WS(requireProfile(Inputs.RefProfile, "PPBO"));
    return computeFieldStats(M, WS, ModuleLoops(M));
  }
  case WeightScheme::SPBO: {
    StaticEstimator SE(M);
    LocalStaticWeightSource WS(SE);
    return computeFieldStats(M, WS, SE.loops());
  }
  case WeightScheme::ISPBO: {
    StaticEstimator SE(M);
    CallGraph CG(M);
    InterProcOptions Opts;
    Opts.Exponent = Inputs.Exponent;
    Opts.ApplyExponent = true;
    Opts.SeedUncalledDefinitions = Inputs.SeedUncalledDefinitions;
    InterProcFrequencies IPF(SE, CG, Opts);
    InterProcWeightSource WS(IPF);
    return computeFieldStats(M, WS, SE.loops());
  }
  case WeightScheme::ISPBO_NO: {
    StaticEstimator SE(M);
    CallGraph CG(M);
    InterProcOptions Opts;
    Opts.ApplyExponent = false;
    Opts.SeedUncalledDefinitions = Inputs.SeedUncalledDefinitions;
    InterProcFrequencies IPF(SE, CG, Opts);
    InterProcWeightSource WS(IPF);
    return computeFieldStats(M, WS, SE.loops());
  }
  case WeightScheme::ISPBO_W: {
    // Raised back-edge probabilities replace the exponent.
    StaticEstimator SE(M, BranchProbOptions::ispboW());
    CallGraph CG(M);
    InterProcOptions Opts;
    Opts.ApplyExponent = false;
    Opts.SeedUncalledDefinitions = Inputs.SeedUncalledDefinitions;
    InterProcFrequencies IPF(SE, CG, Opts);
    InterProcWeightSource WS(IPF);
    return computeFieldStats(M, WS, SE.loops());
  }
  case WeightScheme::DMISS:
  case WeightScheme::DLAT: {
    const FeedbackFile &FB =
        requireProfile(Inputs.TrainProfile, weightSchemeName(Scheme));
    ProfileWeightSource WS(FB);
    FieldStatsResult Stats = computeFieldStats(M, WS, ModuleLoops(M));
    overlayCacheHotness(Stats, FB, Scheme == WeightScheme::DLAT);
    return Stats;
  }
  case WeightScheme::DMISS_NO: {
    const FeedbackFile &FB =
        requireProfile(Inputs.UninstrumentedProfile, "DMISS.NO");
    ProfileWeightSource WS(FB);
    FieldStatsResult Stats = computeFieldStats(M, WS, ModuleLoops(M));
    overlayCacheHotness(Stats, FB, /*UseLatency=*/false);
    return Stats;
  }
  }
  SLO_UNREACHABLE("unknown weighting scheme");
}
