//===- pipeline/Pipeline.cpp - FE -> IPA -> BE driver ---------------------===//

#include "pipeline/Pipeline.h"

#include "analysis/PointsTo.h"
#include "observability/CounterRegistry.h"
#include "observability/Tracer.h"

using namespace slo;

namespace {

void publishPipelineCounters(CounterRegistry &C, const PipelineResult &R,
                             const PointsToStats *PT) {
  C.add("pipeline.types_analyzed",
        static_cast<uint64_t>(R.Legality.types().size()));
  C.add("pipeline.plans", static_cast<uint64_t>(R.Plans.size()));
  uint64_t Planned = 0;
  for (const TypePlan &P : R.Plans)
    Planned += P.Kind != TransformKind::None;
  C.add("planner.types_planned", Planned);
  C.add("transform.types_transformed", R.Summary.TypesTransformed);
  C.add("transform.fields_split_or_dead", R.Summary.FieldsSplitOrDead);
  C.add("diag.count", static_cast<uint64_t>(R.Diags.all().size()));
  if (PT) {
    C.add("pointsto.value_nodes", PT->NumValueNodes);
    C.add("pointsto.objects", PT->NumObjects);
    C.add("pointsto.cells", PT->NumCells);
    C.add("pointsto.copy_edges", PT->NumCopyEdges);
    C.add("pointsto.complex_constraints", PT->NumComplexConstraints);
    C.add("pointsto.solver_passes", PT->SolverPasses);
    C.add("pointsto.nodes_collapsed", PT->NodesCollapsed);
  }
}

} // namespace

PipelineResult slo::runStructLayoutPipeline(Module &M,
                                            const PipelineOptions &Opts,
                                            const FeedbackFile *Train,
                                            const FeedbackFile *Ref) {
  PipelineResult R;
  TraceSpan Whole(Opts.Trace, "pipeline", "phase");
  PointsToStats PTStats;
  bool HavePT = false;

  // FE phase: single-pass legality tests and attribute collection,
  // refined by the points-to analysis into per-site proofs.
  {
    TraceSpan S(Opts.Trace, "FE/legality", "phase");
    R.Legality = analyzeLegality(M, Opts.Legality);
  }
  if (Opts.UseProvenLegality || Opts.Lint) {
    PointsToResult PT;
    {
      TraceSpan S(Opts.Trace, "FE/points-to", "phase");
      PT = analyzePointsTo(M);
    }
    PTStats = PT.stats();
    HavePT = true;
    if (Opts.Lint) {
      LintOptions LO;
      LO.Trace = Opts.Trace;
      LO.Counters = Opts.Counters;
      R.Lint = runLint(M, &PT, &R.Legality, LO);
      reportLintFindings(R.Lint, R.Diags);
    }
    if (Opts.UseProvenLegality) {
      TraceSpan S(Opts.Trace, "FE/refine-legality", "phase");
      R.Refined = refineLegality(M, R.Legality, PT, &R.Diags,
                                 Opts.Lint ? &R.Lint.Pinnings : nullptr);
    }
  }

  // IPA phase: profitability analysis under the selected weighting.
  {
    TraceSpan S(Opts.Trace, "IPA/field-stats", "phase");
    SchemeInputs In;
    In.M = &M;
    In.TrainProfile = Train;
    In.RefProfile = Ref;
    In.UninstrumentedProfile = Train;
    In.Exponent = Opts.IspboExponent;
    R.Stats = computeSchemeFieldStats(Opts.Scheme, In);
  }

  // Heuristics: the threshold T_s depends on whether hotness came from a
  // profile (3%) or static estimation (7.5%).
  {
    TraceSpan S(Opts.Trace, "IPA/plan", "phase");
    PlannerOptions Planner = Opts.Planner;
    Planner.HotnessFromProfile = Opts.Scheme == WeightScheme::PBO ||
                                 Opts.Scheme == WeightScheme::PPBO ||
                                 Opts.Scheme == WeightScheme::DMISS ||
                                 Opts.Scheme == WeightScheme::DLAT ||
                                 Opts.Scheme == WeightScheme::DMISS_NO;
    R.Plans = planLayout(M, R.Legality, R.Stats, Planner,
                         Opts.UseProvenLegality ? &R.Refined : nullptr);
    for (RecordType *Rec : R.Legality.types())
      if (Rec->isOpaque())
        R.Diags
            .report(DiagSeverity::Note, "opaque",
                    "type has no body in this program; not planned")
            .RecordName = Rec->getRecordName();
  }

  // BE phase.
  if (!Opts.AnalyzeOnly) {
    TraceSpan S(Opts.Trace, "BE/apply-plans", "phase");
    R.Summary = applyPlans(M, R.Plans, R.Legality);
  }

  if (Opts.Counters)
    publishPipelineCounters(*Opts.Counters, R, HavePT ? &PTStats : nullptr);
  return R;
}
