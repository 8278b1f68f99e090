//===- transform/LayoutPlanner.cpp - The paper's heuristics ---------------===//

#include "transform/LayoutPlanner.h"

#include "transform/StructPeel.h"

#include <algorithm>

using namespace slo;

const char *slo::transformKindName(TransformKind K) {
  switch (K) {
  case TransformKind::None:
    return "None";
  case TransformKind::Split:
    return "Splitting";
  case TransformKind::Peel:
    return "Peeling";
  }
  return "?";
}

namespace {

/// Classifies the fields of one type into live/dead/unused.
struct FieldClasses {
  std::vector<unsigned> Live;
  std::vector<unsigned> Dead;   // Stores but no loads.
  std::vector<unsigned> Unused; // No references at all.
};

FieldClasses classifyFields(const PlannerTypeInput &In, bool RemoveDead) {
  FieldClasses C;
  for (unsigned I = 0; I < In.NumFields; ++I) {
    bool HasReads = In.Reads[I] > 0.0;
    bool HasWrites = In.Writes[I] > 0.0;
    if (!RemoveDead || (In.ForceLive && In.ForceLive->count(I))) {
      // A field whose address was taken (and discharged) may be read
      // through stored pointers the access stats cannot see; removing it
      // as dead would be wrong.
      C.Live.push_back(I);
    } else if (!HasReads && !HasWrites) {
      C.Unused.push_back(I);
    } else if (!HasReads && HasWrites) {
      C.Dead.push_back(I);
    } else {
      C.Live.push_back(I);
    }
  }
  return C;
}

/// Stable sort by decreasing hotness: the reordering applied to the new
/// records ("field reordering is currently only performed in the context
/// of structure splitting").
void sortByHotnessDescending(std::vector<unsigned> &Fields,
                             const std::vector<double> &Hotness) {
  std::stable_sort(Fields.begin(), Fields.end(),
                   [&Hotness](unsigned A, unsigned B) {
                     return Hotness[A] > Hotness[B];
                   });
}

/// Per-field hotness as a percentage of the hottest field
/// (TypeFieldStats::relativeHotness, replicated on the IR-free vector).
std::vector<double> relativeHotness(const std::vector<double> &Hotness) {
  double Max = 0.0;
  for (double H : Hotness)
    Max = std::max(Max, H);
  std::vector<double> Out(Hotness.size(), 0.0);
  if (Max <= 0.0)
    return Out;
  for (size_t I = 0; I < Hotness.size(); ++I)
    Out[I] = 100.0 * Hotness[I] / Max;
  return Out;
}

} // namespace

PlanDecision slo::decideTypePlan(const PlannerTypeInput &In,
                                 const PlannerOptions &Opts) {
  PlanDecision Plan;
  Plan.Kind = TransformKind::None;

  if (!In.StrictLegal && !In.Proven) {
    Plan.Reason = "illegal: " + violationMaskToString(In.Violations);
    return Plan;
  }
  if (!In.DynamicallyAllocated) {
    Plan.Reason = "not dynamically allocated";
    return Plan;
  }
  if (In.Reallocated) {
    Plan.Reason = "type is realloc'd";
    return Plan;
  }
  if (In.HasAggregateInstance) {
    Plan.Reason = "aggregate (non-heap) instances exist";
    return Plan;
  }
  if (!In.HaveStats) {
    Plan.Reason = "no field statistics";
    return Plan;
  }

  FieldClasses C = classifyFields(In, Opts.EnableDeadFieldRemoval);

  // Peeling is always performed when possible (paper §2.4). The peeling
  // rewrite changes the allocation shape wholesale, so it is reserved
  // for types legal under the blanket tests, not merely proven.
  if (Opts.EnablePeeling && In.StrictLegal && In.Peelable &&
      C.Live.size() >= 1) {
    Plan.Kind = TransformKind::Peel;
    Plan.DeadFields = C.Dead;
    Plan.UnusedFields = C.Unused;
    // One field per group, like the paper's 179.art example.
    for (unsigned I : C.Live)
      Plan.PeelGroups.push_back({I});
    Plan.Reason = "peeled into " + std::to_string(Plan.PeelGroups.size()) +
                  " per-field arrays";
    return Plan;
  }

  if (!Opts.EnableSplitting) {
    Plan.Reason = "splitting disabled";
    return Plan;
  }

  // Splitting: cold fields are live fields under the hotness threshold.
  std::vector<double> Rel = relativeHotness(In.Hotness);
  std::vector<unsigned> Hot, Cold;
  for (unsigned I : C.Live) {
    if (Rel[I] < Opts.splitThreshold())
      Cold.push_back(I);
    else
      Hot.push_back(I);
  }
  if (Hot.empty()) {
    // Everything cold (type never referenced in a hot context): no
    // split. Dead/unused-field removal still applies — it is static
    // advice, independent of hotness, so a sampled profile that never
    // caught this type in a miss sample must yield the same cleanup
    // an exact profile does.
    if (!C.Live.empty() && (!C.Dead.empty() || !C.Unused.empty())) {
      Plan.Kind = TransformKind::Split;
      Plan.HotFields = C.Live; // All live fields stay.
      Plan.DeadFields = C.Dead;
      Plan.UnusedFields = C.Unused;
      sortByHotnessDescending(Plan.HotFields, In.Hotness);
      Plan.Reason = "dead field removal only (no hot fields)";
      return Plan;
    }
    Plan.Reason = "no hot fields";
    return Plan;
  }
  if (Cold.size() < Opts.MinColdFields) {
    // Not enough cold fields to pay for the link pointer. Dead-field
    // removal (with reordering) may still be worthwhile.
    if (!C.Dead.empty() || !C.Unused.empty()) {
      Plan.Kind = TransformKind::Split;
      Plan.HotFields = C.Live; // All live fields stay.
      Plan.DeadFields = C.Dead;
      Plan.UnusedFields = C.Unused;
      sortByHotnessDescending(Plan.HotFields, In.Hotness);
      Plan.Reason = "dead field removal only";
      return Plan;
    }
    Plan.Reason = "fewer than " + std::to_string(Opts.MinColdFields) +
                  " cold fields (T_s=" +
                  std::to_string(Opts.splitThreshold()) + "%)";
    return Plan;
  }

  Plan.Kind = TransformKind::Split;
  Plan.HotFields = Hot;
  Plan.ColdFields = Cold;
  Plan.DeadFields = C.Dead;
  Plan.UnusedFields = C.Unused;
  // Field reordering in the context of splitting: hottest first.
  sortByHotnessDescending(Plan.HotFields, In.Hotness);
  sortByHotnessDescending(Plan.ColdFields, In.Hotness);
  Plan.Reason =
      "split: " + std::to_string(Cold.size()) + " cold fields below T_s";
  return Plan;
}

std::vector<TypePlan> slo::planLayout(const Module &M,
                                      const LegalityResult &Legal,
                                      const FieldStatsResult &Stats,
                                      const PlannerOptions &Opts,
                                      const RefinementResult *Refine) {
  std::vector<TypePlan> Plans;
  for (RecordType *Rec : Legal.types()) {
    // A record this program only names through pointers has no layout
    // to plan.
    if (Rec->isOpaque())
      continue;
    const TypeLegality &L = Legal.get(Rec);
    const TypeFieldStats *S = Stats.get(Rec);
    const TypeRefinement *TR = Refine ? Refine->get(Rec) : nullptr;

    PlannerTypeInput In;
    In.NumFields = Rec->getNumFields();
    In.StrictLegal = L.isLegal(/*Relax=*/false);
    In.Proven = TR && TR->ProvenLegal && TR->TransformSafe;
    In.Violations = L.Violations;
    In.DynamicallyAllocated = L.Attrs.DynamicallyAllocated;
    In.Reallocated = L.Attrs.Reallocated;
    In.HasAggregateInstance =
        L.Attrs.HasGlobalVar || L.Attrs.HasLocalVar || L.Attrs.HasStaticArray;
    if (S) {
      In.HaveStats = true;
      In.Reads = S->Reads;
      In.Writes = S->Writes;
      In.Hotness = S->Hotness;
    }
    In.ForceLive = TR && !TR->AddressTakenLiveFields.empty()
                       ? &TR->AddressTakenLiveFields
                       : nullptr;
    // The structural peelability walk is only consulted for types that
    // survive the cheap gates, so only those pay for it.
    if (Opts.EnablePeeling && In.StrictLegal && In.HaveStats &&
        In.DynamicallyAllocated && !In.Reallocated && !In.HasAggregateInstance)
      In.Peelable = analyzePeelability(M, Rec, L).Peelable;

    PlanDecision D = decideTypePlan(In, Opts);
    TypePlan Plan;
    Plan.Rec = Rec;
    Plan.Kind = D.Kind;
    Plan.HotFields = std::move(D.HotFields);
    Plan.ColdFields = std::move(D.ColdFields);
    Plan.PeelGroups = std::move(D.PeelGroups);
    Plan.DeadFields = std::move(D.DeadFields);
    Plan.UnusedFields = std::move(D.UnusedFields);
    Plan.Reason = std::move(D.Reason);
    Plans.push_back(std::move(Plan));
  }
  return Plans;
}
