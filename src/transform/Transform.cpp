//===- transform/Transform.cpp - BE transformation driver -----------------===//

#include "transform/Transform.h"

#include "ir/Verifier.h"
#include "support/Diagnostics.h"
#include "support/Error.h"
#include "support/Format.h"

using namespace slo;

/// Verifies the functions one plan touched; aborts naming the plan.
static void verifyPlanOrDie(const AppliedTransform &Applied) {
  DiagnosticEngine Diags;
  for (const Function *F : Applied.touched()) {
    if (verifyFunction(*F, Diags))
      continue;
    const Diagnostic &D = Diags.all().front();
    reportFatalError(formatString(
        "verification failed after %s of '%s': function '%s': %s",
        Applied.Plan.Kind == TransformKind::Peel ? "peel" : "split",
        Applied.Plan.Rec->getRecordName().c_str(), D.Function.c_str(),
        D.Message.c_str()));
  }
}

TransformSummary slo::applyPlans(Module &M,
                                 const std::vector<TypePlan> &Plans,
                                 const LegalityResult &Legal) {
  return applyPlans(M, Plans, Legal, nullptr);
}

TransformSummary slo::applyPlans(Module &M,
                                 const std::vector<TypePlan> &Plans,
                                 const LegalityResult &Legal,
                                 const PlanRewriteHook &AfterRewrite) {
  TransformSummary Summary;

  // Peels first, splits second; the sets of affected types are disjoint
  // by construction (one plan per type), so the order only affects block
  // layout.
  for (int Phase = 0; Phase < 2; ++Phase) {
    for (const TypePlan &Plan : Plans) {
      bool IsPeel = Plan.Kind == TransformKind::Peel;
      if (Plan.isNoop() || (Phase == 0) != IsPeel)
        continue;
      AppliedTransform Applied;
      Applied.Plan = Plan;
      if (IsPeel) {
        PeelabilityInfo Info =
            analyzePeelability(M, Plan.Rec, Legal.get(Plan.Rec));
        if (!Info.Peelable) {
          Summary.Log.push_back("skipped peel of '" +
                                Plan.Rec->getRecordName() +
                                "': " + Info.Reason);
          continue;
        }
        Applied.Peel = applyStructPeel(M, Plan, Info);
        Summary.Log.push_back(formatString(
            "peeled '%s' into %u arrays (%u dead/unused fields removed)",
            Plan.Rec->getRecordName().c_str(),
            static_cast<unsigned>(Applied.Peel.GroupRecs.size()),
            static_cast<unsigned>(Plan.DeadFields.size() +
                                  Plan.UnusedFields.size())));
      } else {
        Applied.Split = applyStructSplit(M, Plan, Legal.get(Plan.Rec));
        Summary.Log.push_back(formatString(
            "split '%s': %u hot, %u cold, %u dead/unused",
            Plan.Rec->getRecordName().c_str(),
            static_cast<unsigned>(Plan.HotFields.size()),
            static_cast<unsigned>(Plan.ColdFields.size()),
            static_cast<unsigned>(Plan.DeadFields.size() +
                                  Plan.UnusedFields.size())));
      }
      if (AfterRewrite)
        AfterRewrite(M, Applied);
      verifyPlanOrDie(Applied);
      ++Summary.TypesTransformed;
      Summary.FieldsSplitOrDead += Plan.splitOrDeadCount();
      Summary.Applied.push_back(std::move(Applied));
    }
  }
  // The per-plan checks cover what each plan touched; one full verify
  // backs them up against a touched set that missed a function.
  if (Summary.TypesTransformed)
    verifyModuleOrDie(M);
  return Summary;
}
