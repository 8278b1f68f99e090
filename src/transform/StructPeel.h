//===- transform/StructPeel.h - Structure peeling --------------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structure peeling (paper §2.1, Figure 1c): splitting without link
/// pointers. The paper's motivating case is 179.art: one dynamically
/// allocated array of structures whose result lives in a single global
/// pointer P and no other variables of the type exist. The type breaks
/// into one record per field (or per plan group), the allocation becomes
/// one allocation per piece, fresh global pointers Pi are created, and
/// every access P[i].f becomes Pf[i].
///
/// Peelability is a stronger condition than legality; analyzePeelability
/// checks the paper's conditions structurally:
///   - a single allocation site whose result is stored to exactly one
///     global pointer of the type, and that is the only store to it,
///   - no other variables/pointers of the type anywhere (no locals, no
///     other globals, no record fields of the type, no call arguments),
///   - every use of the global's loads is an IndexAddr/FieldAddr chain
///     ending in loads/stores, a null comparison, or a free.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_TRANSFORM_STRUCTPEEL_H
#define SLO_TRANSFORM_STRUCTPEEL_H

#include "analysis/Legality.h"
#include "transform/Plan.h"
#include "transform/RewriteUtils.h"

namespace slo {

/// Verdict of the peelability check.
struct PeelabilityInfo {
  bool Peelable = false;
  std::string Reason; // Why not, when !Peelable.
  GlobalVariable *PeelGlobal = nullptr;
  AllocSiteInfo Site;
};

/// Checks whether \p Rec satisfies the peeling conditions in \p M.
PeelabilityInfo analyzePeelability(const Module &M, RecordType *Rec,
                                   const TypeLegality &Legal);

/// Outcome of one peel.
struct PeelResult {
  /// Per plan group: the new single-group record and its global pointer.
  std::vector<RecordType *> GroupRecs;
  std::vector<GlobalVariable *> GroupGlobals;
  /// Old field index -> (group number, index within group record).
  std::map<unsigned, std::pair<unsigned, unsigned>> FieldMap;
  /// The functions the peel may have changed, in module order.
  TouchedFunctions Touched;
};

/// Applies a Peel plan. \p Info must come from analyzePeelability on the
/// same module. Verifying the result is the caller's job: applyPlans
/// verifies Touched after each plan.
PeelResult applyStructPeel(Module &M, const TypePlan &Plan,
                           const PeelabilityInfo &Info);

} // namespace slo

#endif // SLO_TRANSFORM_STRUCTPEEL_H
