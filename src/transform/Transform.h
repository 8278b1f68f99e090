//===- transform/Transform.h - BE transformation driver --------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The back-end phase: applies the IPA-decided plans to the module
/// ("the actual transformations are performed in the BE", paper §2).
///
//===----------------------------------------------------------------------===//

#ifndef SLO_TRANSFORM_TRANSFORM_H
#define SLO_TRANSFORM_TRANSFORM_H

#include "analysis/Legality.h"
#include "transform/Plan.h"
#include "transform/StructPeel.h"
#include "transform/StructSplit.h"

#include <functional>
#include <string>
#include <vector>

namespace slo {

/// What happened to one type.
struct AppliedTransform {
  TypePlan Plan;
  SplitResult Split; // Valid when Plan.Kind == Split.
  PeelResult Peel;   // Valid when Plan.Kind == Peel.

  /// The functions this plan's rewrite may have changed.
  const TouchedFunctions &touched() const {
    return Plan.Kind == TransformKind::Peel ? Peel.Touched : Split.Touched;
  }
};

/// Aggregate outcome of the BE phase.
struct TransformSummary {
  /// Number of types actually rewritten (Table 3 "Tt" column).
  unsigned TypesTransformed = 0;
  /// Total split-out plus dead/unused fields (Table 3 "S/D" column).
  unsigned FieldsSplitOrDead = 0;
  std::vector<AppliedTransform> Applied;
  /// Per-type one-line log, for the harnesses.
  std::vector<std::string> Log;
};

/// Applies every non-noop plan to \p M. \p Legal must have been computed
/// on the same (pre-transformation) module. After each plan it verifies
/// the functions that plan touched, so a bad rewrite aborts naming its
/// plan; after the last plan it verifies the whole module once.
TransformSummary applyPlans(Module &M, const std::vector<TypePlan> &Plans,
                            const LegalityResult &Legal);

/// Runs between one plan's rewrite and its verification.
using PlanRewriteHook =
    std::function<void(Module &, const AppliedTransform &)>;

/// applyPlans with \p AfterRewrite called after each plan's rewrite. The
/// tests use it to watch (or deliberately break) individual plans.
TransformSummary applyPlans(Module &M, const std::vector<TypePlan> &Plans,
                            const LegalityResult &Legal,
                            const PlanRewriteHook &AfterRewrite);

} // namespace slo

#endif // SLO_TRANSFORM_TRANSFORM_H
