//===- transform/StructSplit.h - Structure splitting -----------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structure splitting (paper §2.1, Figure 1b): breaks a record into a
/// hot part and a cold part and inserts a link pointer so that every
/// part remains addressable from a pointer to the root part. Dead field
/// removal and field reordering are wrapped into this transformation,
/// exactly as in the paper: only live fields move into the new records,
/// and the hot part is emitted in the plan's (hotness-sorted) order.
///
/// Allocation sites grow a second allocation for the cold array plus a
/// link-pointer initialization loop; free sites free the cold array
/// through element 0's link before freeing the hot array. Both pieces of
/// runtime overhead are real in the simulator, which is how the paper's
/// observation that "the cost for loops accessing cold fields via link
/// pointers grows disproportionately" reproduces.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_TRANSFORM_STRUCTSPLIT_H
#define SLO_TRANSFORM_STRUCTSPLIT_H

#include "analysis/Legality.h"
#include "transform/Plan.h"
#include "transform/RewriteUtils.h"

namespace slo {

/// Outcome of one split.
struct SplitResult {
  /// The record that replaced the original (holds hot fields + link).
  RecordType *HotRec = nullptr;
  /// The cold record, or null when nothing was split out.
  RecordType *ColdRec = nullptr;
  /// Index of the link-pointer field within HotRec (meaningful only when
  /// ColdRec is non-null).
  unsigned LinkFieldIndex = 0;
  /// Old-field-index -> (record, new index). Dead/unused fields are
  /// absent.
  std::map<unsigned, std::pair<RecordType *, unsigned>> FieldMap;
  /// The functions the split may have changed, in module order.
  TouchedFunctions Touched;
};

/// Applies a Split plan to \p M. \p Legal must be the legality info of
/// the SAME module (its alloc-site records are used to rewrite the
/// allocations). Verifying the result is the caller's job: applyPlans
/// verifies Touched after each plan.
SplitResult applyStructSplit(Module &M, const TypePlan &Plan,
                             const TypeLegality &Legal);

} // namespace slo

#endif // SLO_TRANSFORM_STRUCTSPLIT_H
