//===- transform/RewriteUtils.h - Shared rewriting helpers -----*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IR surgery shared by the splitting and peeling transformations:
/// one-walk substitution of one record for another (retyping plus tagged
/// sizeof constant rewriting), the set of functions a rewrite touched,
/// and block splitting for the link-pointer initialization loops.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_TRANSFORM_REWRITEUTILS_H
#define SLO_TRANSFORM_REWRITEUTILS_H

#include "ir/Instructions.h"
#include "ir/Module.h"

#include <unordered_set>
#include <vector>

namespace slo {

/// Recursively rewrites \p Ty, substituting \p From with \p To under
/// pointers, arrays, and function types. Returns \p Ty unchanged when
/// \p From does not occur.
Type *remapType(TypeContext &Types, Type *Ty, RecordType *From,
                RecordType *To);

/// The functions one rewrite may have changed, in module order. A plan
/// verifies exactly these before the next plan runs.
using TouchedFunctions = std::vector<Function *>;

/// Collects a TouchedFunctions set without duplicates.
class TouchedSet {
public:
  void insert(Function *F) {
    if (F)
      Members.insert(F);
  }
  bool contains(const Function *F) const { return Members.count(F) != 0; }
  /// The members in \p M's function order.
  TouchedFunctions inModuleOrder(const Module &M) const;

private:
  std::unordered_set<const Function *> Members;
};

/// Substitutes record \p From with \p To across \p M in one walk. It
/// retypes globals, function signatures, arguments, allocas, instruction
/// results and null-pointer constant operands, and replaces every
/// attributed constant sizeof(From) with sizeof(To) (the paper's
/// attributed-constant answer to the sizeof problem, §2.2). FieldAddr
/// instructions keep their record and index; the walk appends those on
/// \p From to \p FieldAccesses for the caller to rewrite.
///
/// Every function the walk changed, every function holding a FieldAddr
/// on \p From, and every function that uses a retyped global or calls or
/// uses a retyped function is added to \p Touched.
void substituteRecord(Module &M, RecordType *From, RecordType *To,
                      std::vector<FieldAddrInst *> &FieldAccesses,
                      TouchedSet &Touched);

/// Splits \p BB after \p Pos: instructions following \p Pos (including
/// the terminator) move into a new block inserted after \p BB, and \p BB
/// is NOT given a terminator (the caller wires up the control flow).
/// Returns the new tail block.
BasicBlock *splitBlockAfter(BasicBlock *BB, Instruction *Pos,
                            const std::string &TailName);

} // namespace slo

#endif // SLO_TRANSFORM_REWRITEUTILS_H
