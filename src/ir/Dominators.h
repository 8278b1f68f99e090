//===- ir/Dominators.h - Dominator tree ------------------------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree via the Cooper-Harvey-Kennedy iterative algorithm, plus
/// the CFG predecessor lists and reverse post-order every other analysis
/// wants. It lives in the IR layer so the Verifier can check
/// def-dominates-use with it.
///
/// Storage is dense: everything is indexed by BasicBlock::getNumber() or
/// by RPO position, so the function's blocks must be numbered 0..N-1 in
/// layout order (Function keeps them so). dominates() is O(1): each
/// reachable block owns the interval [Pre, Pre + Size) of a pre-order
/// numbering of the dominator tree, and A dominates B exactly when B's
/// pre-order number falls in A's interval.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_IR_DOMINATORS_H
#define SLO_IR_DOMINATORS_H

#include "ir/Function.h"

#include <vector>

namespace slo {

/// Dominator information for one function.
class DominatorTree {
public:
  explicit DominatorTree(const Function &F);

  /// The immediate dominator, or nullptr for the entry block and
  /// unreachable blocks.
  const BasicBlock *getIdom(const BasicBlock *BB) const;

  /// Returns true if \p A dominates \p B (reflexive). Unreachable blocks
  /// dominate nothing and are dominated by nothing.
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

  bool isReachable(const BasicBlock *BB) const {
    return RpoIndex[BB->getNumber()] != Unreachable;
  }

  /// Reachable blocks in reverse post-order (entry first).
  const std::vector<const BasicBlock *> &reversePostOrder() const {
    return Rpo;
  }

  /// CFG predecessors of \p BB that are reachable from the entry, in
  /// layout order (empty for unreachable blocks).
  const std::vector<const BasicBlock *> &
  predecessors(const BasicBlock *BB) const {
    return Preds[BB->getNumber()];
  }

private:
  static constexpr unsigned Unreachable = ~0u;

  std::vector<const BasicBlock *> Rpo;
  /// By block number: RPO position, or Unreachable.
  std::vector<unsigned> RpoIndex;
  /// By block number.
  std::vector<std::vector<const BasicBlock *>> Preds;
  /// By RPO position: the idom's RPO position (the entry is its own),
  /// the dominator-tree pre-order number and the subtree size.
  std::vector<unsigned> Idom, Pre, Size;
};

} // namespace slo

#endif // SLO_IR_DOMINATORS_H
