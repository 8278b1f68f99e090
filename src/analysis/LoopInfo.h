//===- analysis/LoopInfo.h - Natural loop detection ------------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop nesting forest built from dominator-identified back edges. The
/// paper's loop recognition is Havlak-based (handles irreducible CFGs);
/// MiniC's structured control flow only produces reducible CFGs, so
/// natural loops are exact here (documented deviation, DESIGN.md §5).
///
/// The profitability analysis uses loops as its granularity for field
/// affinity: "two fields are affine when they are accessed close to each
/// other, for example in the same loop" (paper §2.3).
///
//===----------------------------------------------------------------------===//

#ifndef SLO_ANALYSIS_LOOPINFO_H
#define SLO_ANALYSIS_LOOPINFO_H

#include "ir/Dominators.h"

#include <memory>
#include <vector>

namespace slo {

/// One natural loop.
class Loop {
public:
  const BasicBlock *getHeader() const { return Header; }
  Loop *getParent() const { return Parent; }
  const std::vector<Loop *> &subLoops() const { return SubLoops; }
  /// All blocks of the loop including nested loop bodies, in block-number
  /// order.
  const std::vector<const BasicBlock *> &blocks() const { return Blocks; }
  /// Sources of the back edges into the header.
  const std::vector<const BasicBlock *> &latches() const { return Latches; }
  /// 1 for top-level loops, increasing inward.
  unsigned getDepth() const { return Depth; }
  /// Position in LoopInfo::loops(): a dense, deterministic loop id.
  unsigned getIndex() const { return Index; }

  bool contains(const BasicBlock *BB) const;
  bool contains(const Loop *L) const;

private:
  friend class LoopInfo;
  const BasicBlock *Header = nullptr;
  Loop *Parent = nullptr;
  std::vector<Loop *> SubLoops;
  std::vector<const BasicBlock *> Blocks;
  std::vector<const BasicBlock *> Latches;
  unsigned Depth = 1;
  unsigned Index = 0;
};

/// The loop nesting forest of one function.
class LoopInfo {
public:
  LoopInfo(const Function &F, const DominatorTree &DT);

  /// The innermost loop containing \p BB, or nullptr.
  Loop *getLoopFor(const BasicBlock *BB) const {
    return InnermostLoop[BB->getNumber()];
  }

  /// All loops ordered by (depth, header block number), so outer loops
  /// come first; use loopsInnermostFirst() for the reverse.
  const std::vector<std::unique_ptr<Loop>> &loops() const { return Loops; }

  std::vector<Loop *> topLevel() const;
  std::vector<Loop *> loopsInnermostFirst() const;

  /// The loop nesting depth of \p BB (0 when not in any loop).
  unsigned getDepth(const BasicBlock *BB) const {
    Loop *L = getLoopFor(BB);
    return L ? L->getDepth() : 0;
  }

  /// Returns true if From->To is a back edge (To is a loop header that
  /// dominates From).
  bool isBackEdge(const BasicBlock *From, const BasicBlock *To) const;

private:
  std::vector<std::unique_ptr<Loop>> Loops;
  /// By block number.
  std::vector<Loop *> InnermostLoop;
};

} // namespace slo

#endif // SLO_ANALYSIS_LOOPINFO_H
