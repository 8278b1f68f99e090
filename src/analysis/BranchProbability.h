//===- analysis/BranchProbability.h - Static branch estimation -*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static branch probabilities in the spirit of Wu & Larus, "Static branch
/// frequency and program profile analysis" (MICRO-27), the paper's
/// reference [22] for non-profile compilations. The paper's defaults:
/// loop back edges ~0.88 (0.93 for floating point loops), if-then-else
/// 50/50. The ISPBO.W experiment raises the back edge probabilities to
/// 0.95 / 0.98, which is exposed here as options.
///
/// Simplification vs Wu-Larus: instead of Dempster-Shafer evidence
/// combination, the first matching heuristic wins, in the order loop >
/// pointer > opcode > return (documented deviation).
///
//===----------------------------------------------------------------------===//

#ifndef SLO_ANALYSIS_BRANCHPROBABILITY_H
#define SLO_ANALYSIS_BRANCHPROBABILITY_H

#include "analysis/LoopInfo.h"

namespace slo {

struct BranchProbOptions {
  /// Probability that an integer loop's back edge is taken.
  double IntLoopBackEdge = 0.88;
  /// Probability that a floating-point loop's back edge is taken.
  double FpLoopBackEdge = 0.93;
  /// Probability of the not-equal outcome for pointer comparisons.
  double PointerNotEqual = 0.70;
  /// Probability that "x < 0"-style comparisons are false.
  double OpcodeNegativeFalse = 0.66;
  /// Probability of branching away from a returning block.
  double AvoidReturn = 0.72;

  /// The paper's ISPBO.W variant: back-edge probabilities raised to
  /// 0.95 (integer) and 0.98 (floating point).
  static BranchProbOptions ispboW() {
    BranchProbOptions O;
    O.IntLoopBackEdge = 0.95;
    O.FpLoopBackEdge = 0.98;
    return O;
  }
};

/// Edge probabilities for one function. Unconditional edges have
/// probability 1.
class BranchProbabilities {
public:
  BranchProbabilities(const Function &F, const LoopInfo &LI,
                      const BranchProbOptions &Opts = BranchProbOptions());

  /// The probability of control transferring along From->To. Returns 0
  /// for non-edges.
  double getEdgeProb(const BasicBlock *From, const BasicBlock *To) const;

private:
  static bool loopHasFloatingPoint(const Loop &L);

  /// The out-edges of one block: br fills one slot, condbr two (one, with
  /// probability 1, when both arms name the same block).
  struct OutEdges {
    const BasicBlock *To[2] = {nullptr, nullptr};
    double Prob[2] = {0.0, 0.0};
  };
  /// By block number.
  std::vector<OutEdges> Probs;
};

} // namespace slo

#endif // SLO_ANALYSIS_BRANCHPROBABILITY_H
