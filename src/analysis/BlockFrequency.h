//===- analysis/BlockFrequency.h - Local block frequencies -----*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Intraprocedural block execution frequencies derived from static branch
/// probabilities, normalized to one function entry (N_loc(f) = 1 in the
/// paper's notation). These are the "local execution counts" C_loc(b)
/// that the SPBO and ISPBO weighting schemes consume.
///
/// The frequencies solve the linear flow equations
///   freq(entry) = 1,   freq(b) = sum over preds p of freq(p)*prob(p->b)
/// by damped RPO iteration; with back-edge probabilities capped below 1
/// the iteration converges geometrically (reducible CFGs only, which is
/// all MiniC emits).
///
//===----------------------------------------------------------------------===//

#ifndef SLO_ANALYSIS_BLOCKFREQUENCY_H
#define SLO_ANALYSIS_BLOCKFREQUENCY_H

#include "analysis/BranchProbability.h"
#include "ir/Dominators.h"

namespace slo {

/// Local (per-invocation) block frequencies for one function.
class BlockFrequencies {
public:
  BlockFrequencies(const Function &F, const DominatorTree &DT,
                   const BranchProbabilities &BP);

  /// Expected executions of \p BB per function invocation (0 for
  /// unreachable blocks).
  double get(const BasicBlock *BB) const { return Freq[BB->getNumber()]; }

private:
  /// By block number.
  std::vector<double> Freq;
};

} // namespace slo

#endif // SLO_ANALYSIS_BLOCKFREQUENCY_H
