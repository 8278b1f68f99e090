//===- analysis/BlockFrequency.cpp - Local block frequencies --------------===//

#include "analysis/BlockFrequency.h"

#include <cmath>

using namespace slo;

BlockFrequencies::BlockFrequencies(const Function &F, const DominatorTree &DT,
                                   const BranchProbabilities &BP)
    : Freq(F.size(), 0.0) {
  const BasicBlock *Entry = F.getEntry();
  if (!Entry)
    return;
  Freq[Entry->getNumber()] = 1.0;

  // RPO sweeps until fixpoint. Each sweep propagates one more "lap" of
  // every loop; with back edge probability p the error after k sweeps is
  // O(p^k), so 2000 sweeps cover even the ISPBO.W cap of 0.98.
  const unsigned MaxSweeps = 2000;
  const double Tolerance = 1e-10;
  for (unsigned Sweep = 0; Sweep < MaxSweeps; ++Sweep) {
    double MaxDelta = 0.0;
    for (const BasicBlock *BB : DT.reversePostOrder()) {
      double In = BB == Entry ? 1.0 : 0.0;
      for (const BasicBlock *P : DT.predecessors(BB))
        In += Freq[P->getNumber()] * BP.getEdgeProb(P, BB);
      double &Out = Freq[BB->getNumber()];
      MaxDelta = std::max(MaxDelta, std::fabs(In - Out));
      Out = In;
    }
    if (MaxDelta < Tolerance)
      break;
  }
}
