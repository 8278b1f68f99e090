//===- analysis/StaticEstimator.h - Per-function static analyses -*- C++-*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bundles the per-function static analyses (dominators, loops, branch
/// probabilities, local block frequencies) for a whole module, so the
/// inter-procedural phases have one place to query them. The dominator
/// tree and loop forest of each function are built once (ModuleLoops) and
/// shared by the estimator and the affinity analysis.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_ANALYSIS_STATICESTIMATOR_H
#define SLO_ANALYSIS_STATICESTIMATOR_H

#include "analysis/BlockFrequency.h"
#include "analysis/BranchProbability.h"
#include "analysis/LoopInfo.h"
#include "ir/Module.h"

#include <map>
#include <memory>

namespace slo {

/// The dominator tree and loop forest of one function.
struct FunctionLoops {
  explicit FunctionLoops(const Function &F) : DT(F), LI(F, DT) {}
  DominatorTree DT;
  LoopInfo LI;
};

/// FunctionLoops for every defined function of a module.
class ModuleLoops {
public:
  explicit ModuleLoops(const Module &M);

  const Module &getModule() const { return M; }

  /// Loops of \p F, which must be a definition in the module.
  const FunctionLoops &get(const Function *F) const;

private:
  const Module &M;
  std::map<const Function *, FunctionLoops> PerFunction;
};

/// The probability-dependent static analyses of one function.
struct FunctionStaticAnalyses {
  std::unique_ptr<BranchProbabilities> BP;
  std::unique_ptr<BlockFrequencies> BF;
};

/// Computes and caches the static analyses for every defined function of
/// a module under one set of branch probability options.
class StaticEstimator {
public:
  StaticEstimator(const Module &M,
                  const BranchProbOptions &Opts = BranchProbOptions());

  const Module &getModule() const { return Loops.getModule(); }

  /// The dominator trees and loop forests the estimates were built on.
  const ModuleLoops &loops() const { return Loops; }

  /// Analyses for \p F, which must be a definition in the module.
  const FunctionStaticAnalyses &get(const Function *F) const;

private:
  ModuleLoops Loops;
  std::map<const Function *, FunctionStaticAnalyses> PerFunction;
};

} // namespace slo

#endif // SLO_ANALYSIS_STATICESTIMATOR_H
