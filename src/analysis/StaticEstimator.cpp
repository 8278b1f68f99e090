//===- analysis/StaticEstimator.cpp - Per-function static analyses --------===//

#include "analysis/StaticEstimator.h"

#include "support/Error.h"

using namespace slo;

/// Looks \p F up in a per-function table, dying on undefined functions.
template <typename T>
static const T &lookup(const std::map<const Function *, T> &PerFunction,
                       const Function *F) {
  auto It = PerFunction.find(F);
  if (It == PerFunction.end())
    reportFatalError("static analyses requested for an undefined function: " +
                     F->getName());
  return It->second;
}

ModuleLoops::ModuleLoops(const Module &M) : M(M) {
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      PerFunction.try_emplace(F.get(), *F);
}

const FunctionLoops &ModuleLoops::get(const Function *F) const {
  return lookup(PerFunction, F);
}

StaticEstimator::StaticEstimator(const Module &M,
                                 const BranchProbOptions &Opts)
    : Loops(M) {
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    const FunctionLoops &FL = Loops.get(F.get());
    FunctionStaticAnalyses A;
    A.BP = std::make_unique<BranchProbabilities>(*F, FL.LI, Opts);
    A.BF = std::make_unique<BlockFrequencies>(*F, FL.DT, *A.BP);
    PerFunction.emplace(F.get(), std::move(A));
  }
}

const FunctionStaticAnalyses &
StaticEstimator::get(const Function *F) const {
  return lookup(PerFunction, F);
}
