//===- analysis/LoopInfo.cpp - Natural loop detection ---------------------===//

#include "analysis/LoopInfo.h"

#include <algorithm>

using namespace slo;

bool Loop::contains(const BasicBlock *BB) const {
  auto It = std::lower_bound(Blocks.begin(), Blocks.end(), BB->getNumber(),
                             [](const BasicBlock *X, unsigned N) {
                               return X->getNumber() < N;
                             });
  return It != Blocks.end() && *It == BB;
}

bool Loop::contains(const Loop *L) const {
  while (L) {
    if (L == this)
      return true;
    L = L->getParent();
  }
  return false;
}

LoopInfo::LoopInfo(const Function &F, const DominatorTree &DT)
    : InnermostLoop(F.size(), nullptr) {
  // Find back edges and group them by header.
  std::vector<std::vector<const BasicBlock *>> BackEdges(F.size());
  for (const auto &BB : F.blocks()) {
    if (!DT.isReachable(BB.get()))
      continue;
    for (const BasicBlock *S : BB->successors())
      if (DT.dominates(S, BB.get()))
        BackEdges[S->getNumber()].push_back(BB.get());
  }

  // Build each loop body: reverse reachability from the latches without
  // crossing the header. Mark[b] holds the 1-based id of the last loop
  // that visited block b.
  std::vector<unsigned> Mark(F.size(), 0);
  for (const auto &Header : F.blocks()) {
    const std::vector<const BasicBlock *> &Latches =
        BackEdges[Header->getNumber()];
    if (Latches.empty())
      continue;
    auto L = std::make_unique<Loop>();
    const unsigned Id = static_cast<unsigned>(Loops.size()) + 1;
    L->Header = Header.get();
    L->Latches = Latches;
    Mark[Header->getNumber()] = Id;
    L->Blocks.push_back(Header.get());
    std::vector<const BasicBlock *> Work(Latches.begin(), Latches.end());
    while (!Work.empty()) {
      const BasicBlock *BB = Work.back();
      Work.pop_back();
      if (Mark[BB->getNumber()] == Id)
        continue;
      Mark[BB->getNumber()] = Id;
      L->Blocks.push_back(BB);
      for (const BasicBlock *P : DT.predecessors(BB))
        Work.push_back(P);
    }
    std::sort(L->Blocks.begin(), L->Blocks.end(),
              [](const BasicBlock *A, const BasicBlock *B) {
                return A->getNumber() < B->getNumber();
              });
    Loops.push_back(std::move(L));
  }

  // Nesting. Natural loops with distinct headers are disjoint or strictly
  // nested, so visiting loops largest first, the innermost loop recorded
  // so far for L's header is the smallest loop strictly containing L: its
  // parent. Recording L over its blocks then leaves each block's
  // innermost loop behind.
  std::vector<Loop *> BySize;
  for (auto &L : Loops)
    BySize.push_back(L.get());
  std::stable_sort(BySize.begin(), BySize.end(),
                   [](const Loop *A, const Loop *B) {
                     return A->Blocks.size() > B->Blocks.size();
                   });
  for (Loop *L : BySize) {
    L->Parent = InnermostLoop[L->Header->getNumber()];
    L->Depth = L->Parent ? L->Parent->Depth + 1 : 1;
    for (const BasicBlock *BB : L->Blocks)
      InnermostLoop[BB->getNumber()] = L;
  }

  // Order Loops outermost-first for deterministic iteration; the position
  // is the loop's index, and sub-loops follow in that order too.
  std::sort(Loops.begin(), Loops.end(),
            [](const std::unique_ptr<Loop> &A,
               const std::unique_ptr<Loop> &B) {
              if (A->Depth != B->Depth)
                return A->Depth < B->Depth;
              return A->Header->getNumber() < B->Header->getNumber();
            });
  for (unsigned I = 0; I < Loops.size(); ++I) {
    Loops[I]->Index = I;
    if (Loops[I]->Parent)
      Loops[I]->Parent->SubLoops.push_back(Loops[I].get());
  }
}

std::vector<Loop *> LoopInfo::topLevel() const {
  std::vector<Loop *> Out;
  for (const auto &L : Loops)
    if (!L->getParent())
      Out.push_back(L.get());
  return Out;
}

std::vector<Loop *> LoopInfo::loopsInnermostFirst() const {
  std::vector<Loop *> Out;
  for (const auto &L : Loops)
    Out.push_back(L.get());
  std::reverse(Out.begin(), Out.end());
  return Out;
}

bool LoopInfo::isBackEdge(const BasicBlock *From, const BasicBlock *To) const {
  Loop *L = getLoopFor(From);
  while (L) {
    if (L->getHeader() == To)
      return true;
    L = L->getParent();
  }
  return false;
}
