//===- ir/Dominators.cpp - Dominator tree ---------------------------------===//

#include "ir/Dominators.h"

#include <cassert>

using namespace slo;

DominatorTree::DominatorTree(const Function &F)
    : RpoIndex(F.size(), Unreachable), Preds(F.size()) {
  const BasicBlock *Entry = F.getEntry();
  if (!Entry)
    return;
  for (size_t I = 0; I < F.size(); ++I)
    assert(F.blocks()[I]->getNumber() == I && "stale block numbering");

  // Iterative post-order DFS.
  std::vector<bool> Visited(F.size(), false);
  std::vector<std::pair<const BasicBlock *, size_t>> Stack;
  std::vector<const BasicBlock *> Post;
  Stack.push_back({Entry, 0});
  Visited[Entry->getNumber()] = true;
  while (!Stack.empty()) {
    auto &[BB, Idx] = Stack.back();
    auto Succs = BB->successors();
    if (Idx < Succs.size()) {
      const BasicBlock *S = Succs[Idx++];
      if (!Visited[S->getNumber()]) {
        Visited[S->getNumber()] = true;
        Stack.push_back({S, 0});
      }
    } else {
      Post.push_back(BB);
      Stack.pop_back();
    }
  }
  Rpo.assign(Post.rbegin(), Post.rend());
  const unsigned N = static_cast<unsigned>(Rpo.size());
  for (unsigned I = 0; I < N; ++I)
    RpoIndex[Rpo[I]->getNumber()] = I;

  for (const auto &BB : F.blocks())
    if (isReachable(BB.get()))
      for (const BasicBlock *S : BB->successors())
        Preds[S->getNumber()].push_back(BB.get());

  // Cooper-Harvey-Kennedy iteration over RPO positions (entry = 0).
  Idom.assign(N, Unreachable);
  Idom[0] = 0;
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (A > B)
        A = Idom[A];
      while (B > A)
        B = Idom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 1; I < N; ++I) {
      unsigned NewIdom = Unreachable;
      for (const BasicBlock *P : Preds[Rpo[I]->getNumber()]) {
        unsigned PI = RpoIndex[P->getNumber()];
        if (Idom[PI] == Unreachable)
          continue;
        NewIdom = NewIdom == Unreachable ? PI : Intersect(PI, NewIdom);
      }
      if (NewIdom != Unreachable && Idom[I] != NewIdom) {
        Idom[I] = NewIdom;
        Changed = true;
      }
    }
  }

  // Pre-order intervals of the dominator tree. An idom precedes its
  // children in RPO, so subtree sizes fold bottom-up in one reverse sweep
  // and pre-order numbers hand out child ranges in one forward sweep: a
  // DFS without a stack, whatever the tree's depth.
  Size.assign(N, 1);
  for (unsigned I = N; I-- > 1;)
    Size[Idom[I]] += Size[I];
  Pre.assign(N, 0);
  std::vector<unsigned> NextFree(N);
  NextFree[0] = 1;
  for (unsigned I = 1; I < N; ++I) {
    Pre[I] = NextFree[Idom[I]];
    NextFree[Idom[I]] += Size[I];
    NextFree[I] = Pre[I] + 1;
  }
}

const BasicBlock *DominatorTree::getIdom(const BasicBlock *BB) const {
  unsigned I = RpoIndex[BB->getNumber()];
  if (I == Unreachable || I == 0)
    return nullptr;
  return Rpo[Idom[I]];
}

bool DominatorTree::dominates(const BasicBlock *A,
                              const BasicBlock *B) const {
  unsigned IA = RpoIndex[A->getNumber()];
  unsigned IB = RpoIndex[B->getNumber()];
  if (IA == Unreachable || IB == Unreachable)
    return false;
  return Pre[IA] <= Pre[IB] && Pre[IB] < Pre[IA] + Size[IA];
}
