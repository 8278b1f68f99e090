//===- analysis/Dataflow.h - Generic dataflow solver -----------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic intraprocedural worklist dataflow solver over the IR CFG,
/// reusing the predecessor lists and reverse post-order the DominatorTree
/// already computes. The lint checkers (analysis/lint/) are built on it;
/// nothing in the framework is lint-specific.
///
/// The client supplies the lattice and the semantics:
///
///   struct Client {
///     /// The abstract state attached to each program point. Must be
///     /// default-constructible, copyable, and equality-comparable (the
///     /// solver detects convergence with operator==).
///     using State = ...;
///
///     /// The state at the flow boundary: the function entry for forward
///     /// problems, each return for backward problems.
///     State boundary() const;
///
///     /// Merges \p Src into \p Dst at a control-flow join. The join must
///     /// be monotone for the fixpoint iteration to terminate; the solver
///     /// additionally enforces a visit budget as a safety valve.
///     void join(State &Dst, const State &Src) const;
///
///     /// Applies one instruction's effect to \p S. Instructions are
///     /// visited in program order for forward problems and in reverse
///     /// program order for backward problems.
///     void transfer(const Instruction *I, State &S) const;
///
///     /// Optional edge refinement: adjusts the state flowing across the
///     /// CFG edge From -> To before it is joined into the target. This
///     /// is how a checker becomes path-sensitive at conditional
///     /// branches (e.g. "p == null" refines p on the true edge). A
///     /// client with no use for it provides an empty body.
///     void edge(const BasicBlock *From, const BasicBlock *To,
///               State &S) const;
///   };
///
/// Blocks unreachable from the flow boundary are never visited and have
/// no state; checkers must skip them (DataflowSolver::get returns null).
///
//===----------------------------------------------------------------------===//

#ifndef SLO_ANALYSIS_DATAFLOW_H
#define SLO_ANALYSIS_DATAFLOW_H

#include "ir/Dominators.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Instructions.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <vector>

namespace slo {

enum class DataflowDirection { Forward, Backward };

const char *dataflowDirectionName(DataflowDirection D);

/// True when \p BB ends in a return (a flow boundary for backward
/// problems).
bool isExitBlock(const BasicBlock &BB);

/// Solver bookkeeping, exposed for tests and the lint.* counters.
struct DataflowStats {
  unsigned BlockVisits = 0;
  /// False when the visit budget ran out before the fixpoint; results
  /// must then be discarded (lint checkers stay silent on the function).
  bool Converged = true;
};

template <typename ClientT> class DataflowSolver {
public:
  using State = typename ClientT::State;

  /// The converged states of one block, in *program* order: Entry is the
  /// state before the first instruction, Exit the state after the
  /// terminator (regardless of the analysis direction).
  struct BlockStates {
    State Entry;
    State Exit;
    bool Visited = false;
  };

  DataflowSolver(const Function &F, const DominatorTree &DT, ClientT &Client,
                 DataflowDirection Dir)
      : F(F), DT(DT), Client(Client), Dir(Dir) {}

  /// Iterates to a fixpoint. \p VisitBudget bounds total block visits
  /// (0 selects 64 per reachable block); exceeding it clears Converged.
  DataflowStats run(unsigned VisitBudget = 0) {
    DataflowStats Stats;
    const std::vector<const BasicBlock *> &Rpo = DT.reversePostOrder();
    std::vector<const BasicBlock *> Order(Rpo.begin(), Rpo.end());
    if (Dir == DataflowDirection::Backward)
      std::reverse(Order.begin(), Order.end());
    if (VisitBudget == 0)
      VisitBudget = 64 * static_cast<unsigned>(Order.size()) + 64;

    std::deque<const BasicBlock *> Worklist(Order.begin(), Order.end());
    std::set<const BasicBlock *> Queued(Order.begin(), Order.end());
    while (!Worklist.empty()) {
      const BasicBlock *BB = Worklist.front();
      Worklist.pop_front();
      Queued.erase(BB);
      if (++Stats.BlockVisits > VisitBudget) {
        Stats.Converged = false;
        break;
      }

      // Flow-in: the boundary state and/or the joined states of the
      // already-visited flow predecessors, each refined along its edge.
      State In;
      bool AnyIn = false;
      if (isBoundary(BB)) {
        In = Client.boundary();
        AnyIn = true;
      }
      for (const BasicBlock *N : flowPreds(BB)) {
        auto It = States.find(N);
        if (It == States.end() || !It->second.Visited)
          continue;
        State Along = Dir == DataflowDirection::Forward ? It->second.Exit
                                                        : It->second.Entry;
        if (Dir == DataflowDirection::Forward)
          Client.edge(N, BB, Along);
        else
          Client.edge(BB, N, Along);
        if (!AnyIn) {
          In = std::move(Along);
          AnyIn = true;
        } else {
          Client.join(In, Along);
        }
      }
      // Nothing has flowed in yet (only back edges from unvisited
      // blocks): leave the block for a later visit; the predecessor's
      // first visit re-queues it.
      if (!AnyIn)
        continue;

      State Out = In;
      if (Dir == DataflowDirection::Forward) {
        for (const auto &I : BB->instructions())
          Client.transfer(I.get(), Out);
      } else {
        const auto &Insts = BB->instructions();
        for (auto It = Insts.rbegin(); It != Insts.rend(); ++It)
          Client.transfer(It->get(), Out);
      }

      BlockStates &BS = States[BB];
      const State &OldFlowOut =
          Dir == DataflowDirection::Forward ? BS.Exit : BS.Entry;
      bool Changed = !BS.Visited || !(OldFlowOut == Out);
      if (Dir == DataflowDirection::Forward) {
        BS.Entry = std::move(In);
        BS.Exit = std::move(Out);
      } else {
        BS.Exit = std::move(In);
        BS.Entry = std::move(Out);
      }
      BS.Visited = true;
      if (Changed)
        for (const BasicBlock *S : flowSuccs(BB))
          if (Queued.insert(S).second)
            Worklist.push_back(S);
    }
    return Stats;
  }

  /// The converged states of \p BB, or null when the block was never
  /// reached by the flow (unreachable code, or no path to a return in a
  /// backward problem).
  const BlockStates *get(const BasicBlock *BB) const {
    auto It = States.find(BB);
    if (It == States.end() || !It->second.Visited)
      return nullptr;
    return &It->second;
  }

private:
  bool isBoundary(const BasicBlock *BB) const {
    return Dir == DataflowDirection::Forward ? BB == F.getEntry()
                                             : isExitBlock(*BB);
  }

  std::vector<const BasicBlock *> flowPreds(const BasicBlock *BB) const {
    if (Dir == DataflowDirection::Forward)
      return DT.predecessors(BB);
    std::vector<BasicBlock *> S = BB->successors();
    return {S.begin(), S.end()};
  }

  std::vector<const BasicBlock *> flowSuccs(const BasicBlock *BB) const {
    if (Dir == DataflowDirection::Backward)
      return DT.predecessors(BB);
    std::vector<BasicBlock *> S = BB->successors();
    return {S.begin(), S.end()};
  }

  const Function &F;
  const DominatorTree &DT;
  ClientT &Client;
  DataflowDirection Dir;
  std::map<const BasicBlock *, BlockStates> States;
};

} // namespace slo

#endif // SLO_ANALYSIS_DATAFLOW_H
