//===- analysis/BranchProbability.cpp - Static branch estimation ----------===//

#include "analysis/BranchProbability.h"

#include "support/Casting.h"

using namespace slo;

bool BranchProbabilities::loopHasFloatingPoint(const Loop &L) {
  for (const BasicBlock *BB : L.blocks())
    for (const auto &I : BB->instructions())
      if (I->getType()->isFloat())
        return true;
  return false;
}

static bool blockReturns(const BasicBlock *BB) {
  const Instruction *T = BB->getTerminator();
  return T && T->getOpcode() == Instruction::OpRet;
}

BranchProbabilities::BranchProbabilities(const Function &F,
                                         const LoopInfo &LI,
                                         const BranchProbOptions &Opts)
    : Probs(F.size()) {
  for (const auto &BB : F.blocks()) {
    const Instruction *T = BB->getTerminator();
    if (!T)
      continue;
    OutEdges &Out = Probs[BB->getNumber()];
    if (const auto *Br = dyn_cast<BrInst>(T)) {
      Out.To[0] = Br->getTarget();
      Out.Prob[0] = 1.0;
      continue;
    }
    const auto *CBr = dyn_cast<CondBrInst>(T);
    if (!CBr)
      continue;
    const BasicBlock *TrueBB = CBr->getTrueTarget();
    const BasicBlock *FalseBB = CBr->getFalseTarget();

    double TrueProb = 0.5;
    bool Decided = false;

    // Loop heuristic: a conditional back/exit edge keeps iterating with
    // the (possibly ISPBO.W-raised) back edge probability.
    bool TrueBack = LI.isBackEdge(BB.get(), TrueBB);
    bool FalseBack = LI.isBackEdge(BB.get(), FalseBB);
    Loop *L = LI.getLoopFor(BB.get());
    if (TrueBack != FalseBack) {
      const Loop *Target = L;
      // Find the loop this back edge belongs to.
      const BasicBlock *Header = TrueBack ? TrueBB : FalseBB;
      for (const Loop *Cand = L; Cand; Cand = Cand->getParent())
        if (Cand->getHeader() == Header)
          Target = Cand;
      double P = (Target && loopHasFloatingPoint(*Target))
                     ? Opts.FpLoopBackEdge
                     : Opts.IntLoopBackEdge;
      TrueProb = TrueBack ? P : 1.0 - P;
      Decided = true;
    } else if (L) {
      // Loop exit heuristic: prefer the edge that stays in the loop.
      bool TrueExits = !L->contains(TrueBB);
      bool FalseExits = !L->contains(FalseBB);
      if (TrueExits != FalseExits) {
        double P = loopHasFloatingPoint(*L) ? Opts.FpLoopBackEdge
                                            : Opts.IntLoopBackEdge;
        TrueProb = TrueExits ? 1.0 - P : P;
        Decided = true;
      }
    }

    // Pointer heuristic: pointer (in)equality tests usually succeed on
    // the not-equal side.
    if (!Decided) {
      if (const auto *Cmp = dyn_cast<CmpInst>(CBr->getCondition())) {
        bool PtrCmp = Cmp->getLHS()->getType()->isPointer() ||
                      Cmp->getRHS()->getType()->isPointer();
        if (PtrCmp && Cmp->getOpcode() == Instruction::OpICmpEQ) {
          TrueProb = 1.0 - Opts.PointerNotEqual;
          Decided = true;
        } else if (PtrCmp && Cmp->getOpcode() == Instruction::OpICmpNE) {
          TrueProb = Opts.PointerNotEqual;
          Decided = true;
        }
      }
    }

    // Opcode heuristic: comparisons against a negative outcome ("x < 0")
    // are usually false.
    if (!Decided) {
      if (const auto *Cmp = dyn_cast<CmpInst>(CBr->getCondition())) {
        const auto *RC = dyn_cast<ConstantInt>(Cmp->getRHS());
        bool AgainstZero = RC && RC->getValue() == 0;
        if (AgainstZero && (Cmp->getOpcode() == Instruction::OpICmpSLT ||
                            Cmp->getOpcode() == Instruction::OpICmpSLE)) {
          TrueProb = 1.0 - Opts.OpcodeNegativeFalse;
          Decided = true;
        }
      }
    }

    // Return heuristic: avoid blocks that immediately return.
    if (!Decided) {
      bool TrueRets = blockReturns(TrueBB);
      bool FalseRets = blockReturns(FalseBB);
      if (TrueRets != FalseRets) {
        TrueProb = TrueRets ? 1.0 - Opts.AvoidReturn : Opts.AvoidReturn;
        Decided = true;
      }
    }

    Out.To[0] = TrueBB;
    if (TrueBB == FalseBB) {
      Out.Prob[0] = 1.0;
    } else {
      Out.Prob[0] = TrueProb;
      Out.To[1] = FalseBB;
      Out.Prob[1] = 1.0 - TrueProb;
    }
  }
}

double BranchProbabilities::getEdgeProb(const BasicBlock *From,
                                        const BasicBlock *To) const {
  const OutEdges &Out = Probs[From->getNumber()];
  for (unsigned I = 0; I < 2; ++I)
    if (Out.To[I] == To)
      return Out.Prob[I];
  return 0.0;
}
