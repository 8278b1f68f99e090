//===- ir/Verifier.cpp - IR well-formedness checking ----------------------===//

#include "ir/Verifier.h"

#include "ir/Dominators.h"
#include "ir/Module.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/Error.h"

#include <map>

using namespace slo;

namespace {

/// Verifier for a single function: terminator discipline, operand typing,
/// def-before-use via dominators, and CFG edge sanity.
class FunctionVerifier {
public:
  FunctionVerifier(const Function &F, DiagnosticEngine &Diags)
      : F(F), Diags(Diags) {}

  bool run() {
    size_t Before = Diags.count(DiagSeverity::Error);
    checkBlocks();
    if (Diags.count(DiagSeverity::Error) == Before)
      checkDefDominatesUse(DominatorTree(F));
    return Diags.count(DiagSeverity::Error) == Before;
  }

private:
  void error(const std::string &Msg) {
    Diags.report(DiagSeverity::Error, "verifier", Msg).Function = F.getName();
  }

  /// True when \p BB is this function's block with \p BB's number.
  bool owns(const BasicBlock *BB) const {
    return BB->getNumber() < F.size() &&
           F.blocks()[BB->getNumber()].get() == BB;
  }

  void checkBlocks() {
    for (const auto &BB : F.blocks()) {
      if (BB->empty()) {
        error("block '" + BB->getName() + "' is empty");
        continue;
      }
      if (!BB->getTerminator()) {
        error("block '" + BB->getName() + "' has no terminator");
        continue;
      }
      for (const auto &I : BB->instructions()) {
        if (I->isTerminator() && I.get() != BB->back())
          error("terminator in the middle of block '" + BB->getName() + "'");
        if (I->getParent() != BB.get())
          error("instruction parent link broken in '" + BB->getName() + "'");
        checkInstruction(*I);
      }
      for (BasicBlock *Succ : BB->successors())
        if (!owns(Succ))
          error("block '" + BB->getName() +
                "' branches to a block of another function");
    }
  }

  void checkInstruction(const Instruction &I) {
    for (unsigned Op = 0; Op < I.getNumOperands(); ++Op) {
      const Value *V = I.getOperand(Op);
      if (!V) {
        error("null operand");
        continue;
      }
      if (V->getType()->isVoid())
        error("void value used as operand");
      if (const auto *OpInst = dyn_cast<Instruction>(V)) {
        if (OpInst->getFunction() != &F)
          error("operand defined in another function");
      }
      if (const auto *Arg = dyn_cast<Argument>(V)) {
        if (Arg->getParent() != &F)
          error("argument of another function used as operand");
      }
    }
    checkTypes(I);
  }

  void checkTypes(const Instruction &I) {
    switch (I.getOpcode()) {
    case Instruction::OpLoad: {
      const auto *L = cast<LoadInst>(&I);
      if (!L->getPointer()->getType()->isPointer())
        error("load from non-pointer");
      else if (cast<PointerType>(L->getPointer()->getType())->getPointee() !=
               L->getType())
        error("load type does not match pointee type");
      break;
    }
    case Instruction::OpStore: {
      const auto *S = cast<StoreInst>(&I);
      if (!S->getPointer()->getType()->isPointer())
        error("store to non-pointer");
      else if (cast<PointerType>(S->getPointer()->getType())->getPointee() !=
               S->getStoredValue()->getType())
        error("store value type does not match pointee type");
      break;
    }
    case Instruction::OpFieldAddr: {
      const auto *FA = cast<FieldAddrInst>(&I);
      const Type *BaseTy = FA->getBase()->getType();
      if (!BaseTy->isPointer())
        error("fieldaddr base is not a pointer");
      else {
        const Type *Pointee = cast<PointerType>(BaseTy)->getPointee();
        if (Pointee != FA->getRecord())
          error("fieldaddr base does not point to the accessed record");
        if (FA->getFieldIndex() >= FA->getRecord()->getNumFields())
          error("fieldaddr index out of range");
      }
      break;
    }
    case Instruction::OpCondBr:
      if (!cast<CondBrInst>(&I)->getCondition()->getType()->isInt())
        error("condbr condition is not an integer");
      break;
    case Instruction::OpRet: {
      const auto *R = cast<RetInst>(&I);
      const Type *Expected = F.getReturnType();
      if (R->hasValue()) {
        if (R->getValue()->getType() != Expected)
          error("return value type mismatch");
      } else if (!Expected->isVoid()) {
        error("missing return value in non-void function");
      }
      break;
    }
    case Instruction::OpCall: {
      const auto *C = cast<CallInst>(&I);
      const FunctionType *FT = C->getCallee()->getFunctionType();
      for (unsigned A = 0; A < C->getNumArgs(); ++A)
        if (C->getArg(A)->getType() != FT->getParamType(A))
          error("call argument type mismatch calling '" +
                C->getCallee()->getName() + "'");
      break;
    }
    default:
      break;
    }
  }

  void checkDefDominatesUse(const DominatorTree &DT) {
    // Map instruction -> position within its block.
    std::map<const Instruction *, unsigned> Position;
    for (const auto &BB : F.blocks()) {
      unsigned Pos = 0;
      for (const auto &I : BB->instructions())
        Position[I.get()] = Pos++;
    }
    for (const auto &BB : F.blocks()) {
      if (!DT.isReachable(BB.get()))
        continue;
      for (const auto &I : BB->instructions()) {
        for (unsigned Op = 0; Op < I->getNumOperands(); ++Op) {
          const auto *Def = dyn_cast<Instruction>(I->getOperand(Op));
          if (!Def)
            continue;
          if (!DT.isReachable(Def->getParent()))
            continue;
          bool Ok = Def->getParent() == BB.get()
                        ? Position[Def] < Position[I.get()]
                        : DT.dominates(Def->getParent(), BB.get());
          if (!Ok)
            error("use of value does not follow its definition (block '" +
                  BB->getName() + "')");
        }
      }
    }
  }

  const Function &F;
  DiagnosticEngine &Diags;
};

} // namespace

bool slo::verifyFunction(const Function &F, DiagnosticEngine &Diags) {
  if (F.isDeclaration())
    return true;
  return FunctionVerifier(F, Diags).run();
}

bool slo::verifyModule(const Module &M, DiagnosticEngine &Diags) {
  bool Ok = true;
  for (const auto &F : M.functions())
    Ok &= verifyFunction(*F, Diags);
  return Ok;
}

namespace {

/// Renders verifier diagnostics in the legacy string format the shim
/// callers (tests, scripts) were written against.
void appendLegacyStrings(const DiagnosticEngine &Diags, size_t From,
                         std::vector<std::string> &Errors) {
  const std::vector<Diagnostic> &All = Diags.all();
  for (size_t I = From; I < All.size(); ++I)
    Errors.push_back("function '" + All[I].Function + "': " + All[I].Message);
}

} // namespace

bool slo::verifyModule(const Module &M, std::vector<std::string> &Errors) {
  DiagnosticEngine Diags;
  bool Ok = verifyModule(M, Diags);
  appendLegacyStrings(Diags, 0, Errors);
  return Ok;
}

void slo::verifyModuleOrDie(const Module &M) {
  std::vector<std::string> Errors;
  if (!verifyModule(M, Errors))
    reportFatalError("module verification failed: " + Errors.front());
}
