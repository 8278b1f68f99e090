//===- transform/RewriteUtils.cpp - Shared rewriting helpers --------------===//

#include "transform/RewriteUtils.h"

#include "support/Casting.h"
#include "support/Error.h"

using namespace slo;

Type *slo::remapType(TypeContext &Types, Type *Ty, RecordType *From,
                     RecordType *To) {
  if (Ty == From)
    return To;
  if (auto *PT = dyn_cast<PointerType>(Ty)) {
    Type *NewPointee = remapType(Types, PT->getPointee(), From, To);
    return NewPointee == PT->getPointee() ? Ty
                                          : Types.getPointerType(NewPointee);
  }
  if (auto *AT = dyn_cast<ArrayType>(Ty)) {
    Type *NewElem = remapType(Types, AT->getElementType(), From, To);
    return NewElem == AT->getElementType()
               ? Ty
               : Types.getArrayType(NewElem, AT->getNumElements());
  }
  if (auto *FT = dyn_cast<FunctionType>(Ty)) {
    Type *NewRet = remapType(Types, FT->getReturnType(), From, To);
    std::vector<Type *> NewParams;
    bool Changed = NewRet != FT->getReturnType();
    for (Type *P : FT->getParamTypes()) {
      Type *NP = remapType(Types, P, From, To);
      Changed |= NP != P;
      NewParams.push_back(NP);
    }
    return Changed ? Types.getFunctionType(NewRet, std::move(NewParams))
                   : Ty;
  }
  return Ty;
}

TouchedFunctions TouchedSet::inModuleOrder(const Module &M) const {
  TouchedFunctions Out;
  for (const auto &F : M.functions())
    if (contains(F.get()))
      Out.push_back(F.get());
  return Out;
}

void slo::substituteRecord(Module &M, RecordType *From, RecordType *To,
                           std::vector<FieldAddrInst *> &FieldAccesses,
                           TouchedSet &Touched) {
  TypeContext &Types = M.getTypes();
  IRContext &Ctx = M.getContext();
  ConstantInt *NewSizeOf = Ctx.getSizeOf(To);

  // Globals and signatures first, so the instruction walk below can tell
  // which operands and callees changed type.
  std::unordered_set<const Value *> Retyped;
  for (const auto &G : M.globals()) {
    Type *NewTy = remapType(Types, G->getValueType(), From, To);
    if (NewTy != G->getValueType()) {
      G->setValueType(Types, NewTy);
      Retyped.insert(G.get());
    }
  }
  for (const auto &F : M.functions()) {
    auto *NewFnTy = cast<FunctionType>(
        remapType(Types, F->getFunctionType(), From, To));
    if (NewFnTy != F->getFunctionType()) {
      F->retype(Types, NewFnTy);
      Retyped.insert(F.get());
      Touched.insert(F.get());
    }
    for (unsigned A = 0; A < F->getNumArgs(); ++A) {
      Argument *Arg = F->getArg(A);
      Type *NewTy = remapType(Types, Arg->getType(), From, To);
      if (NewTy != Arg->getType()) {
        Arg->mutateType(NewTy);
        Touched.insert(F.get());
      }
    }
  }

  for (const auto &F : M.functions()) {
    bool Changed = false;
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->instructions()) {
        if (auto *A = dyn_cast<AllocaInst>(I.get())) {
          Type *NewTy = remapType(Types, A->getAllocatedType(), From, To);
          if (NewTy != A->getAllocatedType()) {
            A->setAllocatedType(Types, NewTy);
            Changed = true;
          }
        } else {
          Type *NewTy = remapType(Types, I->getType(), From, To);
          if (NewTy != I->getType()) {
            I->mutateType(NewTy);
            Changed = true;
          }
        }
        if (auto *FA = dyn_cast<FieldAddrInst>(I.get())) {
          if (FA->getRecord() == From) {
            FieldAccesses.push_back(FA);
            Changed = true;
          }
        } else if (auto *Call = dyn_cast<CallInst>(I.get())) {
          Changed |= Retyped.count(Call->getCallee()) != 0;
        }
        for (unsigned Op = 0; Op < I->getNumOperands(); ++Op) {
          Value *V = I->getOperand(Op);
          if (auto *Null = dyn_cast<ConstantNull>(V)) {
            // Null-pointer constants are uniqued per type; swap operands.
            Type *NewTy = remapType(Types, Null->getType(), From, To);
            if (NewTy != Null->getType()) {
              I->setOperand(Op, Ctx.getNullPtr(cast<PointerType>(NewTy)));
              Changed = true;
            }
          } else if (auto *C = dyn_cast<ConstantInt>(V)) {
            if (C->getSizeOfRecord() == From) {
              I->setOperand(Op, NewSizeOf);
              Changed = true;
            }
          } else if (isa<GlobalVariable>(V) || isa<Function>(V)) {
            Changed |= Retyped.count(V) != 0;
          }
        }
      }
    }
    if (Changed)
      Touched.insert(F.get());
  }
}

BasicBlock *slo::splitBlockAfter(BasicBlock *BB, Instruction *Pos,
                                 const std::string &TailName) {
  Function *F = BB->getParent();
  assert(F && "splitting a detached block");
  auto Tail = std::make_unique<BasicBlock>(TailName);
  BasicBlock *TailPtr = Tail.get();
  F->insertBlockAfter(BB, std::move(Tail));

  // Collect the instructions after Pos (Pos stays in BB).
  std::vector<Instruction *> ToMove;
  bool Found = false;
  for (const auto &I : BB->instructions()) {
    if (Found)
      ToMove.push_back(I.get());
    if (I.get() == Pos)
      Found = true;
  }
  if (!Found)
    reportFatalError("splitBlockAfter: position not in block");
  for (Instruction *I : ToMove)
    TailPtr->append(BB->remove(I));
  return TailPtr;
}
