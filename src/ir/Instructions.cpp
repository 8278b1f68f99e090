//===- ir/Instructions.cpp - Instruction classes --------------------------===//

#include "ir/Instructions.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "support/Casting.h"
#include "support/Error.h"

#include <algorithm>

using namespace slo;

Instruction::~Instruction() { dropAllReferences(); }

void Instruction::dropAllReferences() {
  for (Value *Op : Operands)
    if (Op)
      Op->removeUser(this);
  Operands.clear();
}

void Instruction::BulkDrop::add(Instruction *I) {
  constexpr size_t ShortList = 16;
  for (Value *Op : I->Operands) {
    if (!Op)
      continue;
    if (Op->Users.size() <= ShortList) {
      Op->removeUser(I);
      continue;
    }
    // Long lists stay untouched until finish(), so this one stays long.
    Long.push_back(Op);
    if (!I->Dropping) {
      I->Dropping = true;
      Marked.push_back(I);
    }
  }
  I->Operands.clear();
}

void Instruction::BulkDrop::finish() {
  std::sort(Long.begin(), Long.end());
  Long.erase(std::unique(Long.begin(), Long.end()), Long.end());
  for (Value *V : Long)
    std::erase_if(V->Users, [](const Instruction *U) { return U->Dropping; });
  for (Instruction *I : Marked)
    I->Dropping = false;
}

Function *Instruction::getFunction() const {
  return Parent ? Parent->getParent() : nullptr;
}

void Instruction::setOperand(unsigned I, Value *V) {
  assert(I < Operands.size() && "operand index out of range");
  assert(V && "operand must not be null");
  Operands[I]->removeUser(this);
  Operands[I] = V;
  V->addUser(this);
}

void Instruction::appendOperand(Value *V) {
  assert(V && "operand must not be null");
  Operands.push_back(V);
  V->addUser(this);
}

const char *Instruction::getOpcodeName(Opcode Op) {
  switch (Op) {
  case OpAlloca:
    return "alloca";
  case OpLoad:
    return "load";
  case OpStore:
    return "store";
  case OpFieldAddr:
    return "fieldaddr";
  case OpIndexAddr:
    return "indexaddr";
  case OpAdd:
    return "add";
  case OpSub:
    return "sub";
  case OpMul:
    return "mul";
  case OpSDiv:
    return "sdiv";
  case OpSRem:
    return "srem";
  case OpAnd:
    return "and";
  case OpOr:
    return "or";
  case OpXor:
    return "xor";
  case OpShl:
    return "shl";
  case OpAShr:
    return "ashr";
  case OpFAdd:
    return "fadd";
  case OpFSub:
    return "fsub";
  case OpFMul:
    return "fmul";
  case OpFDiv:
    return "fdiv";
  case OpICmpEQ:
    return "icmp.eq";
  case OpICmpNE:
    return "icmp.ne";
  case OpICmpSLT:
    return "icmp.slt";
  case OpICmpSLE:
    return "icmp.sle";
  case OpICmpSGT:
    return "icmp.sgt";
  case OpICmpSGE:
    return "icmp.sge";
  case OpFCmpEQ:
    return "fcmp.eq";
  case OpFCmpNE:
    return "fcmp.ne";
  case OpFCmpLT:
    return "fcmp.lt";
  case OpFCmpLE:
    return "fcmp.le";
  case OpFCmpGT:
    return "fcmp.gt";
  case OpFCmpGE:
    return "fcmp.ge";
  case OpTrunc:
    return "trunc";
  case OpSExt:
    return "sext";
  case OpZExt:
    return "zext";
  case OpFPExt:
    return "fpext";
  case OpFPTrunc:
    return "fptrunc";
  case OpSIToFP:
    return "sitofp";
  case OpFPToSI:
    return "fptosi";
  case OpBitcast:
    return "bitcast";
  case OpPtrToInt:
    return "ptrtoint";
  case OpIntToPtr:
    return "inttoptr";
  case OpCall:
    return "call";
  case OpICall:
    return "icall";
  case OpRet:
    return "ret";
  case OpBr:
    return "br";
  case OpCondBr:
    return "condbr";
  case OpMalloc:
    return "malloc";
  case OpCalloc:
    return "calloc";
  case OpRealloc:
    return "realloc";
  case OpFree:
    return "free";
  case OpMemset:
    return "memset";
  case OpMemcpy:
    return "memcpy";
  }
  SLO_UNREACHABLE("unknown opcode");
}

static bool instHasOpcode(const Value *V, Instruction::Opcode Op) {
  const auto *I = dyn_cast<Instruction>(V);
  return I && I->getOpcode() == Op;
}

static bool instOpcodeInRange(const Value *V, Instruction::Opcode Lo,
                              Instruction::Opcode Hi) {
  const auto *I = dyn_cast<Instruction>(V);
  return I && I->getOpcode() >= Lo && I->getOpcode() <= Hi;
}

bool AllocaInst::classof(const Value *V) {
  return instHasOpcode(V, OpAlloca);
}
bool LoadInst::classof(const Value *V) { return instHasOpcode(V, OpLoad); }
bool StoreInst::classof(const Value *V) { return instHasOpcode(V, OpStore); }
bool FieldAddrInst::classof(const Value *V) {
  return instHasOpcode(V, OpFieldAddr);
}
bool IndexAddrInst::classof(const Value *V) {
  return instHasOpcode(V, OpIndexAddr);
}
bool BinaryInst::classof(const Value *V) {
  return instOpcodeInRange(V, OpAdd, OpFDiv);
}
bool CmpInst::classof(const Value *V) {
  return instOpcodeInRange(V, OpICmpEQ, OpFCmpGE);
}
bool CastInst::classof(const Value *V) {
  return instOpcodeInRange(V, OpTrunc, OpIntToPtr);
}
bool CallInst::classof(const Value *V) { return instHasOpcode(V, OpCall); }
bool IndirectCallInst::classof(const Value *V) {
  return instHasOpcode(V, OpICall);
}
bool RetInst::classof(const Value *V) { return instHasOpcode(V, OpRet); }
bool BrInst::classof(const Value *V) { return instHasOpcode(V, OpBr); }
bool CondBrInst::classof(const Value *V) {
  return instHasOpcode(V, OpCondBr);
}
bool MallocInst::classof(const Value *V) { return instHasOpcode(V, OpMalloc); }
bool CallocInst::classof(const Value *V) { return instHasOpcode(V, OpCalloc); }
bool ReallocInst::classof(const Value *V) {
  return instHasOpcode(V, OpRealloc);
}
bool FreeInst::classof(const Value *V) { return instHasOpcode(V, OpFree); }
bool MemsetInst::classof(const Value *V) { return instHasOpcode(V, OpMemset); }
bool MemcpyInst::classof(const Value *V) { return instHasOpcode(V, OpMemcpy); }

CallInst::CallInst(Function *Callee, const std::vector<Value *> &Args,
                   std::string Name)
    : Instruction(OpCall, Callee->getFunctionType()->getReturnType(),
                  std::move(Name)),
      Callee(Callee) {
  assert(Args.size() == Callee->getFunctionType()->getNumParams() &&
         "call argument count mismatch");
  for (Value *A : Args)
    appendOperand(A);
}

IndirectCallInst::IndirectCallInst(Value *CalleePtr,
                                   const std::vector<Value *> &Args,
                                   std::string Name)
    : Instruction(
          OpICall,
          cast<FunctionType>(
              cast<PointerType>(CalleePtr->getType())->getPointee())
              ->getReturnType(),
          std::move(Name)) {
  appendOperand(CalleePtr);
  for (Value *A : Args)
    appendOperand(A);
}
