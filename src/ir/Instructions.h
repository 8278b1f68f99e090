//===- ir/Instructions.h - Instruction classes -----------------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set of the IR. The design choices that matter for the
/// paper's analyses:
///
///  - Field accesses are explicit FieldAddr instructions, so the legality
///    test ATKN ("address of a field taken") is simply "a FieldAddr result
///    has a user other than the pointer operand of a load/store".
///  - Heap management and memory streaming are intrinsic instructions
///    (Malloc/Calloc/Realloc/Free/Memset/Memcpy), so the legality tests
///    SMAL and MSET and the allocation-site rewriting are structural.
///  - malloc/calloc return i8* (C's void*) and the frontend emits an
///    explicit Bitcast to the record pointer type, exactly the situation
///    the paper's CSTT tolerance list deals with.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_IR_INSTRUCTIONS_H
#define SLO_IR_INSTRUCTIONS_H

#include "ir/Value.h"

#include <cassert>
#include <string>
#include <vector>

namespace slo {

class BasicBlock;
class Function;

/// Base class of all instructions. Owns the operand list and keeps the
/// per-value user lists consistent.
class Instruction : public Value {
public:
  enum Opcode {
    // Memory.
    OpAlloca,
    OpLoad,
    OpStore,
    OpFieldAddr,
    OpIndexAddr,
    // Integer arithmetic / bitwise.
    OpAdd,
    OpSub,
    OpMul,
    OpSDiv,
    OpSRem,
    OpAnd,
    OpOr,
    OpXor,
    OpShl,
    OpAShr,
    // Floating point arithmetic.
    OpFAdd,
    OpFSub,
    OpFMul,
    OpFDiv,
    // Comparisons (result i1).
    OpICmpEQ,
    OpICmpNE,
    OpICmpSLT,
    OpICmpSLE,
    OpICmpSGT,
    OpICmpSGE,
    OpFCmpEQ,
    OpFCmpNE,
    OpFCmpLT,
    OpFCmpLE,
    OpFCmpGT,
    OpFCmpGE,
    // Casts.
    OpTrunc,
    OpSExt,
    OpZExt,
    OpFPExt,
    OpFPTrunc,
    OpSIToFP,
    OpFPToSI,
    OpBitcast,
    OpPtrToInt,
    OpIntToPtr,
    // Control flow.
    OpCall,
    OpICall,
    OpRet,
    OpBr,
    OpCondBr,
    // Heap and memory streaming intrinsics.
    OpMalloc,
    OpCalloc,
    OpRealloc,
    OpFree,
    OpMemset,
    OpMemcpy,
  };

  ~Instruction() override;

  Opcode getOpcode() const { return Op; }
  static const char *getOpcodeName(Opcode Op);

  BasicBlock *getParent() const { return Parent; }
  Function *getFunction() const;

  unsigned getNumOperands() const {
    return static_cast<unsigned>(Operands.size());
  }
  Value *getOperand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  void setOperand(unsigned I, Value *V);
  const std::vector<Value *> &operands() const { return Operands; }

  bool isTerminator() const {
    return Op == OpRet || Op == OpBr || Op == OpCondBr;
  }

  /// Removes this instruction's operand uses. Called by BasicBlock::erase
  /// before destruction, and by the destructor as a safety net.
  void dropAllReferences();

  /// Drops the operand uses of many instructions, as a module or function
  /// does before destroying its body. A short user list is edited in
  /// place. A long one is filtered once by finish(), so dropping n uses
  /// of one value costs O(n log n), not the O(n^2) of n single removals.
  class BulkDrop {
  public:
    void add(Instruction *I);
    /// Completes the drop; call it once, after the last add.
    void finish();

  private:
    std::vector<Value *> Long;
    std::vector<Instruction *> Marked;
  };

  static bool classof(const Value *V) {
    return V->getKind() == VK_Instruction;
  }

protected:
  Instruction(Opcode Op, Type *Ty, std::string Name)
      : Value(VK_Instruction, Ty, std::move(Name)), Op(Op) {}

  void appendOperand(Value *V);

private:
  friend class BasicBlock;
  Opcode Op;
  /// Set only while a BulkDrop is in progress.
  bool Dropping = false;
  BasicBlock *Parent = nullptr;
  std::vector<Value *> Operands;
};

/// Stack allocation of one object of the given type; yields a pointer.
/// MiniC local variables (scalars, pointers, structs, arrays) lower to
/// allocas in the entry block.
class AllocaInst : public Instruction {
public:
  AllocaInst(TypeContext &Types, Type *Allocated, std::string Name)
      : Instruction(OpAlloca, Types.getPointerType(Allocated),
                    std::move(Name)),
        Allocated(Allocated) {}

  Type *getAllocatedType() const { return Allocated; }

  /// Retypes the alloca; used only by layout transformations.
  void setAllocatedType(TypeContext &Types, Type *NewTy) {
    Allocated = NewTy;
    mutateType(Types.getPointerType(NewTy));
  }

  static bool classof(const Value *V);

private:
  Type *Allocated;
};

/// Loads the pointee of the pointer operand.
class LoadInst : public Instruction {
public:
  LoadInst(Value *Ptr, std::string Name)
      : Instruction(OpLoad,
                    static_cast<PointerType *>(Ptr->getType())->getPointee(),
                    std::move(Name)) {
    assert(Ptr->getType()->isPointer() && "load requires a pointer");
    appendOperand(Ptr);
  }

  Value *getPointer() const { return getOperand(0); }

  static bool classof(const Value *V);
};

/// Stores the value operand through the pointer operand.
class StoreInst : public Instruction {
public:
  StoreInst(TypeContext &Types, Value *Val, Value *Ptr)
      : Instruction(OpStore, Types.getVoidType(), "") {
    assert(Ptr->getType()->isPointer() && "store requires a pointer");
    appendOperand(Val);
    appendOperand(Ptr);
  }

  Value *getStoredValue() const { return getOperand(0); }
  Value *getPointer() const { return getOperand(1); }

  static bool classof(const Value *V);
};

/// Computes the address of field \p FieldIndex of the record pointed to by
/// the base operand. The result type is pointer-to-field-type.
class FieldAddrInst : public Instruction {
public:
  FieldAddrInst(TypeContext &Types, Value *Base, RecordType *Rec,
                unsigned FieldIndex, std::string Name)
      : Instruction(OpFieldAddr,
                    Types.getPointerType(Rec->getField(FieldIndex).Ty),
                    std::move(Name)),
        Rec(Rec), FieldIndex(FieldIndex) {
    assert(Base->getType()->isPointer() && "fieldaddr requires a pointer");
    appendOperand(Base);
  }

  Value *getBase() const { return getOperand(0); }
  RecordType *getRecord() const { return Rec; }
  unsigned getFieldIndex() const { return FieldIndex; }
  const Field &getField() const { return Rec->getField(FieldIndex); }

  /// Redirects this access to field \p NewIndex of \p NewRec; used by the
  /// layout transformations when rewriting accesses to a new layout.
  void setTarget(TypeContext &Types, RecordType *NewRec, unsigned NewIndex) {
    Rec = NewRec;
    FieldIndex = NewIndex;
    mutateType(Types.getPointerType(NewRec->getField(NewIndex).Ty));
  }

  static bool classof(const Value *V);

private:
  RecordType *Rec;
  unsigned FieldIndex;
};

/// Computes base + index * sizeof(pointee); the typed form of C pointer
/// arithmetic and array indexing. Result type equals the base type.
class IndexAddrInst : public Instruction {
public:
  IndexAddrInst(Value *Base, Value *Index, std::string Name)
      : Instruction(OpIndexAddr, Base->getType(), std::move(Name)) {
    assert(Base->getType()->isPointer() && "indexaddr requires a pointer");
    assert(Index->getType()->isInt() && "index must be an integer");
    appendOperand(Base);
    appendOperand(Index);
  }

  Value *getBase() const { return getOperand(0); }
  Value *getIndex() const { return getOperand(1); }

  static bool classof(const Value *V);
};

/// Two-operand arithmetic or bitwise instruction.
class BinaryInst : public Instruction {
public:
  BinaryInst(Opcode Op, Value *LHS, Value *RHS, std::string Name)
      : Instruction(Op, LHS->getType(), std::move(Name)) {
    assert(Op >= OpAdd && Op <= OpFDiv && "not a binary opcode");
    assert(LHS->getType() == RHS->getType() &&
           "binary operand types must match");
    appendOperand(LHS);
    appendOperand(RHS);
  }

  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V);
};

/// Comparison producing an i1.
class CmpInst : public Instruction {
public:
  CmpInst(TypeContext &Types, Opcode Op, Value *LHS, Value *RHS,
          std::string Name)
      : Instruction(Op, Types.getI1(), std::move(Name)) {
    assert(Op >= OpICmpEQ && Op <= OpFCmpGE && "not a comparison opcode");
    appendOperand(LHS);
    appendOperand(RHS);
  }

  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V);
};

/// Conversion between numeric types, or pointer casts. Bitcast between
/// record pointer types is what the CSTT/CSTF legality tests inspect.
class CastInst : public Instruction {
public:
  CastInst(Opcode Op, Value *Operand, Type *DestTy, std::string Name)
      : Instruction(Op, DestTy, std::move(Name)) {
    assert(Op >= OpTrunc && Op <= OpIntToPtr && "not a cast opcode");
    appendOperand(Operand);
  }

  Value *getCastOperand() const { return getOperand(0); }

  static bool classof(const Value *V);
};

/// Direct call to a known function.
class CallInst : public Instruction {
public:
  CallInst(Function *Callee, const std::vector<Value *> &Args,
           std::string Name);

  Function *getCallee() const { return Callee; }
  /// Redirects the call; used by the Linker to resolve declarations to
  /// definitions.
  void setCallee(Function *F) { Callee = F; }
  unsigned getNumArgs() const { return getNumOperands(); }
  Value *getArg(unsigned I) const { return getOperand(I); }

  static bool classof(const Value *V);

private:
  Function *Callee;
};

/// Call through a function pointer. Operand 0 is the callee; the targets
/// are unknown to the front end, which is what the IND legality test is
/// about.
class IndirectCallInst : public Instruction {
public:
  IndirectCallInst(Value *CalleePtr, const std::vector<Value *> &Args,
                   std::string Name);

  Value *getCalleePtr() const { return getOperand(0); }
  unsigned getNumArgs() const { return getNumOperands() - 1; }
  Value *getArg(unsigned I) const { return getOperand(I + 1); }

  static bool classof(const Value *V);
};

/// Function return, with an optional value.
class RetInst : public Instruction {
public:
  RetInst(TypeContext &Types, Value *Val)
      : Instruction(OpRet, Types.getVoidType(), "") {
    if (Val)
      appendOperand(Val);
  }

  bool hasValue() const { return getNumOperands() == 1; }
  Value *getValue() const { return getOperand(0); }

  static bool classof(const Value *V);
};

/// Unconditional branch.
class BrInst : public Instruction {
public:
  BrInst(TypeContext &Types, BasicBlock *Target)
      : Instruction(OpBr, Types.getVoidType(), ""), Target(Target) {}

  BasicBlock *getTarget() const { return Target; }
  void setTarget(BasicBlock *BB) { Target = BB; }

  static bool classof(const Value *V);

private:
  BasicBlock *Target;
};

/// Conditional branch on an i1 operand.
class CondBrInst : public Instruction {
public:
  CondBrInst(TypeContext &Types, Value *Cond, BasicBlock *TrueBB,
             BasicBlock *FalseBB)
      : Instruction(OpCondBr, Types.getVoidType(), ""), TrueBB(TrueBB),
        FalseBB(FalseBB) {
    appendOperand(Cond);
  }

  Value *getCondition() const { return getOperand(0); }
  BasicBlock *getTrueTarget() const { return TrueBB; }
  BasicBlock *getFalseTarget() const { return FalseBB; }
  void setTrueTarget(BasicBlock *BB) { TrueBB = BB; }
  void setFalseTarget(BasicBlock *BB) { FalseBB = BB; }

  static bool classof(const Value *V);

private:
  BasicBlock *TrueBB;
  BasicBlock *FalseBB;
};

/// malloc(bytes): returns i8* (C's void*). The frontend emits the byte
/// count as `N * sizeof(T)` with an attributed sizeof constant, which the
/// SMAL analysis pattern-matches and the transformations rewrite.
class MallocInst : public Instruction {
public:
  MallocInst(TypeContext &Types, Value *SizeBytes, std::string Name)
      : Instruction(OpMalloc, Types.getBytePtrType(), std::move(Name)) {
    appendOperand(SizeBytes);
  }

  Value *getSizeBytes() const { return getOperand(0); }

  static bool classof(const Value *V);
};

/// calloc(count, elemsize): returns zeroed i8*.
class CallocInst : public Instruction {
public:
  CallocInst(TypeContext &Types, Value *Count, Value *ElemSize,
             std::string Name)
      : Instruction(OpCalloc, Types.getBytePtrType(), std::move(Name)) {
    appendOperand(Count);
    appendOperand(ElemSize);
  }

  Value *getCount() const { return getOperand(0); }
  Value *getElemSize() const { return getOperand(1); }

  static bool classof(const Value *V);
};

/// realloc(ptr, bytes). Types that are realloc'd are never transformed
/// (the paper collects the "re-allocated" attribute for this purpose).
class ReallocInst : public Instruction {
public:
  ReallocInst(TypeContext &Types, Value *Ptr, Value *SizeBytes,
              std::string Name)
      : Instruction(OpRealloc, Types.getBytePtrType(), std::move(Name)) {
    appendOperand(Ptr);
    appendOperand(SizeBytes);
  }

  Value *getPtr() const { return getOperand(0); }
  Value *getSizeBytes() const { return getOperand(1); }

  static bool classof(const Value *V);
};

/// free(ptr).
class FreeInst : public Instruction {
public:
  FreeInst(TypeContext &Types, Value *Ptr)
      : Instruction(OpFree, Types.getVoidType(), "") {
    appendOperand(Ptr);
  }

  Value *getPtr() const { return getOperand(0); }

  static bool classof(const Value *V);
};

/// memset(ptr, byteval, bytes). Record types reaching a memset are marked
/// invalid (the paper's MSET implementation limitation).
class MemsetInst : public Instruction {
public:
  MemsetInst(TypeContext &Types, Value *Ptr, Value *Byte, Value *SizeBytes)
      : Instruction(OpMemset, Types.getVoidType(), "") {
    appendOperand(Ptr);
    appendOperand(Byte);
    appendOperand(SizeBytes);
  }

  Value *getPtr() const { return getOperand(0); }
  Value *getByte() const { return getOperand(1); }
  Value *getSizeBytes() const { return getOperand(2); }

  static bool classof(const Value *V);
};

/// memcpy(dst, src, bytes).
class MemcpyInst : public Instruction {
public:
  MemcpyInst(TypeContext &Types, Value *Dst, Value *Src, Value *SizeBytes)
      : Instruction(OpMemcpy, Types.getVoidType(), "") {
    appendOperand(Dst);
    appendOperand(Src);
    appendOperand(SizeBytes);
  }

  Value *getDst() const { return getOperand(0); }
  Value *getSrc() const { return getOperand(1); }
  Value *getSizeBytes() const { return getOperand(2); }

  static bool classof(const Value *V);
};

} // namespace slo

#endif // SLO_IR_INSTRUCTIONS_H
