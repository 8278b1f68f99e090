//===- transform/StructSplit.cpp - Structure splitting --------------------===//

#include "transform/StructSplit.h"

#include "ir/IRBuilder.h"
#include "support/Casting.h"
#include "support/Error.h"
#include "transform/RewriteUtils.h"

#include <algorithm>

using namespace slo;

namespace {

/// Performs one split; a class to share state between the phases.
class Splitter {
public:
  Splitter(Module &M, const TypePlan &Plan, const TypeLegality &Legal)
      : M(M), Types(M.getTypes()), Ctx(M.getContext()), Plan(Plan),
        Legal(Legal), B(M.getContext()) {}

  SplitResult run() {
    assert(Plan.Kind == TransformKind::Split && "not a split plan");
    buildNewRecords();
    // Every attributed sizeof(T) becomes sizeof(T.hot), the allocation
    // sizes included; rewriteAllocSize handles the plain-constant forms.
    std::vector<FieldAddrInst *> Accesses;
    substituteRecord(M, Plan.Rec, Result.HotRec, Accesses, Touched);
    rewriteFieldAccesses(Accesses);
    rewriteAllocationSites();
    rewriteFreeSites();
    Result.Touched = Touched.inModuleOrder(M);
    return Result;
  }

private:
  void buildNewRecords() {
    const std::string &Base = Plan.Rec->getRecordName();
    RecordType *Hot = Types.createUniqueRecord(Base + ".hot");
    RecordType *Cold = nullptr;
    if (!Plan.ColdFields.empty())
      Cold = Types.createUniqueRecord(Base + ".cold");

    // Recursive pointer fields (T* inside T, like mcf's pred/child) must
    // point at the new hot record.
    auto FieldTy = [&](const Field &F) {
      return remapType(Types, F.Ty, Plan.Rec, Hot);
    };

    std::vector<Field> ColdFields;
    for (unsigned OldIdx : Plan.ColdFields) {
      const Field &F = Plan.Rec->getField(OldIdx);
      Result.FieldMap[OldIdx] = {Cold,
                                 static_cast<unsigned>(ColdFields.size())};
      ColdFields.push_back({F.Name, FieldTy(F), 0, 0});
    }
    if (Cold)
      Cold->setFields(std::move(ColdFields));

    std::vector<Field> HotFields;
    for (unsigned OldIdx : Plan.HotFields) {
      const Field &F = Plan.Rec->getField(OldIdx);
      Result.FieldMap[OldIdx] = {Hot,
                                 static_cast<unsigned>(HotFields.size())};
      HotFields.push_back({F.Name, FieldTy(F), 0, 0});
    }
    if (Cold) {
      Result.LinkFieldIndex = static_cast<unsigned>(HotFields.size());
      HotFields.push_back(
          {"cold_link", Types.getPointerType(Cold), 0, 0});
    }
    Hot->setFields(std::move(HotFields));

    Result.HotRec = Hot;
    Result.ColdRec = Cold;
  }

  /// Rewrites the FieldAddr instructions on the old record, collected
  /// by the substitution walk before any of them is erased.
  void rewriteFieldAccesses(const std::vector<FieldAddrInst *> &Accesses) {
    for (FieldAddrInst *FA : Accesses) {
      unsigned OldIdx = FA->getFieldIndex();
      auto MapIt = Result.FieldMap.find(OldIdx);
      if (MapIt == Result.FieldMap.end()) {
        // Dead or unused field: every remaining user is a store through
        // the address (guaranteed by the deadness analysis).
        eraseDeadAccess(FA);
        continue;
      }
      auto [NewRec, NewIdx] = MapIt->second;
      if (NewRec == Result.HotRec) {
        FA->setTarget(Types, Result.HotRec, NewIdx);
        continue;
      }
      // Cold field: chase the link pointer. This inserts the extra load
      // whose cost the paper's §2.4 discussion is about.
      B.setInsertBefore(FA);
      Value *LinkAddr = B.createFieldAddr(FA->getBase(), Result.HotRec,
                                          Result.LinkFieldIndex, "link.addr");
      Value *LinkVal = B.createLoad(LinkAddr, "link");
      FieldAddrInst *NewFA = B.createFieldAddr(
          LinkVal, Result.ColdRec, NewIdx, FA->getField().Name);
      FA->replaceAllUsesWith(NewFA);
      FA->getParent()->erase(FA);
    }
  }

  void eraseDeadAccess(FieldAddrInst *FA) {
    std::vector<Instruction *> Users(FA->users().begin(), FA->users().end());
    for (Instruction *U : Users) {
      auto *St = dyn_cast<StoreInst>(U);
      if (!St || St->getPointer() != FA)
        reportFatalError("dead field '" +
                         Plan.Rec->getField(FA->getFieldIndex()).Name +
                         "' has a non-store use; planner bug");
      St->getParent()->erase(St);
    }
    FA->getParent()->erase(FA);
  }

  /// The count value is an operand of the original size expression; it
  /// dominates the allocation.
  Value *materializeCount(const AllocSiteInfo &Site) {
    if (Site.CountValue)
      return Site.CountValue;
    assert(Site.ConstCount >= 0 && "unanalyzable site slipped through");
    return Ctx.getInt64(Site.ConstCount);
  }

  void rewriteAllocationSites() {
    for (const AllocSiteInfo &Site : Legal.AllocSites) {
      Touched.insert(Site.Alloc->getFunction());
      // Retarget the original allocation's size to the hot record.
      rewriteAllocSize(Site.Alloc, Result.HotRec);
      if (!Result.ColdRec)
        continue;

      // After the bitcast: allocate the cold array and initialize the
      // link pointers.
      Instruction *Cast = Site.CastToRecord;
      Value *Count = materializeCount(Site);

      B.setInsertPoint(Cast->getParent());
      // Insert right after the cast: split the block there, then build
      // the loop between the pieces.
      BasicBlock *Head = Cast->getParent();
      BasicBlock *Tail = splitBlockAfter(Head, Cast, "split.done");

      B.setInsertPoint(Head);
      Value *ColdMem = nullptr;
      if (isa<CallocInst>(Site.Alloc))
        ColdMem = B.createCalloc(Count, Ctx.getSizeOf(Result.ColdRec),
                                 "cold.mem");
      else
        ColdMem = B.createMalloc(
            B.createBinary(Instruction::OpMul, Count,
                           Ctx.getSizeOf(Result.ColdRec), "cold.bytes"),
            "cold.mem");
      Value *ColdBase = B.createCast(
          Instruction::OpBitcast, ColdMem,
          Types.getPointerType(Result.ColdRec), "cold.base");

      // Loop counter slot in the entry block.
      Function *F = Head->getParent();
      AllocaInst *IdxSlot = nullptr;
      {
        BasicBlock *Entry = F->getEntry();
        if (Entry->getTerminator())
          B.setInsertBefore(Entry->getTerminator());
        else
          B.setInsertPoint(Entry);
        IdxSlot = B.createAlloca(Types.getI64(), "link.i");
      }

      BasicBlock *LoopHdr = F->createBlock("link.hdr");
      BasicBlock *LoopBody = F->createBlock("link.body");

      B.setInsertPoint(Head);
      B.createStore(Ctx.getInt64(0), IdxSlot);
      B.createBr(LoopHdr);

      B.setInsertPoint(LoopHdr);
      Value *Iv = B.createLoad(IdxSlot, "i");
      Value *InLoop =
          B.createCmp(Instruction::OpICmpSLT, Iv, Count, "link.cmp");
      B.createCondBr(InLoop, LoopBody, Tail);

      B.setInsertPoint(LoopBody);
      Value *HotElem = B.createIndexAddr(Cast, Iv, "hot.elem");
      Value *ColdElem = B.createIndexAddr(ColdBase, Iv, "cold.elem");
      Value *LinkAddr = B.createFieldAddr(HotElem, Result.HotRec,
                                          Result.LinkFieldIndex, "link.slot");
      B.createStore(ColdElem, LinkAddr);
      B.createStore(B.createBinary(Instruction::OpAdd, Iv, Ctx.getInt64(1)),
                    IdxSlot);
      B.createBr(LoopHdr);

      F->renumberBlocks();
    }
  }

  /// Swaps the sizeof(T) factor inside the allocation's size expression
  /// for sizeof(NewRec). An attributed sizeof(T) was already swapped by
  /// the substitution walk; only plain constants are left to rewrite.
  void rewriteAllocSize(Instruction *Alloc, RecordType *NewRec) {
    ConstantInt *NewSize = Ctx.getSizeOf(NewRec);
    int64_t OldSize = static_cast<int64_t>(Plan.Rec->getSize());

    auto RewriteOperand = [&](Instruction *I, unsigned Op) {
      Value *V = I->getOperand(Op);
      if (auto *C = dyn_cast<ConstantInt>(V)) {
        if (C == NewSize)
          return true;
        if (!C->isSizeOf() && C->getValue() % OldSize == 0) {
          // Plain constant N*sizeof folded by the programmer.
          int64_t N = C->getValue() / OldSize;
          I->setOperand(
              Op, Ctx.getInt64(N * static_cast<int64_t>(NewRec->getSize())));
          return true;
        }
      }
      if (auto *Mul = dyn_cast<BinaryInst>(V)) {
        // Prefer the attributed sizeof operand; a plain constant count
        // can numerically collide with sizeof(T).
        for (unsigned Side = 0; Side < 2; ++Side)
          if (Mul->getOperand(Side) == NewSize)
            return true;
        for (unsigned Side = 0; Side < 2; ++Side) {
          auto *C = dyn_cast<ConstantInt>(Mul->getOperand(Side));
          if (C && !C->isSizeOf() && C->getValue() == OldSize) {
            Mul->setOperand(Side, NewSize);
            return true;
          }
        }
      }
      return false;
    };

    bool Ok = false;
    if (isa<MallocInst>(Alloc))
      Ok = RewriteOperand(Alloc, 0);
    else if (isa<CallocInst>(Alloc))
      Ok = RewriteOperand(Alloc, 1);
    if (!Ok)
      reportFatalError("could not rewrite allocation size for '" +
                       Plan.Rec->getRecordName() + "'");
  }

  void rewriteFreeSites() {
    if (!Result.ColdRec)
      return;
    for (Instruction *FreeI : Legal.FreeSites) {
      auto *Fr = cast<FreeInst>(FreeI);
      Touched.insert(Fr->getFunction());
      // free(p): free p->cold_link first (p points at element 0, whose
      // link is the cold array base).
      B.setInsertBefore(Fr);
      Value *LinkAddr =
          B.createFieldAddr(Fr->getPtr(), Result.HotRec,
                            Result.LinkFieldIndex, "free.link.addr");
      Value *ColdBase = B.createLoad(LinkAddr, "free.cold");
      B.createFree(ColdBase);
    }
  }

  Module &M;
  TypeContext &Types;
  IRContext &Ctx;
  const TypePlan &Plan;
  const TypeLegality &Legal;
  IRBuilder B;
  TouchedSet Touched;
  SplitResult Result;
};

} // namespace

SplitResult slo::applyStructSplit(Module &M, const TypePlan &Plan,
                                  const TypeLegality &Legal) {
  return Splitter(M, Plan, Legal).run();
}
