//===- transform/StructPeel.cpp - Structure peeling -----------------------===//

#include "transform/StructPeel.h"

#include "ir/IRBuilder.h"
#include "support/Casting.h"
#include "support/Error.h"
#include "transform/RewriteUtils.h"

using namespace slo;

//===----------------------------------------------------------------------===//
// Peelability analysis
//===----------------------------------------------------------------------===//

static PeelabilityInfo notPeelable(const std::string &Reason) {
  PeelabilityInfo Info;
  Info.Reason = Reason;
  return Info;
}

PeelabilityInfo slo::analyzePeelability(const Module &M, RecordType *Rec,
                                        const TypeLegality &Legal) {
  if (!Legal.isLegal(/*Relax=*/false))
    return notPeelable("type fails legality tests: " +
                       violationMaskToString(Legal.Violations));
  const TypeAttributes &A = Legal.Attrs;
  if (!A.DynamicallyAllocated)
    return notPeelable("type is never dynamically allocated");
  if (A.HasGlobalVar || A.HasLocalVar || A.HasStaticArray)
    return notPeelable("aggregate instances of the type exist");
  if (A.HasRecursivePtrField)
    return notPeelable("record fields hold pointers to the type");
  if (A.Reallocated)
    return notPeelable("type is realloc'd");
  if (A.PassedToFunction)
    return notPeelable("pointers to the type escape to functions");
  if (A.HasLocalPtr)
    return notPeelable("local pointer variables of the type exist");
  if (Legal.PointerGlobals.size() != 1)
    return notPeelable("need exactly one global pointer of the type");
  if (Legal.AllocSites.size() != 1)
    return notPeelable("need exactly one allocation site");
  if (Rec->getNumFields() < 2)
    return notPeelable("nothing to peel: fewer than two fields");

  GlobalVariable *G = Legal.PointerGlobals.front();
  if (cast<PointerType>(G->getType())->getPointee() !=
      M.getTypes().getPointerType(Rec))
    return notPeelable("the global pointer is not exactly T*");

  const AllocSiteInfo &Site = Legal.AllocSites.front();
  if (Site.Unanalyzable)
    return notPeelable("allocation size is not analyzable");

  // The cast result's single use must be the store into G, and that must
  // be the only store to G.
  Instruction *Cast = Site.CastToRecord;
  if (Cast->users().size() != 1)
    return notPeelable("allocation result has uses besides the store to "
                       "the global");
  auto *AllocStore = dyn_cast<StoreInst>(Cast->users().front());
  if (!AllocStore || AllocStore->getPointer() != G ||
      AllocStore->getStoredValue() != Cast)
    return notPeelable("allocation result does not flow into the global");

  // Every user of G must be the allocation store or a load whose users
  // form IndexAddr/FieldAddr chains.
  for (const Instruction *U : G->users()) {
    if (U == AllocStore)
      continue;
    const auto *Ld = dyn_cast<LoadInst>(U);
    if (!Ld)
      return notPeelable("the global pointer is used outside load/store "
                         "idioms");
    for (const Instruction *LU : Ld->users()) {
      switch (LU->getOpcode()) {
      case Instruction::OpIndexAddr: {
        for (const Instruction *IU : LU->users())
          if (IU->getOpcode() != Instruction::OpFieldAddr)
            return notPeelable("element pointers escape the field-access "
                               "idiom");
        continue;
      }
      case Instruction::OpFieldAddr:
        continue; // Element 0 access; field uses checked by legality/ATKN.
      case Instruction::OpICmpEQ:
      case Instruction::OpICmpNE:
        continue; // Null checks.
      case Instruction::OpFree:
        continue;
      default:
        return notPeelable("loaded pointer escapes the access idiom");
      }
    }
  }

  // Attributed sizeof(T) constants may only appear in the allocation's
  // size expression.
  for (const auto &F : M.functions()) {
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->instructions()) {
        for (unsigned Op = 0; Op < I->getNumOperands(); ++Op) {
          auto *C = dyn_cast<ConstantInt>(I->getOperand(Op));
          if (!C || C->getSizeOfRecord() != Rec)
            continue;
          bool InAllocExpr =
              I.get() == Site.Alloc ||
              (!I->users().empty() && I->users().front() == Site.Alloc);
          if (!InAllocExpr)
            return notPeelable("sizeof(T) used outside the allocation "
                               "site");
        }
      }
    }
  }

  PeelabilityInfo Info;
  Info.Peelable = true;
  Info.PeelGlobal = G;
  Info.Site = Site;
  return Info;
}

//===----------------------------------------------------------------------===//
// Peeling transformation
//===----------------------------------------------------------------------===//

namespace {

class Peeler {
public:
  Peeler(Module &M, const TypePlan &Plan, const PeelabilityInfo &Info)
      : M(M), Types(M.getTypes()), Ctx(M.getContext()), Plan(Plan),
        Info(Info), B(M.getContext()) {}

  PeelResult run() {
    assert(Plan.Kind == TransformKind::Peel && "not a peel plan");
    assert(Info.Peelable && "peeling an unpeelable type");
    // The peel rewrites the allocation and every user of the peeled
    // global; nothing else mentions the old or the new records.
    TouchedSet Touched;
    Touched.insert(Info.Site.Alloc->getFunction());
    for (Instruction *U : Info.PeelGlobal->users())
      Touched.insert(U->getFunction());
    buildGroups();
    rewriteAllocationSite();
    rewriteUses();
    Result.Touched = Touched.inModuleOrder(M);
    return Result;
  }

private:
  void buildGroups() {
    const std::string &Base = Plan.Rec->getRecordName();
    for (unsigned GI = 0; GI < Plan.PeelGroups.size(); ++GI) {
      const std::vector<unsigned> &Group = Plan.PeelGroups[GI];
      std::string Suffix;
      std::vector<Field> Fields;
      for (unsigned OldIdx : Group) {
        const Field &F = Plan.Rec->getField(OldIdx);
        Suffix += "." + F.Name;
        Result.FieldMap[OldIdx] = {GI,
                                   static_cast<unsigned>(Fields.size())};
        Fields.push_back({F.Name, F.Ty, 0, 0});
      }
      RecordType *Rec = Types.createUniqueRecord(Base + Suffix);
      Rec->setFields(std::move(Fields));
      Result.GroupRecs.push_back(Rec);
      GlobalVariable *G = M.createGlobal(
          Types.getPointerType(Rec),
          Info.PeelGlobal->getName() + Suffix);
      Result.GroupGlobals.push_back(G);
    }
  }

  Value *materializeCount() {
    if (Info.Site.CountValue)
      return Info.Site.CountValue;
    assert(Info.Site.ConstCount >= 0 && "unanalyzable site");
    return Ctx.getInt64(Info.Site.ConstCount);
  }

  void rewriteAllocationSite() {
    Instruction *Alloc = Info.Site.Alloc;
    Instruction *Cast = Info.Site.CastToRecord;
    StoreInst *AllocStore = cast<StoreInst>(Cast->users().front());
    bool IsCalloc = isa<CallocInst>(Alloc);
    Value *Count = materializeCount();

    B.setInsertBefore(Alloc);
    for (unsigned GI = 0; GI < Result.GroupRecs.size(); ++GI) {
      RecordType *Rec = Result.GroupRecs[GI];
      Value *Mem = nullptr;
      if (IsCalloc)
        Mem = B.createCalloc(Count, Ctx.getSizeOf(Rec), "peel.mem");
      else
        Mem = B.createMalloc(B.createBinary(Instruction::OpMul, Count,
                                            Ctx.getSizeOf(Rec),
                                            "peel.bytes"),
                             "peel.mem");
      Value *Typed = B.createCast(Instruction::OpBitcast, Mem,
                                  Types.getPointerType(Rec), "peel.base");
      B.createStore(Typed, Result.GroupGlobals[GI]);
    }

    // Remove the old allocation chain: store, cast, alloc.
    AllocStore->getParent()->erase(AllocStore);
    // The size expression (a Mul) may become dead; erase it after the
    // alloc.
    Value *SizeExpr = isa<MallocInst>(Alloc)
                          ? cast<MallocInst>(Alloc)->getSizeBytes()
                          : nullptr;
    Cast->getParent()->erase(Cast);
    BasicBlock *AllocBB = Alloc->getParent();
    AllocBB->erase(Alloc);
    if (SizeExpr)
      if (auto *SizeInst = dyn_cast<BinaryInst>(SizeExpr))
        if (!SizeInst->hasUsers())
          SizeInst->getParent()->erase(SizeInst);
  }

  void rewriteUses() {
    GlobalVariable *G = Info.PeelGlobal;
    std::vector<Instruction *> Loads(G->users().begin(), G->users().end());
    for (Instruction *U : Loads) {
      auto *Ld = cast<LoadInst>(U);
      rewriteLoad(Ld);
      if (!Ld->hasUsers())
        Ld->getParent()->erase(Ld);
    }
    // The peeled global itself stays (now unused) to preserve the
    // module's symbol table; it is never read again.
  }

  /// Loads a group's base pointer right before \p Before.
  Value *loadGroupBase(unsigned GI, Instruction *Before) {
    B.setInsertBefore(Before);
    return B.createLoad(Result.GroupGlobals[GI], "peel.p");
  }

  void rewriteLoad(LoadInst *Ld) {
    std::vector<Instruction *> Users(Ld->users().begin(), Ld->users().end());
    for (Instruction *U : Users) {
      switch (U->getOpcode()) {
      case Instruction::OpIndexAddr: {
        auto *IA = cast<IndexAddrInst>(U);
        std::vector<Instruction *> FAs(IA->users().begin(),
                                       IA->users().end());
        for (Instruction *FI : FAs)
          rewriteFieldAccess(cast<FieldAddrInst>(FI), IA->getIndex());
        if (!IA->hasUsers())
          IA->getParent()->erase(IA);
        break;
      }
      case Instruction::OpFieldAddr:
        rewriteFieldAccess(cast<FieldAddrInst>(U), nullptr);
        break;
      case Instruction::OpICmpEQ:
      case Instruction::OpICmpNE: {
        // Null check: substitute the first group's pointer.
        Value *NewP = loadGroupBase(0, U);
        for (unsigned Op = 0; Op < U->getNumOperands(); ++Op)
          if (U->getOperand(Op) == Ld)
            U->setOperand(Op, NewP);
        // Retype a null constant on the other side, if any.
        for (unsigned Op = 0; Op < U->getNumOperands(); ++Op)
          if (isa<ConstantNull>(U->getOperand(Op)))
            U->setOperand(Op, Ctx.getNullPtr(cast<PointerType>(
                                  NewP->getType())));
        break;
      }
      case Instruction::OpFree: {
        // free(P) -> free every group array.
        B.setInsertBefore(U);
        for (unsigned GI = 0; GI < Result.GroupGlobals.size(); ++GI) {
          Value *P = B.createLoad(Result.GroupGlobals[GI], "peel.free");
          B.createFree(P);
        }
        U->getParent()->erase(U);
        break;
      }
      default:
        reportFatalError("peeling: unexpected use survived the "
                         "peelability analysis");
      }
    }
  }

  /// Rewrites one access to field \p FA, indexed by \p Index (null means
  /// element 0).
  void rewriteFieldAccess(FieldAddrInst *FA, Value *Index) {
    unsigned OldIdx = FA->getFieldIndex();
    auto MapIt = Result.FieldMap.find(OldIdx);
    if (MapIt == Result.FieldMap.end()) {
      // Dead or unused field: delete the stores into it.
      std::vector<Instruction *> Users(FA->users().begin(),
                                       FA->users().end());
      for (Instruction *U : Users) {
        auto *St = dyn_cast<StoreInst>(U);
        if (!St || St->getPointer() != FA)
          reportFatalError("peeling: dead field has a non-store use");
        St->getParent()->erase(St);
      }
      FA->getParent()->erase(FA);
      return;
    }
    auto [GI, NewIdx] = MapIt->second;
    B.setInsertBefore(FA);
    Value *Base = B.createLoad(Result.GroupGlobals[GI], "peel.p");
    Value *Elem = Index ? B.createIndexAddr(Base, Index, "peel.elem") : Base;
    FieldAddrInst *NewFA = B.createFieldAddr(Elem, Result.GroupRecs[GI],
                                             NewIdx, FA->getField().Name);
    FA->replaceAllUsesWith(NewFA);
    FA->getParent()->erase(FA);
  }

  Module &M;
  TypeContext &Types;
  IRContext &Ctx;
  const TypePlan &Plan;
  const PeelabilityInfo &Info;
  IRBuilder B;
  PeelResult Result;
};

} // namespace

PeelResult slo::applyStructPeel(Module &M, const TypePlan &Plan,
                                const PeelabilityInfo &Info) {
  return Peeler(M, Plan, Info).run();
}
