//===- analysis/LegalityRefine.cpp - Points-to legality refinement --------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/LegalityRefine.h"

#include "ir/Instructions.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"

#include <vector>

using namespace slo;

namespace {

bool isCastOpcode(Instruction::Opcode Op) {
  return Op >= Instruction::OpTrunc && Op <= Instruction::OpIntToPtr;
}

bool isIntCmpOpcode(Instruction::Opcode Op) {
  return Op >= Instruction::OpICmpEQ && Op <= Instruction::OpICmpSGE;
}

std::string inFunction(const Instruction *I) {
  if (const Function *F = I->getFunction())
    return " in '" + F->getName() + "'";
  return "";
}

std::string viewsString(const MemObject &O) {
  // Views is ordered by name, so the rendered fact is stable across runs
  // (the incremental cache replays stored facts verbatim, so a fresh run
  // must produce the same string).
  std::string S;
  for (const RecordType *R : O.Views) {
    if (!S.empty())
      S += ", ";
    S += "'" + R->getRecordName() + "'";
  }
  return S.empty() ? "nothing" : S;
}

/// Returns the blocking reason if the foreign-typed alias \p W has a use
/// that depends on the record layout (CSTF discharge walk), "" otherwise.
/// Benign uses only move or compare the pointer: casts, compares, stores
/// of the pointer value, returns, and calls into analyzed code (the copy
/// each benign use produces is itself in the alias set and gets walked).
std::string foreignUseBlocks(const Value *W) {
  for (const Instruction *U : W->users()) {
    Instruction::Opcode Op = U->getOpcode();
    if (isCastOpcode(Op) || isIntCmpOpcode(Op) || Op == Instruction::OpRet)
      continue;
    if (Op == Instruction::OpStore && cast<StoreInst>(U)->getPointer() != W)
      continue;
    if (Op == Instruction::OpCall) {
      const Function *Callee = cast<CallInst>(U)->getCallee();
      if (!Callee->isDeclaration())
        continue;
      return "alias '" + W->getName() + "' escapes to '" + Callee->getName() +
             "'" + inFunction(U);
    }
    return std::string(Instruction::getOpcodeName(Op)) +
           " through foreign-typed alias '" + W->getName() + "'" +
           inFunction(U);
  }
  return "";
}

/// Returns the blocking reason if the field-address alias \p W has a use
/// other than moving the pointer inside analyzed code or accessing the
/// field through it (ATKN discharge walk), "" otherwise. Address
/// arithmetic, streaming, frees and escapes to unanalyzed code are
/// layout hazards.
std::string atknUseBlocks(const Value *W, const PointsToResult &PT) {
  for (const Instruction *U : W->users()) {
    Instruction::Opcode Op = U->getOpcode();
    if (Op == Instruction::OpLoad || isCastOpcode(Op) ||
        isIntCmpOpcode(Op) || Op == Instruction::OpRet)
      continue;
    if (Op == Instruction::OpStore) {
      const auto *SI = cast<StoreInst>(U);
      if (SI->getStoredValue() == W &&
          PT.escapeOf(SI->getPointer()) == EscapeState::ExternalEscape)
        return "field pointer stored to externally-reachable memory" +
               inFunction(U);
      continue;
    }
    if (Op == Instruction::OpCall) {
      const Function *Callee = cast<CallInst>(U)->getCallee();
      if (!Callee->isDeclaration())
        continue;
      return "field pointer escapes to '" + Callee->getName() + "'" +
             inFunction(U);
    }
    return "field pointer used by " + std::string(
               Instruction::getOpcodeName(Op)) + inFunction(U);
  }
  return "";
}

class Refiner {
public:
  Refiner(const LegalityResult &Legal, const PointsToResult &PT,
          DiagnosticEngine *Diags)
      : Legal(Legal), PT(PT), Diags(Diags) {}

  void run(std::map<const RecordType *, TypeRefinement> &Map,
           std::vector<RecordType *> &Order) {
    for (RecordType *R : Legal.types()) {
      Order.push_back(R);
      refineType(R, Legal.get(R), Map);
    }
  }

private:
  const LegalityResult &Legal;
  const PointsToResult &PT;
  DiagnosticEngine *Diags;

  void diagnose(DiagSeverity Sev, const ViolationSite &S, RecordType *R,
                const std::string &Message, const std::string &Fact) {
    if (!Diags)
      return;
    Diagnostic &D = Diags->report(Sev, violationName(S.Kind), Message);
    D.RecordName = R->getRecordName();
    D.Function = S.Function;
    D.Site = S.Detail;
    D.Fact = Fact;
  }

  SiteProof dischargeCSTT(const ViolationSite &S, RecordType *R) {
    SiteProof P;
    P.Site = &S;
    const auto *Cast = dyn_cast<CastInst>(S.Inst);
    if (!Cast) {
      P.Fact = "site is not a cast instruction";
      return P;
    }
    const Value *Src = Cast->getCastOperand();
    if (PT.pointsToExternal(Src)) {
      P.Fact = "cast source may point to external memory";
      return P;
    }
    std::vector<PointsToResult::ObjectID> Objs = PT.pointedObjects(Src);
    for (PointsToResult::ObjectID O : Objs) {
      const MemObject &MO = PT.object(O);
      if (MO.K != MemObject::Kind::Heap) {
        P.Fact = MO.describe() + " is not a heap allocation";
        return P;
      }
      if (MO.Escape == EscapeState::ExternalEscape) {
        P.Fact = MO.describe() + " escapes externally";
        return P;
      }
      if (MO.Views.size() != 1 || *MO.Views.begin() != R) {
        P.Fact = MO.describe() + " is viewed as " + viewsString(MO) +
                 ", not solely as '" + R->getRecordName() + "'";
        return P;
      }
    }
    P.Discharged = true;
    if (Objs.empty())
      P.Fact = "no allocation reaches the cast";
    else
      P.Fact = std::to_string(Objs.size()) +
               " heap allocation(s) viewed only as '" + R->getRecordName() +
               "', e.g. " + PT.object(Objs.front()).describe();
    return P;
  }

  SiteProof dischargeCSTF(const ViolationSite &S, RecordType *R) {
    SiteProof P;
    P.Site = &S;
    if (!S.Inst) {
      P.Fact = "site has no instruction";
      return P;
    }
    if (PT.escapeOf(S.Inst) == EscapeState::ExternalEscape) {
      P.Fact = "cast result may reach external memory";
      return P;
    }
    unsigned Foreign = 0;
    for (const Value *W : PT.aliasesOf(S.Inst)) {
      if (strippedRecord(W->getType()) == R)
        continue;
      ++Foreign;
      std::string Bad = foreignUseBlocks(W);
      if (!Bad.empty()) {
        P.Fact = Bad;
        return P;
      }
    }
    P.Discharged = true;
    P.Fact = "no layout-dependent use across " + std::to_string(Foreign) +
             " foreign-typed alias(es)";
    return P;
  }

  SiteProof dischargeATKN(const ViolationSite &S, TypeRefinement &TR) {
    SiteProof P;
    P.Site = &S;
    const auto *FA = dyn_cast<FieldAddrInst>(S.Inst);
    if (!FA) {
      P.Fact = "site is not a field-address instruction";
      return P;
    }
    EscapeState E = PT.escapeOf(FA->getBase());
    if (E == EscapeState::ExternalEscape) {
      P.Fact = "the object whose field address is taken escapes externally";
      return P;
    }
    std::vector<const Value *> Aliases = PT.aliasesOf(FA);
    for (const Value *W : Aliases) {
      std::string Bad = atknUseBlocks(W, PT);
      if (!Bad.empty()) {
        P.Fact = Bad;
        return P;
      }
    }
    P.Discharged = true;
    P.Fact = "field address confined to analyzed code across " +
             std::to_string(Aliases.size()) + " alias(es); object escape <= " +
             escapeStateName(E);
    TR.AddressTakenLiveFields.insert(FA->getFieldIndex());
    return P;
  }

  SiteProof resolveIND(const ViolationSite &S, RecordType *R,
                       TypeRefinement &TR) {
    // IND is never discharged: the Relax upper bound does not forgive it
    // either, and forgiving it here would break Legal <= Proven <= Relax.
    SiteProof P;
    P.Site = &S;
    const auto *IC = dyn_cast<IndirectCallInst>(S.Inst);
    if (!IC) {
      P.Fact = "site is not an indirect call";
      return P;
    }
    PointsToResult::CallTargets T = PT.callTargets(IC);
    if (!T.Complete || T.Targets.empty()) {
      P.Fact = "indirect call targets could not be fully resolved";
      return P;
    }
    std::string Names;
    for (const Function *F : T.Targets) {
      if (!Names.empty())
        Names += ", ";
      Names += "'" + F->getName() + "'";
    }
    P.Fact = "indirect call fully resolves to " +
             std::to_string(T.Targets.size()) + " analyzed function(s): " +
             Names;
    ++TR.ResolvedIndirectSites;
    diagnose(DiagSeverity::Note, S, R,
             "indirect call resolved (informational; IND is not discharged)",
             P.Fact);
    return P;
  }

  void refineType(RecordType *R, const TypeLegality &L,
                  std::map<const RecordType *, TypeRefinement> &Map) {
    TypeRefinement TR;
    TR.Rec = R;
    const uint32_t RelaxMask = violationBit(Violation::CSTT) |
                               violationBit(Violation::CSTF) |
                               violationBit(Violation::ATKN);
    bool OnlyRelaxable = (L.Violations & ~RelaxMask) == 0;
    bool AllDischarged = true;

    for (const ViolationSite &S : L.Sites) {
      switch (S.Kind) {
      case Violation::CSTT: {
        SiteProof P = dischargeCSTT(S, R);
        diagnose(P.Discharged ? DiagSeverity::Remark : DiagSeverity::Warning,
                 S, R,
                 P.Discharged ? "cast-to-record violation discharged"
                              : "cast-to-record violation not discharged",
                 P.Fact);
        AllDischarged &= P.Discharged;
        TR.Proofs.push_back(std::move(P));
        break;
      }
      case Violation::CSTF: {
        SiteProof P = dischargeCSTF(S, R);
        diagnose(P.Discharged ? DiagSeverity::Remark : DiagSeverity::Warning,
                 S, R,
                 P.Discharged ? "cast-from-record violation discharged"
                              : "cast-from-record violation not discharged",
                 P.Fact);
        AllDischarged &= P.Discharged;
        TR.Proofs.push_back(std::move(P));
        break;
      }
      case Violation::ATKN: {
        SiteProof P = dischargeATKN(S, TR);
        diagnose(P.Discharged ? DiagSeverity::Remark : DiagSeverity::Warning,
                 S, R,
                 P.Discharged ? "address-taken violation discharged"
                              : "address-taken violation not discharged",
                 P.Fact);
        AllDischarged &= P.Discharged;
        TR.Proofs.push_back(std::move(P));
        break;
      }
      case Violation::IND:
        TR.Proofs.push_back(resolveIND(S, R, TR));
        break;
      default:
        // Non-relaxable violations (LIBC, MSET, NEST, ...) have no proof
        // obligations; they already make the type unprovable.
        break;
      }
    }

    TR.ProvenLegal = OnlyRelaxable && AllDischarged;
    TR.TransformSafe = TR.ProvenLegal && heapAllocsRewritable(R, L);

    if (Diags && TR.ProvenLegal && L.Violations != 0) {
      Diagnostic &D = Diags->report(
          DiagSeverity::Remark, "PROVEN",
          "all violation sites discharged; the Relax upper bound is realized");
      D.RecordName = R->getRecordName();
      D.Fact = TR.TransformSafe
                   ? "every heap allocation is a rewritable allocation site"
                   : "allocation sites are not rewritable; advisory only";
    }

    Map.emplace(R, std::move(TR));
  }

  /// A proven type may only be transformed when every heap object viewed
  /// as the type is one of the allocation sites the transformations know
  /// how to rewrite; a wrapper-allocated object has no such site, and
  /// transforming the type would leave its cold links uninitialized.
  bool heapAllocsRewritable(RecordType *R, const TypeLegality &L) {
    std::set<const Value *> Rewritable;
    for (const AllocSiteInfo &AS : L.AllocSites)
      if (!AS.Unanalyzable)
        Rewritable.insert(AS.Alloc);
    for (PointsToResult::ObjectID O : PT.objectsViewedAs(R)) {
      const MemObject &MO = PT.object(O);
      switch (MO.K) {
      case MemObject::Kind::Heap:
        if (!Rewritable.count(MO.Origin))
          return false;
        break;
      case MemObject::Kind::Stack:
      case MemObject::Kind::Global:
        break;
      case MemObject::Kind::Function:
      case MemObject::Kind::External:
        return false;
      }
    }
    return true;
  }
};

} // namespace

const TypeRefinement *RefinementResult::get(const RecordType *Rec) const {
  auto It = Map.find(Rec);
  return It == Map.end() ? nullptr : &It->second;
}

bool RefinementResult::isProvenLegal(const RecordType *Rec) const {
  const TypeRefinement *TR = get(Rec);
  return TR && TR->ProvenLegal;
}

bool RefinementResult::isTransformSafe(const RecordType *Rec) const {
  const TypeRefinement *TR = get(Rec);
  return TR && TR->TransformSafe;
}

std::vector<RecordType *> RefinementResult::provenTypes() const {
  std::vector<RecordType *> Out;
  for (RecordType *R : Order)
    if (isProvenLegal(R))
      Out.push_back(R);
  return Out;
}

RefinementResult slo::refineLegality(const Module &, const LegalityResult &Legal,
                                     const PointsToResult &PT,
                                     DiagnosticEngine *Diags,
                                     const LayoutPinnings *Pins) {
  RefinementResult Res;
  Refiner(Legal, PT, Diags).run(Res.Map, Res.Order);
  if (!Pins || Pins->empty())
    return Res;
  // The lint layer's layout-pinning facts override the per-site proofs:
  // a pinned type's concrete layout is observed through a foreign lens,
  // so discharging its cast sites individually is not enough. Strictly
  // legal types are exempt (pinning implies a recorded CSTT/CSTF/ATKN
  // violation, so this never breaks Legal <= Proven).
  for (auto &[Rec, TR] : Res.Map) {
    if (!Pins->isPinned(Rec))
      continue;
    if (Legal.get(Rec).isLegal(false))
      continue;
    if (TR.ProvenLegal && Diags) {
      Diagnostic &D = Diags->report(
          DiagSeverity::Warning, "PINNED",
          "demoted out of Proven: layout is pinned by a lint finding");
      D.RecordName = Rec->getRecordName();
      D.Fact = Pins->Reasons.at(Rec);
    }
    TR.ProvenLegal = false;
    TR.TransformSafe = false;
  }
  return Res;
}
