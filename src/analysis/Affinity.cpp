//===- analysis/Affinity.cpp - Field affinity and hotness -----------------===//

#include "analysis/Affinity.h"

#include "analysis/StaticEstimator.h"
#include "support/Casting.h"

#include <algorithm>
#include <set>

using namespace slo;

double TypeFieldStats::typeHotness() const {
  double Sum = 0.0;
  for (double H : Hotness)
    Sum += H;
  return Sum;
}

std::vector<double> TypeFieldStats::relativeHotness() const {
  double Max = 0.0;
  for (double H : Hotness)
    Max = std::max(Max, H);
  std::vector<double> Out(Hotness.size(), 0.0);
  if (Max <= 0.0)
    return Out;
  for (size_t I = 0; I < Hotness.size(); ++I)
    Out[I] = 100.0 * Hotness[I] / Max;
  return Out;
}

unsigned TypeFieldStats::hottestField() const {
  unsigned Best = 0;
  for (unsigned I = 1; I < Hotness.size(); ++I)
    if (Hotness[I] > Hotness[Best])
      Best = I;
  return Best;
}

bool TypeFieldStats::isReferenced(unsigned I) const {
  return Reads[I] > 0.0 || Writes[I] > 0.0 || Hotness[I] > 0.0;
}

TypeFieldStats &FieldStatsResult::getOrCreate(RecordType *Rec) {
  auto It = Map.find(Rec);
  if (It != Map.end())
    return It->second;
  TypeFieldStats &S = Map[Rec];
  S.Rec = Rec;
  S.Reads.assign(Rec->getNumFields(), 0.0);
  S.Writes.assign(Rec->getNumFields(), 0.0);
  S.Hotness.assign(Rec->getNumFields(), 0.0);
  Order.push_back(Rec);
  return S;
}

const TypeFieldStats *FieldStatsResult::get(const RecordType *Rec) const {
  auto It = Map.find(Rec);
  return It == Map.end() ? nullptr : &It->second;
}

namespace {

/// Collects raw (unmerged) groups per function, merges them, and folds
/// them into the affinity graphs.
class AffinityCollector {
public:
  AffinityCollector(const Module &M, const WeightSource &WS,
                    const ModuleLoops &Loops)
      : M(M), WS(WS), Loops(Loops) {}

  FieldStatsResult run() {
    // Make every completed record present, so cold types still report.
    for (RecordType *R : M.getTypes().records())
      if (!R->isOpaque())
        Result.getOrCreate(R);

    for (const auto &F : M.functions())
      if (!F->isDeclaration())
        collectFunction(*F);

    mergeGroupsIntoGraphs();
    return std::move(Result);
  }

private:
  struct RawGroup {
    RecordType *Rec;
    std::set<unsigned> Fields;
    double Weight;
  };

  void collectFunction(const Function &F) {
    const LoopInfo &LI = Loops.get(&F).LI;

    // Partition the function's field references by innermost loop: region
    // 0 is straight-line code, region 1 + i is the loop with index i. The
    // fixed region order fixes the order of the weight sums below.
    std::vector<std::map<RecordType *, std::set<unsigned>>> RegionFields(
        LI.loops().size() + 1);
    for (const auto &BB : F.blocks()) {
      const Loop *L = LI.getLoopFor(BB.get());
      for (const auto &I : BB->instructions()) {
        const auto *FA = dyn_cast<FieldAddrInst>(I.get());
        if (!FA)
          continue;
        RegionFields[L ? L->getIndex() + 1 : 0][FA->getRecord()].insert(
            FA->getFieldIndex());
        countReadsWrites(*FA, BB.get());
      }
    }

    for (size_t Region = 0; Region < RegionFields.size(); ++Region) {
      const auto &PerType = RegionFields[Region];
      if (PerType.empty())
        continue;
      double W = Region ? WS.blockWeight(LI.loops()[Region - 1]->getHeader())
                        : WS.entryWeight(&F);
      if (W <= 0.0)
        continue;
      for (auto &[Rec, Fields] : PerType)
        Raw.push_back({Rec, Fields, W});
    }
  }

  void countReadsWrites(const FieldAddrInst &FA, const BasicBlock *BB) {
    double W = WS.blockWeight(BB);
    TypeFieldStats &S = Result.getOrCreate(FA.getRecord());
    unsigned Idx = FA.getFieldIndex();
    for (const Instruction *U : FA.users()) {
      if (U->getOpcode() == Instruction::OpStore &&
          cast<StoreInst>(U)->getPointer() == &FA)
        S.Writes[Idx] += W;
      else
        S.Reads[Idx] += W; // Loads and escaping uses count as reads.
    }
  }

  void mergeGroupsIntoGraphs() {
    // Merge identical (type, field-set) groups by adding weights.
    std::map<std::pair<RecordType *, std::vector<unsigned>>, double> Merged;
    for (const RawGroup &G : Raw) {
      std::vector<unsigned> Key(G.Fields.begin(), G.Fields.end());
      Merged[{G.Rec, Key}] += G.Weight;
    }

    for (auto &[Key, Weight] : Merged) {
      auto &[Rec, Fields] = Key;
      TypeFieldStats &S = Result.getOrCreate(Rec);
      AffinityGroup AG;
      AG.FieldIndices = Fields;
      AG.Weight = Weight;
      S.Groups.push_back(AG);

      if (Fields.size() == 1) {
        // Singleton group: self-edge.
        S.Affinity[{Fields[0], Fields[0]}] += Weight;
      } else {
        for (size_t A = 0; A < Fields.size(); ++A)
          for (size_t B_ = A + 1; B_ < Fields.size(); ++B_)
            S.Affinity[{Fields[A], Fields[B_]}] += Weight;
      }
    }

    // Hotness: sum of incident edge weights (self-edges count once).
    for (RecordType *R : Result.types()) {
      TypeFieldStats &S = Result.getOrCreate(R);
      for (auto &[Edge, W] : S.Affinity) {
        S.Hotness[Edge.first] += W;
        if (Edge.second != Edge.first)
          S.Hotness[Edge.second] += W;
      }
    }
  }

  const Module &M;
  const WeightSource &WS;
  const ModuleLoops &Loops;
  FieldStatsResult Result;
  std::vector<RawGroup> Raw;
};

} // namespace

FieldStatsResult slo::computeFieldStats(const Module &M,
                                        const WeightSource &WS,
                                        const ModuleLoops &Loops) {
  return AffinityCollector(M, WS, Loops).run();
}
