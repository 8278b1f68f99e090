//===- analysis/Affinity.h - Field affinity and hotness --------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's profitability analysis (§2.3): loop-granularity affinity
/// groups, the per-type affinity graph, field hotness, and read/write
/// counts.
///
///  - Two fields are affine when they are referenced in the same loop;
///    field references in straight-line code form one group weighted by
///    the routine entry weight.
///  - Groups with identical field sets merge by adding weights.
///  - The affinity graph has an edge (i,j) summing the weights of all
///    groups containing both i and j; singleton groups contribute a
///    self-edge.
///  - Hotness of a field is the sum of its incident edge weights.
///
/// Weights come from a pluggable WeightSource so the same machinery
/// serves PBO (profiled edge counts), SPBO (local static estimates),
/// ISPBO (inter-procedurally scaled estimates) and the ISPBO.W variant.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_ANALYSIS_AFFINITY_H
#define SLO_ANALYSIS_AFFINITY_H

#include "ir/Module.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace slo {

class ModuleLoops;

/// Provides block and entry weights to the affinity analysis.
class WeightSource {
public:
  virtual ~WeightSource() = default;
  /// Globally scaled execution weight of \p BB.
  virtual double blockWeight(const BasicBlock *BB) const = 0;
  /// Weight for the function's straight-line affinity group ("the weight
  /// of the routine entry point").
  virtual double entryWeight(const Function *F) const = 0;
};

/// One merged affinity group of a record type.
struct AffinityGroup {
  std::vector<unsigned> FieldIndices; // Sorted, unique.
  double Weight = 0.0;
};

/// Affinity, hotness, and access statistics for one record type.
struct TypeFieldStats {
  RecordType *Rec = nullptr;
  std::vector<double> Reads;   // Per field, weighted.
  std::vector<double> Writes;  // Per field, weighted.
  std::vector<double> Hotness; // Per field: sum of incident edge weights.
  std::vector<AffinityGroup> Groups;
  /// Affinity graph: (i,j) with i <= j; (i,i) are self-edges from
  /// singleton groups.
  std::map<std::pair<unsigned, unsigned>, double> Affinity;

  /// Total type hotness: sum over fields (the advisor sorts types by
  /// this).
  double typeHotness() const;

  /// Per-field hotness as a percentage of the hottest field (the paper's
  /// "relative hotness", Table 2).
  std::vector<double> relativeHotness() const;

  /// Index of the hottest field (0 when the type was never referenced).
  unsigned hottestField() const;

  /// True when field \p I has reads or writes (or any affinity weight).
  bool isReferenced(unsigned I) const;
};

/// Results for every record type of a module.
class FieldStatsResult {
public:
  TypeFieldStats &getOrCreate(RecordType *Rec);
  const TypeFieldStats *get(const RecordType *Rec) const;
  const std::vector<RecordType *> &types() const { return Order; }

private:
  std::map<const RecordType *, TypeFieldStats> Map;
  std::vector<RecordType *> Order;
};

/// Runs the affinity/hotness analysis over every defined function, with
/// loops taken from \p Loops.
FieldStatsResult computeFieldStats(const Module &M, const WeightSource &WS,
                                   const ModuleLoops &Loops);

} // namespace slo

#endif // SLO_ANALYSIS_AFFINITY_H
