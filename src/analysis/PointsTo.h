//===- analysis/PointsTo.h - Field-sensitive points-to analysis -*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flow-insensitive, field-sensitive, context-insensitive Andersen-style
/// inclusion-based points-to analysis over the linked module. This is the
/// analysis the paper's Table 1 "Relax" column hypothesizes ("how many
/// types a field-sensitive points-to analysis could prove"): instead of
/// optimistically forgiving CSTT/CSTF/ATKN, the refinement layer on top of
/// this analysis proves (or fails to prove) each violation site.
///
/// Model:
///  - Abstract memory objects are created per allocation site: one per
///    alloca, one per malloc/calloc/realloc instruction, one per global
///    variable, one per function (for function pointers), plus a single
///    external object standing for all memory outside the program.
///  - Each object has a base cell (the object as a whole, what pointers
///    to the object point at) and lazily created field cells keyed by
///    byte offset (what FieldAddr results point at). Arrays of records
///    are smashed: all elements share the object's cells.
///  - Constraints: address-of (alloca/malloc/global/function), copy
///    (casts, index arithmetic, call argument/return wiring), field
///    projection (FieldAddr), load, store. Calls to library/external
///    declarations route through the external object.
///  - The solver is a worklist fixpoint with offline cycle collapsing
///    (Tarjan SCC over the copy graph, merged via union-find).
///  - Escape states form a lattice NoEscape < ArgEscape < GlobalEscape <
///    ExternalEscape, computed post-solve by reachability: objects
///    reachable from the external object's contents escape externally,
///    objects reachable from globals escape globally, objects passed to
///    analyzed functions escape as arguments.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_ANALYSIS_POINTSTO_H
#define SLO_ANALYSIS_POINTSTO_H

#include "ir/Module.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace slo {

/// How far an abstract object escapes. Order matters: higher values
/// escape further.
enum class EscapeState : uint8_t {
  NoEscape = 0,
  /// Passed to (or reachable from the arguments of) an analyzed function.
  ArgEscape = 1,
  /// Reachable from a global variable.
  GlobalEscape = 2,
  /// Reachable from outside the analysis scope (library/external calls,
  /// the external object).
  ExternalEscape = 3,
};

const char *escapeStateName(EscapeState E);

/// One abstract memory object.
struct MemObject {
  enum class Kind { Stack, Heap, Global, Function, External };
  Kind K = Kind::External;
  /// The alloca / malloc / calloc / realloc instruction, global variable,
  /// or function this object abstracts (null for the external object).
  const Value *Origin = nullptr;
  EscapeState Escape = EscapeState::NoEscape;
  /// Record types the object's memory is viewed as anywhere in the
  /// program (via typed pointers to the object).
  std::set<RecordType *> Views;

  /// Short rendering for justification strings ("heap:init_network").
  std::string describe() const;
};

/// Solver statistics (exposed for tests and the bench harness).
struct PointsToStats {
  unsigned NumValueNodes = 0;
  unsigned NumObjects = 0;
  unsigned NumCells = 0;
  unsigned NumCopyEdges = 0;
  unsigned NumComplexConstraints = 0;
  unsigned SolverPasses = 0;
  unsigned NodesCollapsed = 0;
};

/// The analysis result: per-value points-to sets over abstract objects,
/// escape states, record views, and indirect-call resolution.
class PointsToResult {
public:
  using ObjectID = uint32_t;

  /// Abstract objects \p V may point into (empty when V is untracked or
  /// provably null).
  std::vector<ObjectID> pointedObjects(const Value *V) const;

  const MemObject &object(ObjectID O) const { return Objects[O]; }
  unsigned numObjects() const { return static_cast<unsigned>(Objects.size()); }

  /// True when \p V may point to memory outside the analysis scope.
  bool pointsToExternal(const Value *V) const;

  /// The maximum escape state over the objects \p V may point into;
  /// ExternalEscape when V is untracked (nothing can be proven about it).
  EscapeState escapeOf(const Value *V) const;

  /// True when \p A and \p B may point at the same cell.
  bool mayAlias(const Value *A, const Value *B) const;

  /// All values (instructions, arguments, globals-as-addresses) whose
  /// points-to set intersects \p V's: everything that may denote the same
  /// memory cell. Includes \p V itself. The result follows
  /// trackedValues() order; an untracked \p V aliases every tracked value.
  /// Answered from inverted indexes, so the cost follows the size of the
  /// answer rather than the number of tracked values.
  std::vector<const Value *> aliasesOf(const Value *V) const;

  /// Objects whose memory is viewed as record \p R somewhere, ascending.
  std::vector<ObjectID> objectsViewedAs(const RecordType *R) const;

  /// Every tracked (non-constant) value, in visitation order.
  const std::vector<const Value *> &trackedValues() const {
    return TrackedValues;
  }

  /// Resolution of an indirect call: the possible targets, and whether
  /// the set is complete (the callee pointer cannot point outside the
  /// collected function set).
  struct CallTargets {
    std::vector<const Function *> Targets;
    bool Complete = false;
  };
  CallTargets callTargets(const IndirectCallInst *IC) const;

  const PointsToStats &stats() const { return Stats; }

private:
  friend class PointsToBuilder;

  /// Node id per tracked value (post-union-find representative).
  std::map<const Value *, uint32_t> ValueNode;
  /// Representative points-to set per node: cell ids.
  std::vector<std::vector<uint32_t>> NodePointsTo;
  /// Cell id -> owning object.
  std::vector<ObjectID> CellObject;
  /// Cell id of the external object's base cell.
  uint32_t ExternalCell = 0;
  std::vector<MemObject> Objects;
  /// Values in visitation order (for aliasesOf).
  std::vector<const Value *> TrackedValues;
  /// Inverted alias indexes, in compressed-row form: the tracked values
  /// (positions in TrackedValues, ascending) per representative node, and
  /// the representative nodes whose points-to set holds each cell. Row N
  /// of an index is [Begin[N], Begin[N + 1]).
  std::vector<uint32_t> NodeValueBegin, NodeValues;
  std::vector<uint32_t> CellNodeBegin, CellNodes;
  /// Record -> objects viewed as it (ascending object ids).
  std::map<const RecordType *, std::vector<ObjectID>> ObjectsByView;
  std::map<const IndirectCallInst *, CallTargets> IndirectTargets;
  PointsToStats Stats;
};

/// Runs the analysis over the linked module \p M.
PointsToResult analyzePointsTo(const Module &M);

} // namespace slo

#endif // SLO_ANALYSIS_POINTSTO_H
