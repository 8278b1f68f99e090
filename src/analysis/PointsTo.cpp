//===- analysis/PointsTo.cpp - Field-sensitive points-to analysis ---------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/PointsTo.h"

#include "analysis/Legality.h"
#include "ir/Instructions.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace slo;

const char *slo::escapeStateName(EscapeState E) {
  switch (E) {
  case EscapeState::NoEscape:
    return "no-escape";
  case EscapeState::ArgEscape:
    return "arg-escape";
  case EscapeState::GlobalEscape:
    return "global-escape";
  case EscapeState::ExternalEscape:
    return "external-escape";
  }
  return "?";
}

std::string MemObject::describe() const {
  auto originName = [&]() -> std::string {
    if (!Origin)
      return "";
    if (const auto *I = dyn_cast<Instruction>(Origin)) {
      std::string S = "'" + I->getName() + "'";
      if (const Function *F = I->getFunction())
        S += " in '" + F->getName() + "'";
      return S;
    }
    return "'" + Origin->getName() + "'";
  };
  switch (K) {
  case Kind::Stack:
    return "stack " + originName();
  case Kind::Heap:
    return "heap " + originName();
  case Kind::Global:
    return "global " + originName();
  case Kind::Function:
    return "function " + originName();
  case Kind::External:
    return "external memory";
  }
  return "?";
}

namespace {

/// Field offsets are clamped to this bound; any cell past it collapses to
/// one sentinel cell per object, guaranteeing solver termination even for
/// adversarial field-of-field cycles laundered through casts.
constexpr int64_t kMaxFieldOffset = 1 << 20;

/// Offset of the base cell (the object as a whole); field cells use their
/// byte offset, which is always >= 0.
constexpr int64_t kBaseCell = -1;

/// A set of cell ids, sorted ascending.
using CellSet = std::vector<uint32_t>;

/// Inserts \p Cell into the sorted set \p S; false if it was there.
bool insertSorted(std::vector<uint32_t> &S, uint32_t Cell) {
  auto It = std::lower_bound(S.begin(), S.end(), Cell);
  if (It != S.end() && *It == Cell)
    return false;
  S.insert(It, Cell);
  return true;
}

/// \p S = \p S ∪ \p T, both sorted; \p Tmp is scratch.
void mergeSorted(CellSet &S, const CellSet &T, CellSet &Tmp) {
  if (S.empty()) {
    S = T;
    return;
  }
  Tmp.clear();
  Tmp.reserve(S.size() + T.size());
  std::set_union(S.begin(), S.end(), T.begin(), T.end(),
                 std::back_inserter(Tmp));
  S.swap(Tmp);
}

uint64_t edgeKey(uint32_t From, uint32_t To) {
  return (static_cast<uint64_t>(From) << 32) | To;
}

/// One singly linked list per node, all in one pool: appending allocates
/// nothing per node. Items appended during a walk are visited by that
/// walk.
template <typename T> class NodeLists {
public:
  static constexpr uint32_t End = ~0u;

  void addNode() {
    Head.push_back(End);
    Tail.push_back(End);
  }
  void append(uint32_t N, T Item) {
    uint32_t I = static_cast<uint32_t>(Items.size());
    Items.push_back({Item, End});
    (Tail[N] == End ? Head[N] : Items[Tail[N]].second) = I;
    Tail[N] = I;
  }
  uint32_t first(uint32_t N) const { return Head[N]; }
  uint32_t next(uint32_t I) const { return Items[I].second; }
  /// By value: an append may move the pool.
  T at(uint32_t I) const { return Items[I].first; }

private:
  std::vector<std::pair<T, uint32_t>> Items;
  std::vector<uint32_t> Head, Tail;
};

} // namespace

namespace slo {

/// Builds the constraint graph for one module and solves it.
///
/// Nodes are numbered densely: one per value as the collect walk first
/// meets it, one per function's return, one per cell. Each node keeps its
/// points-to set and the part of it not yet pushed through its copy edges
/// and complex constraints (its delta), so a pass over a node costs what
/// is new at the node, not its whole set. Nodes never merge while
/// solving; one Tarjan walk at the fixpoint merges the copy cycles.
class PointsToBuilder {
public:
  explicit PointsToBuilder(const Module &M) : M(M) {}

  PointsToResult run();

private:
  using ObjectID = PointsToResult::ObjectID;

  struct Complex {
    enum Kind {
      Load,      // Other = destination value node
      Store,     // Other = stored value node
      Field,     // Other = result node, Off = field byte offset
      ExtStore,  // external code may write external pointers through *this
      ICall,     // IC = the indirect call to wire on resolution
      MemcpyDst, // Other = memcpy index; this node is its destination
      MemcpySrc, // Other = memcpy index; this node is its source
    };
    Kind K;
    uint32_t Other = 0;
    int64_t Off = 0;
    const IndirectCallInst *IC = nullptr;
  };

  /// One memcpy: every cell of every source object flows into the cell at
  /// the same offset of every destination object.
  struct Memcpy {
    std::vector<ObjectID> SrcObjs, DstObjs; // sorted
  };

  const Module &M;

  // --- Node space: one node per value, function return and cell. ---
  std::vector<CellSet> Pts;   // cells pointed to
  std::vector<CellSet> Delta; // cells not yet propagated
  NodeLists<uint32_t> Succ;   // copy edges
  NodeLists<Complex> Cplx;    // complex constraints
  std::vector<char> InWork;
  std::deque<uint32_t> Worklist;
  /// Copy edges present, keyed by their endpoints.
  FlatHashMap<uint64_t, bool> Edges;
  /// The node each node merged into at the fixpoint (itself if none).
  std::vector<uint32_t> Rep;
  CellSet Scratch, NewCells;
  bool Solving = false;

  FlatHashMap<const Value *, uint32_t> ValNode;
  std::vector<const Value *> TrackedValues;
  FlatHashMap<const Function *, uint32_t> RetNode;

  // --- Objects and cells. ---
  std::vector<MemObject> Objects;
  /// Per object, its cells as (offset, cell id), sorted by offset.
  std::vector<std::vector<std::pair<int64_t, uint32_t>>> ObjCells;
  std::vector<uint32_t> CellNode;   // cell id -> its node
  std::vector<ObjectID> CellObject; // cell id -> owning object
  std::vector<int64_t> CellOffset;  // cell id -> offset (kBaseCell for base)
  ObjectID ExternalObj = 0;
  uint32_t ExternalCellId = 0;

  std::vector<Memcpy> Memcpys;
  /// Per object, the memcpys it is a source of.
  std::vector<std::vector<uint32_t>> MemcpyFromObj;
  /// Cells created in memcpy source objects, not yet copied.
  std::vector<uint32_t> NewSrcCells;

  // Indirect-call bookkeeping.
  std::vector<const IndirectCallInst *> IndirectCalls;
  std::set<std::pair<const IndirectCallInst *, const Function *>> Wired;
  std::set<const IndirectCallInst *> ExtRouted;

  std::map<const RecordType *, std::vector<ObjectID>> ObjectsByView;
  PointsToStats Stats;

  uint32_t newNode() {
    uint32_t N = static_cast<uint32_t>(Pts.size());
    Pts.emplace_back();
    Delta.emplace_back();
    Succ.addNode();
    Cplx.addNode();
    InWork.push_back(0);
    return N;
  }

  void push(uint32_t N) {
    if (!InWork[N]) {
      InWork[N] = 1;
      Worklist.push_back(N);
    }
  }

  /// Adds the cells of \p Src missing from node \p N to its set and its
  /// delta; true if any was new.
  bool addCells(uint32_t N, const CellSet &Src) {
    if (Src.size() == 1)
      return addCell(N, Src[0]);
    NewCells.clear();
    std::set_difference(Src.begin(), Src.end(), Pts[N].begin(), Pts[N].end(),
                        std::back_inserter(NewCells));
    if (NewCells.empty())
      return false;
    mergeSorted(Pts[N], NewCells, Scratch);
    mergeSorted(Delta[N], NewCells, Scratch);
    push(N);
    return true;
  }

  bool addCell(uint32_t N, uint32_t Cell) {
    if (!insertSorted(Pts[N], Cell))
      return false;
    insertSorted(Delta[N], Cell);
    push(N);
    return true;
  }

  // Graph construction -----------------------------------------------------
  uint32_t valueNode(const Value *V) {
    auto [Slot, Inserted] = ValNode.tryEmplace(V, 0);
    if (!Inserted)
      return *Slot;
    uint32_t N = *Slot = newNode();
    if (!isConstant(V))
      TrackedValues.push_back(V);
    // Address-producing values seed their own points-to set.
    if (const auto *GV = dyn_cast<GlobalVariable>(V))
      addCell(N, baseCell(newObject(MemObject::Kind::Global, GV)));
    else if (const auto *F = dyn_cast<Function>(V))
      addCell(N, baseCell(newObject(MemObject::Kind::Function, F)));
    return N;
  }

  uint32_t retNode(const Function *F) {
    auto [Slot, Inserted] = RetNode.tryEmplace(F, 0);
    if (Inserted)
      *Slot = newNode();
    return *Slot;
  }

  ObjectID newObject(MemObject::Kind K, const Value *Origin) {
    MemObject O;
    O.K = K;
    O.Origin = Origin;
    Objects.push_back(std::move(O));
    ObjCells.emplace_back();
    MemcpyFromObj.emplace_back();
    return static_cast<ObjectID>(Objects.size() - 1);
  }

  uint32_t getCell(ObjectID O, int64_t Off) {
    if (Off > kMaxFieldOffset)
      Off = kMaxFieldOffset;
    std::vector<std::pair<int64_t, uint32_t>> &Cells = ObjCells[O];
    auto It = std::lower_bound(
        Cells.begin(), Cells.end(), Off,
        [](const std::pair<int64_t, uint32_t> &C, int64_t K) {
          return C.first < K;
        });
    if (It != Cells.end() && It->first == Off)
      return It->second;
    uint32_t Cell = static_cast<uint32_t>(CellNode.size());
    Cells.insert(It, {Off, Cell});
    CellNode.push_back(newNode());
    CellObject.push_back(O);
    CellOffset.push_back(Off);
    if (!MemcpyFromObj[O].empty())
      NewSrcCells.push_back(Cell);
    return Cell;
  }

  uint32_t baseCell(ObjectID O) { return getCell(O, kBaseCell); }

  /// Adds the copy edge From -> To; true if it is new.
  bool addEdge(uint32_t From, uint32_t To) {
    if (From == To || !Edges.insert(edgeKey(From, To)))
      return false;
    Succ.append(From, To);
    ++Stats.NumCopyEdges;
    // A new edge carries the whole source set, not just its delta.
    if (!Pts[From].empty())
      addCells(To, Pts[From]);
    return true;
  }

  void addComplex(uint32_t N, Complex C) {
    Cplx.append(N, C);
    ++Stats.NumComplexConstraints;
    // While solving, the node may already have propagated cells the new
    // constraint has not seen. During collection nothing has propagated,
    // and leaving the constraint to the node's first pop keeps indirect
    // call wiring, which can number new values, after the collect walk.
    if (Solving) {
      CellSet Cells = Pts[N];
      for (uint32_t Cell : Cells)
        apply(C, Cell);
    }
  }

  // Constraint generation --------------------------------------------------
  void collectGlobals();
  void collectFunction(const Function &F);
  void collectInstruction(const Instruction &I);
  void externalCallArg(const Value *Arg);
  void wireCall(const IndirectCallInst *IC, const Function *F);
  void routeExternalICall(const IndirectCallInst *IC);

  // Solver -----------------------------------------------------------------
  void solve();
  void apply(const Complex &C, uint32_t Cell);
  void copyCells(ObjectID From, ObjectID To);
  void drainNewSrcCells();
  void collapseCycles();
  bool clobberExternallyReachable();
  std::vector<char> reachableObjects(const std::vector<ObjectID> &Seeds);

  // Post-solve -------------------------------------------------------------
  void computeEscapes();
  void computeViews();
  PointsToResult finish();
};

} // namespace slo

void PointsToBuilder::externalCallArg(const Value *Arg) {
  uint32_t N = valueNode(Arg);
  // Everything the argument points to becomes part of external memory, and
  // external code may overwrite the pointed-to cells with external pointers.
  addEdge(N, CellNode[ExternalCellId]);
  addComplex(N, Complex{Complex::ExtStore, 0, 0, nullptr});
}

void PointsToBuilder::collectGlobals() {
  for (const auto &GV : M.globals())
    valueNode(GV.get());
}

void PointsToBuilder::collectFunction(const Function &F) {
  for (unsigned I = 0; I < F.getNumArgs(); ++I)
    valueNode(F.getArg(I));
  for (const auto &BB : F.blocks())
    for (const auto &Inst : BB->instructions())
      collectInstruction(*Inst);
}

void PointsToBuilder::collectInstruction(const Instruction &I) {
  switch (I.getOpcode()) {
  case Instruction::OpAlloca:
    addCell(valueNode(&I), baseCell(newObject(MemObject::Kind::Stack, &I)));
    break;
  case Instruction::OpMalloc:
  case Instruction::OpCalloc:
    addCell(valueNode(&I), baseCell(newObject(MemObject::Kind::Heap, &I)));
    break;
  case Instruction::OpRealloc:
    addCell(valueNode(&I), baseCell(newObject(MemObject::Kind::Heap, &I)));
    // The reallocated block aliases the original pointer's objects.
    addEdge(valueNode(cast<ReallocInst>(&I)->getPtr()), valueNode(&I));
    break;
  case Instruction::OpLoad:
    addComplex(valueNode(cast<LoadInst>(&I)->getPointer()),
               Complex{Complex::Load, valueNode(&I), 0, nullptr});
    break;
  case Instruction::OpStore: {
    const auto *SI = cast<StoreInst>(&I);
    addComplex(valueNode(SI->getPointer()),
               Complex{Complex::Store, valueNode(SI->getStoredValue()), 0,
                       nullptr});
    break;
  }
  case Instruction::OpFieldAddr: {
    const auto *FA = cast<FieldAddrInst>(&I);
    addComplex(valueNode(FA->getBase()),
               Complex{Complex::Field, valueNode(&I),
                       static_cast<int64_t>(FA->getField().Offset), nullptr});
    break;
  }
  case Instruction::OpIndexAddr:
    // Array elements are smashed: indexing stays within the same cells.
    addEdge(valueNode(cast<IndexAddrInst>(&I)->getBase()), valueNode(&I));
    break;
  case Instruction::OpTrunc:
  case Instruction::OpSExt:
  case Instruction::OpZExt:
  case Instruction::OpBitcast:
  case Instruction::OpPtrToInt:
  case Instruction::OpIntToPtr:
    // Value-preserving casts, including pointer laundering through
    // integers: the result may denote whatever the operand denotes.
    addEdge(valueNode(cast<CastInst>(&I)->getCastOperand()), valueNode(&I));
    break;
  case Instruction::OpAdd:
  case Instruction::OpSub:
  case Instruction::OpMul:
  case Instruction::OpSDiv:
  case Instruction::OpSRem:
  case Instruction::OpAnd:
  case Instruction::OpOr:
  case Instruction::OpXor:
  case Instruction::OpShl:
  case Instruction::OpAShr:
    // Laundered pointer bits may survive integer arithmetic.
    addEdge(valueNode(cast<BinaryInst>(&I)->getLHS()), valueNode(&I));
    addEdge(valueNode(cast<BinaryInst>(&I)->getRHS()), valueNode(&I));
    break;
  case Instruction::OpCall: {
    const auto *CI = cast<CallInst>(&I);
    const Function *Callee = CI->getCallee();
    if (Callee->isDeclaration()) {
      // Library or unresolved external: arguments escape to external
      // memory, the result may point anywhere external.
      for (unsigned A = 0; A < CI->getNumArgs(); ++A)
        externalCallArg(CI->getArg(A));
      addEdge(CellNode[ExternalCellId], valueNode(&I));
    } else {
      unsigned N = std::min(CI->getNumArgs(), Callee->getNumArgs());
      for (unsigned A = 0; A < N; ++A)
        addEdge(valueNode(CI->getArg(A)), valueNode(Callee->getArg(A)));
      addEdge(retNode(Callee), valueNode(&I));
    }
    break;
  }
  case Instruction::OpICall: {
    const auto *IC = cast<IndirectCallInst>(&I);
    IndirectCalls.push_back(IC);
    // Number the arguments now, in walk order, rather than when the
    // solver first wires a target: trackedValues() order is output.
    for (unsigned A = 0; A < IC->getNumArgs(); ++A)
      valueNode(IC->getArg(A));
    addComplex(valueNode(IC->getCalleePtr()),
               Complex{Complex::ICall, valueNode(&I), 0, IC});
    break;
  }
  case Instruction::OpRet: {
    const auto *RI = cast<RetInst>(&I);
    if (RI->hasValue())
      addEdge(valueNode(RI->getValue()), retNode(I.getFunction()));
    break;
  }
  case Instruction::OpMemcpy: {
    const auto *MC = cast<MemcpyInst>(&I);
    uint32_t Index = static_cast<uint32_t>(Memcpys.size());
    Memcpys.emplace_back();
    uint32_t Dst = valueNode(MC->getDst()), Src = valueNode(MC->getSrc());
    Cplx.append(Dst, Complex{Complex::MemcpyDst, Index, 0, nullptr});
    Cplx.append(Src, Complex{Complex::MemcpySrc, Index, 0, nullptr});
    ++Stats.NumComplexConstraints;
    break;
  }
  default:
    // Comparisons, FP arithmetic, FP casts, branches, free, memset: no
    // pointer flow.
    break;
  }
}

void PointsToBuilder::wireCall(const IndirectCallInst *IC, const Function *F) {
  if (!Wired.insert({IC, F}).second)
    return;
  if (F->isDeclaration()) {
    routeExternalICall(IC);
    return;
  }
  unsigned N = std::min(IC->getNumArgs(), F->getNumArgs());
  for (unsigned A = 0; A < N; ++A)
    addEdge(valueNode(IC->getArg(A)), valueNode(F->getArg(A)));
  addEdge(retNode(F), valueNode(IC));
}

void PointsToBuilder::routeExternalICall(const IndirectCallInst *IC) {
  if (!ExtRouted.insert(IC).second)
    return;
  for (unsigned A = 0; A < IC->getNumArgs(); ++A)
    externalCallArg(IC->getArg(A));
  addEdge(CellNode[ExternalCellId], valueNode(IC));
}

void PointsToBuilder::apply(const Complex &C, uint32_t Cell) {
  switch (C.K) {
  case Complex::Load:
    addEdge(CellNode[Cell], C.Other);
    break;
  case Complex::Store:
    addEdge(C.Other, CellNode[Cell]);
    break;
  case Complex::Field: {
    int64_t Base = CellOffset[Cell] == kBaseCell ? 0 : CellOffset[Cell];
    addCell(C.Other, getCell(CellObject[Cell], Base + C.Off));
    break;
  }
  case Complex::ExtStore:
    addEdge(CellNode[ExternalCellId], CellNode[Cell]);
    break;
  case Complex::ICall: {
    const MemObject &O = Objects[CellObject[Cell]];
    if (O.K == MemObject::Kind::Function && CellOffset[Cell] == kBaseCell)
      wireCall(C.IC, cast<Function>(O.Origin));
    else
      routeExternalICall(C.IC);
    break;
  }
  case Complex::MemcpyDst: {
    ObjectID DO = CellObject[Cell];
    if (!insertSorted(Memcpys[C.Other].DstObjs, DO))
      break;
    for (size_t I = 0; I < Memcpys[C.Other].SrcObjs.size(); ++I)
      copyCells(Memcpys[C.Other].SrcObjs[I], DO);
    break;
  }
  case Complex::MemcpySrc: {
    ObjectID SO = CellObject[Cell];
    if (!insertSorted(Memcpys[C.Other].SrcObjs, SO))
      break;
    MemcpyFromObj[SO].push_back(C.Other);
    for (size_t I = 0; I < Memcpys[C.Other].DstObjs.size(); ++I)
      copyCells(SO, Memcpys[C.Other].DstObjs[I]);
    break;
  }
  }
}

void PointsToBuilder::copyCells(ObjectID From, ObjectID To) {
  // Cells From gains meanwhile are copied by drainNewSrcCells.
  for (size_t I = 0; I < ObjCells[From].size(); ++I) {
    auto [Off, Cell] = ObjCells[From][I];
    addEdge(CellNode[Cell], CellNode[getCell(To, Off)]);
  }
}

void PointsToBuilder::drainNewSrcCells() {
  while (!NewSrcCells.empty()) {
    uint32_t Cell = NewSrcCells.back();
    NewSrcCells.pop_back();
    ObjectID O = CellObject[Cell];
    for (uint32_t MI : MemcpyFromObj[O])
      for (size_t I = 0; I < Memcpys[MI].DstObjs.size(); ++I)
        addEdge(CellNode[Cell],
                CellNode[getCell(Memcpys[MI].DstObjs[I], CellOffset[Cell])]);
  }
}

void PointsToBuilder::solve() {
  ++Stats.SolverPasses;
  CellSet D;
  while (!Worklist.empty() || !NewSrcCells.empty()) {
    drainNewSrcCells();
    if (Worklist.empty())
      continue;
    uint32_t N = Worklist.front();
    Worklist.pop_front();
    InWork[N] = 0;
    if (Delta[N].empty())
      continue;
    D.clear();
    D.swap(Delta[N]);
    // Complex constraints and copy edges see only the new cells.
    for (uint32_t I = Cplx.first(N); I != Cplx.End; I = Cplx.next(I)) {
      Complex C = Cplx.at(I);
      for (uint32_t Cell : D)
        apply(C, Cell);
    }
    for (uint32_t I = Succ.first(N); I != Succ.End; I = Succ.next(I))
      addCells(Succ.at(I), D);
  }
}

void PointsToBuilder::collapseCycles() {
  // Values sharing a node alias even with empty sets, so the partition
  // must be exactly the SCCs of the final copy graph. At the fixpoint
  // every member of a cycle holds the same set: pointing the members at
  // one of them is all that is left to do. Iterative Tarjan.
  uint32_t NumNodes = static_cast<uint32_t>(Pts.size());
  Rep.resize(NumNodes);
  std::vector<uint32_t> Index(NumNodes, 0), Low(NumNodes, 0), Stack;
  std::vector<char> OnStack(NumNodes, 0);
  std::vector<std::pair<uint32_t, uint32_t>> CallStack; // (node, next edge)
  uint32_t NextIndex = 1;

  auto enter = [&](uint32_t N) {
    Index[N] = Low[N] = NextIndex++;
    Stack.push_back(N);
    OnStack[N] = 1;
    CallStack.push_back({N, Succ.first(N)});
  };
  for (uint32_t Root = 0; Root < NumNodes; ++Root) {
    if (Index[Root])
      continue;
    enter(Root);
    while (!CallStack.empty()) {
      auto &[N, Next] = CallStack.back();
      if (Next != Succ.End) {
        uint32_t W = Succ.at(Next);
        Next = Succ.next(Next);
        if (!Index[W])
          enter(W);
        else if (OnStack[W])
          Low[N] = std::min(Low[N], Index[W]);
        continue;
      }
      uint32_t Done = N;
      CallStack.pop_back();
      if (!CallStack.empty()) {
        uint32_t Up = CallStack.back().first;
        Low[Up] = std::min(Low[Up], Low[Done]);
      }
      if (Low[Done] != Index[Done])
        continue;
      uint32_t W;
      do {
        W = Stack.back();
        Stack.pop_back();
        OnStack[W] = 0;
        Rep[W] = Done;
        assert(Pts[W] == Pts[Done] && "cycle members differ at fixpoint");
        if (W != Done)
          ++Stats.NodesCollapsed;
      } while (W != Done);
    }
  }
}

std::vector<char>
PointsToBuilder::reachableObjects(const std::vector<ObjectID> &Seeds) {
  // If one cell of an object is reachable, the whole object is.
  std::vector<char> Seen(Objects.size(), 0);
  std::vector<ObjectID> Queue;
  auto visit = [&](ObjectID O) {
    if (!Seen[O]) {
      Seen[O] = 1;
      Queue.push_back(O);
    }
  };
  for (ObjectID O : Seeds)
    visit(O);
  while (!Queue.empty()) {
    ObjectID O = Queue.back();
    Queue.pop_back();
    for (const auto &[Off, Cell] : ObjCells[O])
      for (uint32_t C : Pts[CellNode[Cell]])
        visit(CellObject[C]);
  }
  return Seen;
}

bool PointsToBuilder::clobberExternallyReachable() {
  // External code can write external pointers into any memory reachable
  // from external memory. Feed that back into the solution.
  std::vector<char> Ext = reachableObjects({ExternalObj});
  uint32_t ExtNode = CellNode[ExternalCellId];
  bool Changed = false;
  for (ObjectID O = 0; O < Objects.size(); ++O) {
    if (!Ext[O])
      continue;
    for (size_t I = 0; I < ObjCells[O].size(); ++I) {
      uint32_t Node = CellNode[ObjCells[O][I].second];
      Changed |= addCell(Node, ExternalCellId);
      Changed |= addEdge(ExtNode, Node);
    }
  }
  return Changed;
}

void PointsToBuilder::computeEscapes() {
  auto markAll = [&](const std::vector<char> &Reached, EscapeState E) {
    for (ObjectID O = 0; O < Objects.size(); ++O)
      if (Reached[O] && Objects[O].Escape < E)
        Objects[O].Escape = E;
  };

  // External: reachable from external memory.
  markAll(reachableObjects({ExternalObj}), EscapeState::ExternalEscape);

  // Global: reachable from global objects.
  std::vector<ObjectID> GlobalSeeds;
  for (ObjectID O = 0; O < Objects.size(); ++O)
    if (Objects[O].K == MemObject::Kind::Global)
      GlobalSeeds.push_back(O);
  markAll(reachableObjects(GlobalSeeds), EscapeState::GlobalEscape);

  // Arg: reachable from the formal arguments of analyzed functions.
  std::vector<ObjectID> ArgSeeds;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    for (unsigned I = 0; I < F->getNumArgs(); ++I) {
      const uint32_t *N = ValNode.find(F->getArg(I));
      if (!N)
        continue;
      for (uint32_t C : Pts[*N])
        ArgSeeds.push_back(CellObject[C]);
    }
  }
  markAll(reachableObjects(ArgSeeds), EscapeState::ArgEscape);

  Objects[ExternalObj].Escape = EscapeState::ExternalEscape;
}

void PointsToBuilder::computeViews() {
  // Objects declared with a record type are viewed as that record.
  for (MemObject &O : Objects) {
    Type *DeclTy = nullptr;
    if (O.K == MemObject::Kind::Stack)
      DeclTy = cast<AllocaInst>(O.Origin)->getAllocatedType();
    else if (O.K == MemObject::Kind::Global)
      DeclTy = cast<GlobalVariable>(O.Origin)->getValueType();
    if (!DeclTy)
      continue;
    while (auto *AT = dyn_cast<ArrayType>(DeclTy))
      DeclTy = AT->getElementType();
    if (auto *R = dyn_cast<RecordType>(DeclTy))
      O.Views.insert(R);
  }
  // Every typed pointer into an object views it as the pointee record.
  // Only one pointer level is stripped: a T** names an object holding a
  // T* value, not an object laid out as T.
  for (const Value *V : TrackedValues) {
    auto *PT = dyn_cast<PointerType>(V->getType());
    if (!PT)
      continue;
    Type *Pointee = PT->getPointee();
    while (auto *AT = dyn_cast<ArrayType>(Pointee))
      Pointee = AT->getElementType();
    auto *R = dyn_cast<RecordType>(Pointee);
    if (!R)
      continue;
    for (uint32_t C : Pts[*ValNode.find(V)])
      Objects[CellObject[C]].Views.insert(R);
  }
  // Invert the views once, so objectsViewedAs need not scan every object.
  for (ObjectID O = 0; O < Objects.size(); ++O)
    for (RecordType *R : Objects[O].Views)
      ObjectsByView[R].push_back(O);
}

namespace {

/// Fills a compressed-row index of \p NumRows rows. \p ForEachEntry
/// calls its argument with every (row, entry) pair, in the order each
/// row should list its entries; it runs twice, to size and to fill.
template <typename ForEachEntryFn>
void buildRows(size_t NumRows, ForEachEntryFn ForEachEntry,
               std::vector<uint32_t> &Begin, std::vector<uint32_t> &Entries) {
  Begin.assign(NumRows + 1, 0);
  ForEachEntry([&](uint32_t Row, uint32_t) { ++Begin[Row + 1]; });
  for (size_t R = 0; R < NumRows; ++R)
    Begin[R + 1] += Begin[R];
  Entries.resize(Begin[NumRows]);
  std::vector<uint32_t> Next(Begin.begin(), Begin.end() - 1);
  ForEachEntry(
      [&](uint32_t Row, uint32_t Entry) { Entries[Next[Row]++] = Entry; });
}

} // namespace

PointsToResult PointsToBuilder::finish() {
  PointsToResult Res;

  // Resolve indirect calls from the final callee-pointer sets. Targets
  // follow module order, so rendered facts do not depend on addresses.
  FlatHashMap<const Function *, size_t> FnPosition;
  if (!IndirectCalls.empty())
    for (const auto &F : M.functions())
      FnPosition.tryEmplace(F.get(), FnPosition.size());
  for (const IndirectCallInst *IC : IndirectCalls) {
    PointsToResult::CallTargets T;
    T.Complete = true;
    for (uint32_t C : Pts[*ValNode.find(IC->getCalleePtr())]) {
      const MemObject &O = Objects[CellObject[C]];
      if (O.K == MemObject::Kind::Function && CellOffset[C] == kBaseCell) {
        const auto *F = cast<Function>(O.Origin);
        T.Targets.push_back(F);
        if (F->isDeclaration())
          T.Complete = false;
      } else {
        T.Complete = false;
      }
    }
    std::sort(T.Targets.begin(), T.Targets.end(),
              [&](const Function *A, const Function *B) {
                return *FnPosition.find(A) < *FnPosition.find(B);
              });
    Res.IndirectTargets.emplace(IC, std::move(T));
  }

  Stats.NumValueNodes = static_cast<unsigned>(ValNode.size());
  Stats.NumObjects = static_cast<unsigned>(Objects.size());
  Stats.NumCells = static_cast<unsigned>(CellNode.size());
  Res.Stats = Stats;

  // Compact: map every value to its representative's final set.
  uint32_t NumNodes = static_cast<uint32_t>(Pts.size());
  Res.NodePointsTo.resize(NumNodes);
  for (uint32_t N = 0; N < NumNodes; ++N)
    if (Rep[N] == N)
      Res.NodePointsTo[N] = std::move(Pts[N]);
  ValNode.forEach([&](const Value *, uint32_t &N) { N = Rep[N]; });

  // The alias indexes: tracked values per node, then, per cell, the
  // nodes that point at it and denote at least one tracked value.
  std::vector<uint32_t> NodeOf;
  NodeOf.reserve(TrackedValues.size());
  for (const Value *V : TrackedValues)
    NodeOf.push_back(*ValNode.find(V));
  buildRows(
      NumNodes,
      [&](auto Emit) {
        for (uint32_t Pos = 0; Pos < NodeOf.size(); ++Pos)
          Emit(NodeOf[Pos], Pos);
      },
      Res.NodeValueBegin, Res.NodeValues);
  buildRows(
      CellNode.size(),
      [&](auto Emit) {
        for (uint32_t N = 0; N < NumNodes; ++N)
          if (Res.NodeValueBegin[N] != Res.NodeValueBegin[N + 1])
            for (uint32_t C : Res.NodePointsTo[N])
              Emit(C, N);
      },
      Res.CellNodeBegin, Res.CellNodes);

  Res.ValueNode = std::move(ValNode);
  Res.Objects = std::move(Objects);
  Res.CellObject = std::move(CellObject);
  Res.ExternalCell = ExternalCellId;
  Res.TrackedValues = std::move(TrackedValues);
  Res.ObjectsByView = std::move(ObjectsByView);
  return Res;
}

PointsToResult PointsToBuilder::run() {
  // The external object: one abstraction of all memory outside the
  // analysis scope. Its base cell points to itself (external memory
  // contains pointers to external memory).
  ExternalObj = newObject(MemObject::Kind::External, nullptr);
  ExternalCellId = baseCell(ExternalObj);
  addCell(CellNode[ExternalCellId], ExternalCellId);

  // About one node per value: size the hashed maps once.
  size_t NumValues = M.globals().size();
  for (const auto &F : M.functions()) {
    NumValues += F->getNumArgs() + 1;
    for (const auto &BB : F->blocks())
      NumValues += BB->instructions().size();
  }
  ValNode.reserve(NumValues);
  Edges.reserve(NumValues);

  collectGlobals();
  for (const auto &F : M.functions())
    collectFunction(*F);

  Solving = true;
  solve();
  while (clobberExternallyReachable())
    solve();
  collapseCycles();

  computeEscapes();
  computeViews();
  return finish();
}

PointsToResult slo::analyzePointsTo(const Module &M) {
  return PointsToBuilder(M).run();
}

// PointsToResult queries ---------------------------------------------------

std::vector<PointsToResult::ObjectID>
PointsToResult::pointedObjects(const Value *V) const {
  std::vector<ObjectID> Out;
  const uint32_t *N = ValueNode.find(V);
  if (!N)
    return Out;
  for (uint32_t C : NodePointsTo[*N])
    Out.push_back(CellObject[C]);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

bool PointsToResult::pointsToExternal(const Value *V) const {
  const uint32_t *N = ValueNode.find(V);
  if (!N)
    return true;
  for (uint32_t C : NodePointsTo[*N])
    if (Objects[CellObject[C]].K == MemObject::Kind::External)
      return true;
  return false;
}

EscapeState PointsToResult::escapeOf(const Value *V) const {
  const uint32_t *N = ValueNode.find(V);
  if (!N)
    return EscapeState::ExternalEscape;
  EscapeState E = EscapeState::NoEscape;
  for (uint32_t C : NodePointsTo[*N])
    E = std::max(E, Objects[CellObject[C]].Escape);
  return E;
}

bool PointsToResult::mayAlias(const Value *A, const Value *B) const {
  const uint32_t *NA = ValueNode.find(A), *NB = ValueNode.find(B);
  if (!NA || !NB)
    return true;
  if (*NA == *NB)
    return true;
  const auto &PA = NodePointsTo[*NA];
  const auto &PB = NodePointsTo[*NB];
  // Both sets are sorted.
  size_t I = 0, J = 0;
  while (I < PA.size() && J < PB.size()) {
    if (PA[I] == PB[J])
      return true;
    if (PA[I] < PB[J])
      ++I;
    else
      ++J;
  }
  return false;
}

std::vector<const Value *> PointsToResult::aliasesOf(const Value *V) const {
  const uint32_t *N = ValueNode.find(V);
  if (!N)
    return TrackedValues;
  // The nodes that may alias V: its own, and each node sharing a cell.
  uint32_t Node = *N;
  std::vector<uint32_t> Nodes{Node};
  for (uint32_t C : NodePointsTo[Node])
    Nodes.insert(Nodes.end(), CellNodes.begin() + CellNodeBegin[C],
                 CellNodes.begin() + CellNodeBegin[C + 1]);
  std::sort(Nodes.begin(), Nodes.end());
  Nodes.erase(std::unique(Nodes.begin(), Nodes.end()), Nodes.end());
  // Their values, back in TrackedValues order: the first blocking alias
  // names a refinement fact, so the order is part of the output.
  std::vector<uint32_t> Positions;
  for (uint32_t N : Nodes)
    Positions.insert(Positions.end(), NodeValues.begin() + NodeValueBegin[N],
                     NodeValues.begin() + NodeValueBegin[N + 1]);
  std::sort(Positions.begin(), Positions.end());
  std::vector<const Value *> Out;
  Out.reserve(Positions.size());
  for (uint32_t Pos : Positions)
    Out.push_back(TrackedValues[Pos]);
  return Out;
}

std::vector<PointsToResult::ObjectID>
PointsToResult::objectsViewedAs(const RecordType *R) const {
  auto It = ObjectsByView.find(R);
  return It == ObjectsByView.end() ? std::vector<ObjectID>() : It->second;
}

PointsToResult::CallTargets
PointsToResult::callTargets(const IndirectCallInst *IC) const {
  auto It = IndirectTargets.find(IC);
  if (It == IndirectTargets.end())
    return CallTargets();
  return It->second;
}
