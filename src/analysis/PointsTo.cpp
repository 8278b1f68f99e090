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

} // namespace

namespace slo {

/// Builds the constraint graph for one module and solves it.
class PointsToBuilder {
public:
  explicit PointsToBuilder(const Module &M) : M(M) {}

  PointsToResult run();

private:
  using ObjectID = PointsToResult::ObjectID;

  struct Complex {
    enum Kind {
      Load,    // Other = destination value node
      Store,   // Other = stored value node
      Field,   // Other = result node, Off = field byte offset
      ExtStore, // external code may write external pointers through *this
      ICall,   // IC = the indirect call to wire on resolution
    };
    Kind K;
    uint32_t Other = 0;
    int64_t Off = 0;
    const IndirectCallInst *IC = nullptr;
  };

  const Module &M;

  // --- Node space: one node per tracked value plus one per cell. ---
  std::vector<uint32_t> Parent;              // union-find
  std::vector<std::set<uint32_t>> Pts;       // cells pointed to, per rep
  std::vector<std::set<uint32_t>> Succ;      // copy edges, per rep
  std::vector<std::vector<Complex>> Cplx;    // complex constraints, per rep
  std::vector<char> InWork;
  std::deque<uint32_t> Worklist;
  bool AnyChange = false;

  std::map<const Value *, uint32_t> ValNode;
  std::vector<const Value *> TrackedValues;
  std::map<const Function *, uint32_t> RetNode;

  // --- Objects and cells. ---
  std::vector<MemObject> Objects;
  std::map<std::pair<ObjectID, int64_t>, uint32_t> CellMap;
  std::vector<uint32_t> CellNode;   // cell id -> its node
  std::vector<ObjectID> CellObject; // cell id -> owning object
  std::vector<int64_t> CellOffset;  // cell id -> offset (kBaseCell for base)
  ObjectID ExternalObj = 0;
  uint32_t ExternalCellId = 0;

  // Indirect-call bookkeeping.
  std::vector<const IndirectCallInst *> IndirectCalls;
  std::set<std::pair<const IndirectCallInst *, const Function *>> Wired;
  std::set<const IndirectCallInst *> ExtRouted;

  std::map<const RecordType *, std::vector<ObjectID>> ObjectsByView;
  PointsToStats Stats;

  // Union-find -------------------------------------------------------------
  uint32_t find(uint32_t N) {
    while (Parent[N] != N) {
      Parent[N] = Parent[Parent[N]];
      N = Parent[N];
    }
    return N;
  }

  uint32_t newNode() {
    uint32_t N = static_cast<uint32_t>(Parent.size());
    Parent.push_back(N);
    Pts.emplace_back();
    Succ.emplace_back();
    Cplx.emplace_back();
    InWork.push_back(0);
    return N;
  }

  void push(uint32_t N) {
    N = find(N);
    if (!InWork[N]) {
      InWork[N] = 1;
      Worklist.push_back(N);
    }
  }

  /// Merges node \p B into node \p A (both representatives).
  void unite(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return;
    if (Pts[B].size() > Pts[A].size())
      std::swap(A, B);
    Parent[B] = A;
    Pts[A].insert(Pts[B].begin(), Pts[B].end());
    Succ[A].insert(Succ[B].begin(), Succ[B].end());
    Cplx[A].insert(Cplx[A].end(), Cplx[B].begin(), Cplx[B].end());
    Pts[B].clear();
    Succ[B].clear();
    Cplx[B].clear();
    ++Stats.NodesCollapsed;
    push(A);
  }

  // Graph construction -----------------------------------------------------
  uint32_t valueNode(const Value *V) {
    auto It = ValNode.find(V);
    if (It != ValNode.end())
      return It->second;
    uint32_t N = newNode();
    ValNode.emplace(V, N);
    if (!isConstant(V))
      TrackedValues.push_back(V);
    // Address-producing values seed their own points-to set.
    if (const auto *GV = dyn_cast<GlobalVariable>(V))
      addPts(N, baseCell(globalObject(GV)));
    else if (const auto *F = dyn_cast<Function>(V))
      addPts(N, baseCell(functionObject(F)));
    return N;
  }

  uint32_t retNode(const Function *F) {
    auto It = RetNode.find(F);
    if (It != RetNode.end())
      return It->second;
    uint32_t N = newNode();
    RetNode.emplace(F, N);
    return N;
  }

  ObjectID newObject(MemObject::Kind K, const Value *Origin) {
    MemObject O;
    O.K = K;
    O.Origin = Origin;
    Objects.push_back(std::move(O));
    return static_cast<ObjectID>(Objects.size() - 1);
  }

  std::map<const Value *, ObjectID> OriginObject;

  ObjectID globalObject(const GlobalVariable *GV) {
    auto It = OriginObject.find(GV);
    if (It != OriginObject.end())
      return It->second;
    ObjectID O = newObject(MemObject::Kind::Global, GV);
    OriginObject.emplace(GV, O);
    return O;
  }

  ObjectID functionObject(const Function *F) {
    auto It = OriginObject.find(F);
    if (It != OriginObject.end())
      return It->second;
    ObjectID O = newObject(MemObject::Kind::Function, F);
    OriginObject.emplace(F, O);
    return O;
  }

  uint32_t getCell(ObjectID O, int64_t Off) {
    if (Off > kMaxFieldOffset)
      Off = kMaxFieldOffset;
    auto It = CellMap.find({O, Off});
    if (It != CellMap.end())
      return It->second;
    uint32_t Cell = static_cast<uint32_t>(CellNode.size());
    CellMap.emplace(std::make_pair(O, Off), Cell);
    CellNode.push_back(newNode());
    CellObject.push_back(O);
    CellOffset.push_back(Off);
    return Cell;
  }

  uint32_t baseCell(ObjectID O) { return getCell(O, kBaseCell); }

  bool addPts(uint32_t N, uint32_t Cell) {
    N = find(N);
    if (!Pts[N].insert(Cell).second)
      return false;
    AnyChange = true;
    push(N);
    return true;
  }

  void addEdge(uint32_t From, uint32_t To) {
    From = find(From);
    To = find(To);
    if (From == To)
      return;
    if (!Succ[From].insert(To).second)
      return;
    ++Stats.NumCopyEdges;
    AnyChange = true;
    if (!Pts[From].empty())
      push(From);
  }

  void addComplex(uint32_t N, Complex C) {
    N = find(N);
    Cplx[N].push_back(C);
    ++Stats.NumComplexConstraints;
    AnyChange = true;
  }

  std::vector<std::pair<uint32_t, uint32_t>> Memcpys; // (dst node, src node)

  // Constraint generation --------------------------------------------------
  void collectGlobals();
  void collectFunction(const Function &F);
  void collectInstruction(const Instruction &I);
  void externalCallArg(const Value *Arg);
  void wireCall(const IndirectCallInst *IC, const Function *F);
  void routeExternalICall(const IndirectCallInst *IC);

  // Solver -----------------------------------------------------------------
  void propagate();
  void processComplex();
  void processMemcpys();
  void collapseCycles();
  void solve();
  bool clobberExternallyReachable();
  std::set<uint32_t> reachableCells(const std::set<uint32_t> &Seeds);

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
  case Instruction::OpAlloca: {
    ObjectID O = newObject(MemObject::Kind::Stack, &I);
    OriginObject.emplace(&I, O);
    addPts(valueNode(&I), baseCell(O));
    break;
  }
  case Instruction::OpMalloc:
  case Instruction::OpCalloc: {
    ObjectID O = newObject(MemObject::Kind::Heap, &I);
    OriginObject.emplace(&I, O);
    addPts(valueNode(&I), baseCell(O));
    break;
  }
  case Instruction::OpRealloc: {
    ObjectID O = newObject(MemObject::Kind::Heap, &I);
    OriginObject.emplace(&I, O);
    addPts(valueNode(&I), baseCell(O));
    // The reallocated block aliases the original pointer's objects.
    addEdge(valueNode(cast<ReallocInst>(&I)->getPtr()), valueNode(&I));
    break;
  }
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
    Memcpys.emplace_back(valueNode(MC->getDst()), valueNode(MC->getSrc()));
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

void PointsToBuilder::propagate() {
  while (!Worklist.empty()) {
    uint32_t N = Worklist.front();
    Worklist.pop_front();
    InWork[N] = 0;
    if (find(N) != N)
      continue;
    std::vector<uint32_t> Out(Succ[N].begin(), Succ[N].end());
    for (uint32_t SRaw : Out) {
      uint32_t S = find(SRaw);
      if (S == N)
        continue;
      bool Grew = false;
      for (uint32_t C : Pts[N])
        if (Pts[S].insert(C).second)
          Grew = true;
      if (Grew) {
        AnyChange = true;
        push(S);
      }
    }
  }
}

void PointsToBuilder::processComplex() {
  for (uint32_t N = 0; N < Parent.size(); ++N) {
    if (find(N) != N || Cplx[N].empty() || Pts[N].empty())
      continue;
    std::vector<Complex> Cons = Cplx[N];
    std::vector<uint32_t> Cells(Pts[N].begin(), Pts[N].end());
    for (const Complex &C : Cons) {
      for (uint32_t Cell : Cells) {
        switch (C.K) {
        case Complex::Load:
          addEdge(CellNode[Cell], C.Other);
          break;
        case Complex::Store:
          addEdge(C.Other, CellNode[Cell]);
          break;
        case Complex::Field: {
          int64_t Base = CellOffset[Cell] == kBaseCell ? 0 : CellOffset[Cell];
          addPts(C.Other, getCell(CellObject[Cell], Base + C.Off));
          break;
        }
        case Complex::ExtStore:
          addEdge(CellNode[ExternalCellId], CellNode[Cell]);
          break;
        case Complex::ICall: {
          const MemObject &O = Objects[CellObject[Cell]];
          if (O.K == MemObject::Kind::Function &&
              CellOffset[Cell] == kBaseCell)
            wireCall(C.IC, cast<Function>(O.Origin));
          else
            routeExternalICall(C.IC);
          break;
        }
        }
      }
    }
  }
}

void PointsToBuilder::processMemcpys() {
  for (auto &[DstN, SrcN] : Memcpys) {
    uint32_t D = find(DstN), S = find(SrcN);
    if (Pts[D].empty() || Pts[S].empty())
      continue;
    std::set<ObjectID> DstObjs, SrcObjs;
    for (uint32_t C : Pts[D])
      DstObjs.insert(CellObject[C]);
    for (uint32_t C : Pts[S])
      SrcObjs.insert(CellObject[C]);
    for (ObjectID SO : SrcObjs) {
      // Snapshot the source object's cells; getCell below may add cells.
      std::vector<std::pair<int64_t, uint32_t>> SrcCells;
      for (const auto &[Key, Cell] : CellMap)
        if (Key.first == SO)
          SrcCells.emplace_back(Key.second, Cell);
      for (ObjectID DO : DstObjs)
        for (const auto &[Off, Cell] : SrcCells)
          addEdge(CellNode[Cell], CellNode[getCell(DO, Off)]);
    }
  }
}

void PointsToBuilder::collapseCycles() {
  // Iterative Tarjan SCC over the copy graph restricted to representatives.
  uint32_t NumNodes = static_cast<uint32_t>(Parent.size());
  std::vector<uint32_t> Index(NumNodes, 0), Low(NumNodes, 0);
  std::vector<char> OnStack(NumNodes, 0);
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 1;

  struct Frame {
    uint32_t Node;
    std::vector<uint32_t> Succs;
    size_t NextSucc = 0;
  };
  std::vector<Frame> CallStack;

  for (uint32_t Root = 0; Root < NumNodes; ++Root) {
    if (find(Root) != Root || Index[Root])
      continue;
    CallStack.push_back({Root, {}, 0});
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = 1;
    for (uint32_t S : Succ[Root])
      CallStack.back().Succs.push_back(S);

    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      if (F.NextSucc < F.Succs.size()) {
        uint32_t W = find(F.Succs[F.NextSucc++]);
        if (W == F.Node)
          continue;
        if (!Index[W]) {
          Index[W] = Low[W] = NextIndex++;
          Stack.push_back(W);
          OnStack[W] = 1;
          Frame NF{W, {}, 0};
          for (uint32_t S : Succ[W])
            NF.Succs.push_back(S);
          CallStack.push_back(std::move(NF));
        } else if (OnStack[W]) {
          Low[F.Node] = std::min(Low[F.Node], Index[W]);
        }
        continue;
      }
      uint32_t N = F.Node;
      CallStack.pop_back();
      if (!CallStack.empty())
        Low[CallStack.back().Node] =
            std::min(Low[CallStack.back().Node], Low[N]);
      if (Low[N] == Index[N]) {
        // Pop the SCC; merge all members into one node.
        std::vector<uint32_t> SCC;
        while (true) {
          uint32_t W = Stack.back();
          Stack.pop_back();
          OnStack[W] = 0;
          SCC.push_back(W);
          if (W == N)
            break;
        }
        for (size_t I = 1; I < SCC.size(); ++I)
          unite(SCC[0], SCC[I]);
      }
    }
  }
}

void PointsToBuilder::solve() {
  do {
    AnyChange = false;
    ++Stats.SolverPasses;
    propagate();
    processComplex();
    processMemcpys();
    propagate();
    collapseCycles();
  } while (AnyChange);
}

std::set<uint32_t>
PointsToBuilder::reachableCells(const std::set<uint32_t> &Seeds) {
  std::set<uint32_t> Seen = Seeds;
  std::deque<uint32_t> Queue(Seeds.begin(), Seeds.end());
  auto visit = [&](uint32_t Cell) {
    if (Seen.insert(Cell).second)
      Queue.push_back(Cell);
  };
  while (!Queue.empty()) {
    uint32_t Cell = Queue.front();
    Queue.pop_front();
    // If one cell of an object is reachable, the whole object is.
    ObjectID O = CellObject[Cell];
    for (const auto &[Key, Sibling] : CellMap)
      if (Key.first == O)
        visit(Sibling);
    // Follow the contents of the cell.
    for (uint32_t C : Pts[find(CellNode[Cell])])
      visit(C);
  }
  return Seen;
}

bool PointsToBuilder::clobberExternallyReachable() {
  // External code can write external pointers into any memory reachable
  // from external memory. Feed that back into the solution.
  std::set<uint32_t> Ext = reachableCells({ExternalCellId});
  bool Changed = false;
  for (uint32_t Cell : Ext) {
    AnyChange = false;
    addPts(CellNode[Cell], ExternalCellId);
    addEdge(CellNode[ExternalCellId], CellNode[Cell]);
    Changed |= AnyChange;
  }
  return Changed;
}

void PointsToBuilder::computeEscapes() {
  auto markAll = [&](const std::set<uint32_t> &Cells, EscapeState E) {
    for (uint32_t Cell : Cells) {
      MemObject &O = Objects[CellObject[Cell]];
      if (O.Escape < E)
        O.Escape = E;
    }
  };

  // External: reachable from external memory.
  markAll(reachableCells({ExternalCellId}), EscapeState::ExternalEscape);

  // Global: reachable from the cells of global objects.
  std::set<uint32_t> GlobalSeeds;
  for (const auto &[Key, Cell] : CellMap)
    if (Objects[Key.first].K == MemObject::Kind::Global)
      GlobalSeeds.insert(Cell);
  markAll(reachableCells(GlobalSeeds), EscapeState::GlobalEscape);

  // Arg: reachable from the formal arguments of analyzed functions.
  std::set<uint32_t> ArgSeeds;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    for (unsigned I = 0; I < F->getNumArgs(); ++I) {
      auto It = ValNode.find(F->getArg(I));
      if (It == ValNode.end())
        continue;
      for (uint32_t C : Pts[find(It->second)])
        ArgSeeds.insert(C);
    }
  }
  markAll(reachableCells(ArgSeeds), EscapeState::ArgEscape);

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
    for (uint32_t C : Pts[find(ValNode[V])])
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
  Res.Objects = Objects;
  Res.CellObject = CellObject;
  Res.ExternalCell = ExternalCellId;
  Res.TrackedValues = TrackedValues;

  // Compact: map every tracked value to its representative's final set.
  Res.NodePointsTo.resize(Parent.size());
  for (uint32_t N = 0; N < Parent.size(); ++N)
    if (find(N) == N)
      Res.NodePointsTo[N].assign(Pts[N].begin(), Pts[N].end());
  for (const auto &[V, N] : ValNode)
    Res.ValueNode.emplace(V, find(N));

  // The alias indexes: tracked values per node, then, per cell, the
  // nodes that point at it and denote at least one tracked value.
  std::vector<uint32_t> NodeOf;
  NodeOf.reserve(TrackedValues.size());
  for (const Value *V : TrackedValues)
    NodeOf.push_back(find(ValNode.at(V)));
  buildRows(
      Parent.size(),
      [&](auto Emit) {
        for (uint32_t Pos = 0; Pos < NodeOf.size(); ++Pos)
          Emit(NodeOf[Pos], Pos);
      },
      Res.NodeValueBegin, Res.NodeValues);
  buildRows(
      CellNode.size(),
      [&](auto Emit) {
        for (uint32_t N = 0; N < Parent.size(); ++N)
          if (Res.NodeValueBegin[N] != Res.NodeValueBegin[N + 1])
            for (uint32_t C : Res.NodePointsTo[N])
              Emit(C, N);
      },
      Res.CellNodeBegin, Res.CellNodes);
  Res.ObjectsByView = std::move(ObjectsByView);

  // Resolve indirect calls from the final callee-pointer sets.
  for (const IndirectCallInst *IC : IndirectCalls) {
    PointsToResult::CallTargets T;
    T.Complete = true;
    std::set<const Function *> Fns;
    for (uint32_t C : Pts[find(valueNode(IC->getCalleePtr()))]) {
      const MemObject &O = Objects[CellObject[C]];
      if (O.K == MemObject::Kind::Function && CellOffset[C] == kBaseCell)
        Fns.insert(cast<Function>(O.Origin));
      else
        T.Complete = false;
    }
    for (const Function *F : Fns) {
      T.Targets.push_back(F);
      if (F->isDeclaration())
        T.Complete = false;
    }
    Res.IndirectTargets.emplace(IC, std::move(T));
  }

  Stats.NumValueNodes = static_cast<unsigned>(ValNode.size());
  Stats.NumObjects = static_cast<unsigned>(Objects.size());
  Stats.NumCells = static_cast<unsigned>(CellNode.size());
  Res.Stats = Stats;
  return Res;
}

PointsToResult PointsToBuilder::run() {
  // The external object: one abstraction of all memory outside the
  // analysis scope. Its base cell points to itself (external memory
  // contains pointers to external memory).
  ExternalObj = newObject(MemObject::Kind::External, nullptr);
  ExternalCellId = baseCell(ExternalObj);
  addPts(CellNode[ExternalCellId], ExternalCellId);

  collectGlobals();
  for (const auto &F : M.functions())
    collectFunction(*F);

  solve();
  while (clobberExternallyReachable())
    solve();

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
  auto It = ValueNode.find(V);
  if (It == ValueNode.end())
    return Out;
  for (uint32_t C : NodePointsTo[It->second])
    Out.push_back(CellObject[C]);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

bool PointsToResult::pointsToExternal(const Value *V) const {
  auto It = ValueNode.find(V);
  if (It == ValueNode.end())
    return true;
  for (uint32_t C : NodePointsTo[It->second])
    if (Objects[CellObject[C]].K == MemObject::Kind::External)
      return true;
  return false;
}

EscapeState PointsToResult::escapeOf(const Value *V) const {
  auto It = ValueNode.find(V);
  if (It == ValueNode.end())
    return EscapeState::ExternalEscape;
  EscapeState E = EscapeState::NoEscape;
  for (uint32_t C : NodePointsTo[It->second])
    E = std::max(E, Objects[CellObject[C]].Escape);
  return E;
}

bool PointsToResult::mayAlias(const Value *A, const Value *B) const {
  auto AIt = ValueNode.find(A), BIt = ValueNode.find(B);
  if (AIt == ValueNode.end() || BIt == ValueNode.end())
    return true;
  if (AIt->second == BIt->second)
    return true;
  const auto &PA = NodePointsTo[AIt->second];
  const auto &PB = NodePointsTo[BIt->second];
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
  auto It = ValueNode.find(V);
  if (It == ValueNode.end())
    return TrackedValues;
  // The nodes that may alias V: its own, and each node sharing a cell.
  uint32_t Node = It->second;
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
