//===- tests/cfg_analysis_test.cpp - CFG analysis detail tests ------------===//
//
// Detailed checks of dominators, loop nesting, call-graph SCCs, branch
// probabilities, and block frequencies on hand-written control flow, a
// brute-force dominance oracle over every workload and corpus function,
// and a scale check on a long flat program.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/StaticEstimator.h"
#include "analysis/WeightSchemes.h"
#include "frontend/Frontend.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace slo;

namespace {

struct Compiled {
  std::unique_ptr<IRContext> Ctx;
  std::unique_ptr<Module> M;
};

static Compiled compile(const char *Src) {
  Compiled C;
  C.Ctx = std::make_unique<IRContext>();
  std::vector<std::string> Diags;
  C.M = compileMiniC(*C.Ctx, "t", Src, Diags);
  EXPECT_TRUE(C.M) << (Diags.empty() ? "?" : Diags[0]);
  return C;
}

TEST(DominatorsTest, EntryDominatesEverything) {
  Compiled C = compile(R"(
    long f(long a) {
      long r = 0;
      if (a > 0) r = 1; else r = 2;
      while (a > 0) { a--; }
      return r;
    }
    int main() { return 0; }
  )");
  const Function *F = C.M->lookupFunction("f");
  DominatorTree DT(*F);
  const BasicBlock *Entry = F->getEntry();
  for (const auto &BB : F->blocks()) {
    if (!DT.isReachable(BB.get()))
      continue;
    EXPECT_TRUE(DT.dominates(Entry, BB.get())) << BB->getName();
    EXPECT_TRUE(DT.dominates(BB.get(), BB.get())); // Reflexive.
  }
}

TEST(DominatorsTest, BranchArmsDoNotDominateJoin) {
  Compiled C = compile(R"(
    long f(long a) {
      long r = 0;
      if (a > 0) { r = 1; } else { r = 2; }
      return r;
    }
    int main() { return 0; }
  )");
  const Function *F = C.M->lookupFunction("f");
  DominatorTree DT(*F);
  const BasicBlock *Then = nullptr, *Else = nullptr, *End = nullptr;
  for (const auto &BB : F->blocks()) {
    if (BB->getName().rfind("if.then", 0) == 0)
      Then = BB.get();
    if (BB->getName().rfind("if.else", 0) == 0)
      Else = BB.get();
    if (BB->getName().rfind("if.end", 0) == 0)
      End = BB.get();
  }
  ASSERT_TRUE(Then && Else && End);
  EXPECT_FALSE(DT.dominates(Then, End));
  EXPECT_FALSE(DT.dominates(Else, End));
  EXPECT_TRUE(DT.dominates(F->getEntry(), End));
  EXPECT_EQ(DT.getIdom(End), F->getEntry());
}

/// Brute force: the blocks reachable from the entry once \p Removed (if
/// any) is deleted from the CFG, by block number.
static std::vector<bool> reachableWithout(const Function &F,
                                          const BasicBlock *Removed) {
  std::vector<bool> Seen(F.size(), false);
  if (F.getEntry() == Removed)
    return Seen;
  std::vector<const BasicBlock *> Work{F.getEntry()};
  Seen[F.getEntry()->getNumber()] = true;
  while (!Work.empty()) {
    const BasicBlock *BB = Work.back();
    Work.pop_back();
    for (const BasicBlock *S : BB->successors())
      if (S != Removed && !Seen[S->getNumber()]) {
        Seen[S->getNumber()] = true;
        Work.push_back(S);
      }
  }
  return Seen;
}

/// Reference reverse post-order: a DFS taking successors in terminator
/// order, reversed.
static std::vector<const BasicBlock *> referenceRpo(const Function &F) {
  std::vector<bool> Seen(F.size(), false);
  std::vector<const BasicBlock *> Post;
  std::vector<std::pair<const BasicBlock *, size_t>> Stack{
      {F.getEntry(), 0}};
  Seen[F.getEntry()->getNumber()] = true;
  while (!Stack.empty()) {
    const BasicBlock *BB = Stack.back().first;
    std::vector<BasicBlock *> Succs = BB->successors();
    if (Stack.back().second == Succs.size()) {
      Post.push_back(BB);
      Stack.pop_back();
      continue;
    }
    const BasicBlock *S = Succs[Stack.back().second++];
    if (!Seen[S->getNumber()]) {
      Seen[S->getNumber()] = true;
      Stack.push_back({S, 0});
    }
  }
  return {Post.rbegin(), Post.rend()};
}

/// Checks every DominatorTree query on \p F against brute force: A
/// dominates B when B is reachable but not once A is removed (so
/// unreachable blocks dominate nothing); the idom of B is B's strict
/// dominator with the most dominators; predecessors are the reachable
/// blocks branching to B, in layout order.
static void checkDominatorOracle(const Function &F, const std::string &Where) {
  DominatorTree DT(F);
  const size_t N = F.size();
  std::vector<bool> Reach = reachableWithout(F, nullptr);
  std::vector<std::vector<bool>> Dom(N, std::vector<bool>(N, false));
  std::vector<unsigned> NumDoms(N, 0);
  for (size_t A = 0; A < N; ++A) {
    if (!Reach[A])
      continue;
    std::vector<bool> Without = reachableWithout(F, F.blocks()[A].get());
    for (size_t B = 0; B < N; ++B)
      if (Reach[B] && !Without[B]) {
        Dom[A][B] = true;
        ++NumDoms[B];
      }
  }
  std::vector<std::vector<const BasicBlock *>> Preds(N);
  for (const auto &P : F.blocks())
    if (Reach[P->getNumber()])
      for (const BasicBlock *S : P->successors())
        Preds[S->getNumber()].push_back(P.get());

  unsigned Mismatches = 0;
  for (size_t B = 0; B < N; ++B) {
    const BasicBlock *BB = F.blocks()[B].get();
    const BasicBlock *Idom = nullptr;
    for (size_t A = 0; A < N; ++A) {
      const BasicBlock *AB = F.blocks()[A].get();
      if (DT.dominates(AB, BB) != Dom[A][B] && Mismatches++ == 0)
        ADD_FAILURE() << Where << ": dominates(" << AB->getName() << ", "
                      << BB->getName() << ")";
      bool Deeper = !Idom || NumDoms[A] > NumDoms[Idom->getNumber()];
      if (A != B && Dom[A][B] && Deeper)
        Idom = AB;
    }
    EXPECT_EQ(DT.isReachable(BB), Reach[B]) << Where << " " << BB->getName();
    EXPECT_EQ(DT.getIdom(BB), Idom) << Where << " " << BB->getName();
    EXPECT_EQ(DT.predecessors(BB), Preds[B]) << Where << " " << BB->getName();
  }
  EXPECT_EQ(Mismatches, 0u) << Where;
  EXPECT_EQ(DT.reversePostOrder(), referenceRpo(F)) << Where;
}

static void checkDominatorOracle(const Module &M, const std::string &Where) {
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      checkDominatorOracle(*F, Where + ":" + F->getName());
}

TEST(DominatorsTest, MatchesBruteForceOnWorkloadsAndCorpus) {
  for (const Workload &W : allWorkloads()) {
    IRContext Ctx;
    std::vector<std::string> Diags;
    auto M = compileProgram(Ctx, W.Name, W.Sources, Diags);
    ASSERT_TRUE(M) << W.Name;
    checkDominatorOracle(*M, W.Name);
  }
  unsigned Files = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(SLO_CORPUS_DIR)) {
    if (Entry.path().extension() != ".minic")
      continue;
    ++Files;
    std::ifstream In(Entry.path());
    std::stringstream Buf;
    Buf << In.rdbuf();
    Compiled C = compile(Buf.str().c_str());
    ASSERT_TRUE(C.M) << Entry.path();
    checkDominatorOracle(*C.M, Entry.path().filename().string());
  }
  EXPECT_GT(Files, 0u);
}

TEST(DominatorsTest, MatchesBruteForceWithUnreachableBlocksAndSelfLoop) {
  // entry -> loop | exit; loop -> loop (self-loop) | exit. dead.a and
  // dead.b form an unreachable cycle that also branches into the loop.
  IRContext Ctx;
  TypeContext &T = Ctx.getTypes();
  Module M(Ctx, "m");
  Function *F =
      M.createFunction(T.getFunctionType(T.getVoidType(), {T.getI1()}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *DeadA = F->createBlock("dead.a");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *DeadB = F->createBlock("dead.b");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  B.createCondBr(F->getArg(0), Loop, Exit);
  B.setInsertPoint(DeadA);
  B.createBr(DeadB);
  B.setInsertPoint(Loop);
  B.createCondBr(F->getArg(0), Loop, Exit);
  B.setInsertPoint(DeadB);
  B.createCondBr(F->getArg(0), DeadA, Loop);
  B.setInsertPoint(Exit);
  B.createRet();
  checkDominatorOracle(*F, "hand-built");

  DominatorTree DT(*F);
  EXPECT_FALSE(DT.isReachable(DeadA));
  EXPECT_FALSE(DT.dominates(DeadA, DeadA));
  EXPECT_FALSE(DT.dominates(DeadB, Loop));
  EXPECT_TRUE(DT.dominates(Loop, Loop));
  EXPECT_EQ(DT.getIdom(Loop), Entry);
  EXPECT_EQ(DT.getIdom(DeadB), nullptr);
  // The dead predecessor is not reported; the self-loop is.
  EXPECT_EQ(DT.predecessors(Loop),
            (std::vector<const BasicBlock *>{Entry, Loop}));
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.getLoopFor(Loop), LI.loops()[0].get());
  EXPECT_EQ(LI.getLoopFor(DeadB), nullptr);
  EXPECT_TRUE(LI.isBackEdge(Loop, Loop));
}

TEST(DominatorsTest, TwentyThousandFlatIfsStayFast) {
  // One function of 20k sequential ifs: 40k blocks and a dominator tree
  // 20k deep. Any per-query walk of the idom chain (in the Verifier or
  // in LoopInfo) is quadratic here and takes minutes. The program is
  // flat, so no nesting limit can reject it.
  std::string Src = "long g;\nint main() {\n  long x = g;\n";
  for (unsigned I = 0; I < 20000; ++I)
    Src += "  if (x) { x = x + 1; }\n";
  Src += "  return (int) x;\n}\n";
  auto Start = std::chrono::steady_clock::now();
  Compiled C = compile(Src.c_str());
  ASSERT_TRUE(C.M);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*C.M, Errors));
  SchemeInputs In;
  In.M = C.M.get();
  FieldStatsResult Stats = computeSchemeFieldStats(WeightScheme::ISPBO, In);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(Seconds, 10.0);
  EXPECT_TRUE(Stats.types().empty());
}

TEST(IrTeardownTest, TwentyThousandFlatIfsTearDownFast) {
  // The variable and the constant 1 each have ~20k users here. Removing
  // those users one instruction at a time scans a user list per removal,
  // which is quadratic; the module's bulk drop filters each list once.
  std::string Src = "long g;\nint main() {\n  long x = g;\n";
  for (unsigned I = 0; I < 20000; ++I)
    Src += "  if (x) { x = x + 1; }\n";
  Src += "  return (int) x;\n}\n";
  Compiled C = compile(Src.c_str());
  ASSERT_TRUE(C.M);
  auto Start = std::chrono::steady_clock::now();
  C.M.reset();
  C.Ctx.reset();
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  // The bulk drop takes ~0.03 s on a 4-vCPU Xeon (RelWithDebInfo) and
  // ~0.07 s under ASan; one-at-a-time removal took 0.5-0.7 s there, and
  // 5.8 s under ASan.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) ||          \
    !defined(__OPTIMIZE__)
  constexpr double BoundSeconds = 2.5;
#else
  constexpr double BoundSeconds = 0.25;
#endif
  EXPECT_LT(Seconds, BoundSeconds);
}

TEST(LoopInfoTest, TripleNestDepths) {
  Compiled C = compile(R"(
    long f(long n) {
      long s = 0;
      for (long i = 0; i < n; i++)
        for (long j = 0; j < n; j++)
          for (long k = 0; k < n; k++)
            s += 1;
      return s;
    }
    int main() { return 0; }
  )");
  const Function *F = C.M->lookupFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 3u);
  unsigned MaxDepth = 0;
  for (const auto &L : LI.loops())
    MaxDepth = std::max(MaxDepth, L->getDepth());
  EXPECT_EQ(MaxDepth, 3u);
  EXPECT_EQ(LI.topLevel().size(), 1u);
  // The innermost loop is contained in both outer loops.
  std::vector<Loop *> Inner = LI.loopsInnermostFirst();
  EXPECT_EQ(Inner.front()->getDepth(), 3u);
  EXPECT_TRUE(LI.topLevel()[0]->contains(Inner.front()));
}

TEST(LoopInfoTest, SiblingsShareAParent) {
  Compiled C = compile(R"(
    long f(long n) {
      long s = 0;
      for (long i = 0; i < n; i++) {
        for (long j = 0; j < n; j++) s += 1;
        for (long k = 0; k < n; k++) s += 2;
      }
      return s;
    }
    int main() { return 0; }
  )");
  const Function *F = C.M->lookupFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 3u);
  ASSERT_EQ(LI.topLevel().size(), 1u);
  EXPECT_EQ(LI.topLevel()[0]->subLoops().size(), 2u);
}

TEST(LoopInfoTest, BackEdgeDetection) {
  Compiled C = compile(R"(
    long f(long n) {
      long s = 0;
      while (n > 0) { s += n; n--; }
      return s;
    }
    int main() { return 0; }
  )");
  const Function *F = C.M->lookupFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop *L = LI.loops()[0].get();
  ASSERT_EQ(L->latches().size(), 1u);
  EXPECT_TRUE(LI.isBackEdge(L->latches()[0], L->getHeader()));
  EXPECT_FALSE(LI.isBackEdge(F->getEntry(), L->getHeader()));
}

TEST(CallGraphTest, SccsAndTopologicalOrder) {
  Compiled C = compile(R"(
    long pong(long n);
    long ping(long n) { if (n <= 0) return 0; return pong(n - 1); }
    long pong(long n) { return ping(n - 1); }
    long leaf(long n) { return n; }
    int main() { return (int) (ping(4) + leaf(1)); }
  )");
  CallGraph CG(*C.M);
  const Function *Ping = C.M->lookupFunction("ping");
  const Function *Pong = C.M->lookupFunction("pong");
  const Function *Leaf = C.M->lookupFunction("leaf");
  const Function *Main = C.M->lookupFunction("main");
  // ping and pong form one SCC; leaf and main are their own.
  EXPECT_EQ(CG.getSccId(Ping), CG.getSccId(Pong));
  EXPECT_NE(CG.getSccId(Ping), CG.getSccId(Leaf));
  EXPECT_NE(CG.getSccId(Main), CG.getSccId(Ping));
  EXPECT_TRUE(CG.isIntraScc(Ping, Pong));
  EXPECT_FALSE(CG.isIntraScc(Main, Ping));
  // Topological order: main's SCC before ping/pong's SCC.
  size_t MainPos = 0, PingPos = 0;
  const auto &Sccs = CG.sccsTopological();
  for (size_t I = 0; I < Sccs.size(); ++I)
    for (const Function *F : Sccs[I]) {
      if (F == Main)
        MainPos = I;
      if (F == Ping)
        PingPos = I;
    }
  EXPECT_LT(MainPos, PingPos);
  // Call sites: main has two, ping one, pong one.
  EXPECT_EQ(CG.callersOf(Leaf).size(), 1u);
  EXPECT_EQ(CG.callersOf(Ping).size(), 2u); // main and pong.
}

TEST(BranchProbTest, LoopBackEdgeGetsLoopProbability) {
  Compiled C = compile(R"(
    long f(long n) {
      long s = 0;
      for (long i = 0; i < n; i++) s += i;
      return s;
    }
    int main() { return 0; }
  )");
  const Function *F = C.M->lookupFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  BranchProbabilities BP(*F, LI);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop *L = LI.loops()[0].get();
  // The loop header's conditional branch: staying in the loop has the
  // back-edge probability (0.88 integer default).
  const BasicBlock *Header = L->getHeader();
  double StayProb = 0;
  for (const BasicBlock *S : Header->successors())
    if (L->contains(S))
      StayProb = BP.getEdgeProb(Header, S);
  EXPECT_NEAR(StayProb, 0.88, 1e-9);
}

TEST(BranchProbTest, FpLoopGetsHigherProbability) {
  Compiled C = compile(R"(
    double f(long n) {
      double s = 0.0;
      for (long i = 0; i < n; i++) s = s + 0.5;
      return s;
    }
    int main() { return 0; }
  )");
  const Function *F = C.M->lookupFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  BranchProbabilities BP(*F, LI);
  const Loop *L = LI.loops()[0].get();
  const BasicBlock *Header = L->getHeader();
  double StayProb = 0;
  for (const BasicBlock *S : Header->successors())
    if (L->contains(S))
      StayProb = BP.getEdgeProb(Header, S);
  EXPECT_NEAR(StayProb, 0.93, 1e-9); // FP loop default.
}

TEST(BranchProbTest, ProbabilitiesSumToOne) {
  Compiled C = compile(R"(
    long f(long a, long b) {
      long s = 0;
      if (a > b) s = 1;
      for (long i = 0; i < a; i++)
        if (i % 2 == 0) s += i;
      return s;
    }
    int main() { return 0; }
  )");
  const Function *F = C.M->lookupFunction("f");
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  BranchProbabilities BP(*F, LI);
  for (const auto &BB : F->blocks()) {
    auto Succs = BB->successors();
    if (Succs.empty())
      continue;
    double Sum = 0;
    for (const BasicBlock *S : Succs)
      Sum += BP.getEdgeProb(BB.get(), S);
    EXPECT_NEAR(Sum, 1.0, 1e-9) << BB->getName();
  }
}

TEST(BlockFreqTest, DiamondSplitsFlow) {
  Compiled C = compile(R"(
    long f(long a) {
      long r = 0;
      if (a > 0) { r = 1; } else { r = 2; }
      return r;
    }
    int main() { return 0; }
  )");
  const Function *F = C.M->lookupFunction("f");
  StaticEstimator SE(*C.M);
  const auto &A = SE.get(F);
  double ThenFreq = 0, EndFreq = 0;
  for (const auto &BB : F->blocks()) {
    if (BB->getName().rfind("if.then", 0) == 0)
      ThenFreq = A.BF->get(BB.get());
    if (BB->getName().rfind("if.end", 0) == 0)
      EndFreq = A.BF->get(BB.get());
  }
  EXPECT_NEAR(ThenFreq, 0.5, 0.25); // Heuristics may skew, but < 1.
  EXPECT_NEAR(EndFreq, 1.0, 1e-6);  // Flow reconverges.
}

TEST(BlockFreqTest, FrequenciesConserveFlow) {
  Compiled C = compile(R"(
    long f(long n) {
      long s = 0;
      for (long i = 0; i < n; i++) {
        if (i % 2 == 0) s += i;
        else s -= i;
      }
      return s;
    }
    int main() { return 0; }
  )");
  const Function *F = C.M->lookupFunction("f");
  StaticEstimator SE(*C.M);
  const auto &A = SE.get(F);
  const DominatorTree &DT = SE.loops().get(F).DT;
  // Every non-entry reachable block's frequency equals its inflow.
  for (const BasicBlock *BB : DT.reversePostOrder()) {
    if (BB == F->getEntry())
      continue;
    double In = 0;
    for (const BasicBlock *P : DT.predecessors(BB))
      In += A.BF->get(P) * A.BP->getEdgeProb(P, BB);
    EXPECT_NEAR(A.BF->get(BB), In, 1e-6) << BB->getName();
  }
}

} // namespace
