//===- tests/ir_edge_test.cpp - Verifier/interpreter edge cases -----------===//

#include "frontend/Frontend.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

using namespace slo;

namespace {

TEST(VerifierEdge, UseBeforeDefAcrossBlocksRejected) {
  IRContext Ctx;
  TypeContext &T = Ctx.getTypes();
  Module M(Ctx, "m");
  Function *F =
      M.createFunction(T.getFunctionType(T.getI64(), {T.getI1()}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Left = F->createBlock("left");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  B.createCondBr(F->getArg(0), Left, Join);
  B.setInsertPoint(Left);
  Value *OnlyInLeft =
      B.createBinary(Instruction::OpAdd, Ctx.getInt64(1), Ctx.getInt64(2));
  B.createBr(Join);
  B.setInsertPoint(Join);
  B.createRet(OnlyInLeft); // Left does not dominate Join.
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyModule(M, Errors));
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("definition"), std::string::npos);
}

TEST(VerifierEdge, UseInUnreachableBlockAccepted) {
  // Dominance says nothing about unreachable code: a def in one dead
  // block may feed a use in another dead block it does not dominate.
  IRContext Ctx;
  TypeContext &T = Ctx.getTypes();
  Module M(Ctx, "m");
  Function *F = M.createFunction(T.getFunctionType(T.getI64(), {}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *DeadDef = F->createBlock("dead.def");
  BasicBlock *DeadOther = F->createBlock("dead.other");
  BasicBlock *DeadUse = F->createBlock("dead.use");
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  B.createRet(Ctx.getInt64(0));
  B.setInsertPoint(DeadDef);
  Value *Def =
      B.createBinary(Instruction::OpAdd, Ctx.getInt64(1), Ctx.getInt64(2));
  B.createBr(DeadUse);
  B.setInsertPoint(DeadOther);
  B.createBr(DeadUse);
  B.setInsertPoint(DeadUse);
  B.createRet(Def);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors)) << Errors.front();
}

TEST(VerifierEdge, BranchToForeignFunctionRejected) {
  IRContext Ctx;
  TypeContext &T = Ctx.getTypes();
  Module M(Ctx, "m");
  Function *A =
      M.createFunction(T.getFunctionType(T.getVoidType(), {}), "a");
  Function *Bf =
      M.createFunction(T.getFunctionType(T.getVoidType(), {}), "b");
  BasicBlock *ABB = A->createBlock("entry");
  BasicBlock *BBB = Bf->createBlock("entry");
  IRBuilder B(Ctx);
  B.setInsertPoint(BBB);
  B.createRet();
  B.setInsertPoint(ABB);
  B.createBr(BBB); // Cross-function branch.
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyModule(M, Errors));
}

TEST(VerifierEdge, ReturnTypeMismatchRejected) {
  IRContext Ctx;
  TypeContext &T = Ctx.getTypes();
  Module M(Ctx, "m");
  Function *F = M.createFunction(T.getFunctionType(T.getI64(), {}), "f");
  IRBuilder B(Ctx);
  B.setInsertPoint(F->createBlock("entry"));
  B.createRet(Ctx.getConstantInt(T.getI32(), 1)); // i32 vs i64.
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyModule(M, Errors));
}

TEST(VerifierEdge, FieldAddrBaseTypeMismatchRejected) {
  IRContext Ctx;
  TypeContext &T = Ctx.getTypes();
  Module M(Ctx, "m");
  RecordType *R1 = T.getOrCreateRecord("r1");
  R1->setFields({{"a", T.getI64(), 0, 0}});
  RecordType *R2 = T.getOrCreateRecord("r2");
  R2->setFields({{"b", T.getI64(), 0, 0}});
  Function *F = M.createFunction(
      T.getFunctionType(T.getVoidType(), {T.getPointerType(R1)}), "f");
  IRBuilder B(Ctx);
  B.setInsertPoint(F->createBlock("entry"));
  // Accessing r2 through an r1*: inconsistent.
  B.createFieldAddr(F->getArg(0), R2, 0);
  B.createRet();
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyModule(M, Errors));
}

TEST(InterpreterEdge, DeepRecursionTrapsNotCrashes) {
  IRContext Ctx;
  std::vector<std::string> Diags;
  auto M = compileMiniC(Ctx, "t",
                        "long f(long n) { return f(n + 1); }"
                        "int main() { return (int) f(0); }",
                        Diags);
  ASSERT_TRUE(M);
  RunResult R = runProgram(*M);
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapReason.find("depth"), std::string::npos)
      << R.TrapReason;
}

TEST(InterpreterEdge, UnknownExternTraps) {
  IRContext Ctx;
  std::vector<std::string> Diags;
  auto M = compileMiniC(Ctx, "t",
                        "extern void no_such_builtin(long v);"
                        "int main() { no_such_builtin(1); return 0; }",
                        Diags);
  ASSERT_TRUE(M);
  RunResult R = runProgram(*M);
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapReason.find("no_such_builtin"), std::string::npos);
}

TEST(InterpreterEdge, DivisionByZeroTraps) {
  IRContext Ctx;
  std::vector<std::string> Diags;
  auto M = compileMiniC(
      Ctx, "t", "long z; int main() { return (int) (7 / z); }", Diags);
  ASSERT_TRUE(M);
  RunResult R = runProgram(*M);
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapReason.find("zero"), std::string::npos);
}

TEST(InterpreterEdge, WildPointerWriteTraps) {
  IRContext Ctx;
  std::vector<std::string> Diags;
  auto M = compileMiniC(Ctx, "t", R"(
    int main() {
      long *p = (long*) 12;   // Below the null guard.
      *p = 1;
      return 0;
    }
  )",
                        Diags);
  ASSERT_TRUE(M);
  RunResult R = runProgram(*M);
  EXPECT_TRUE(R.Trapped);
}

TEST(InterpreterEdge, FreeNullIsNoop) {
  IRContext Ctx;
  std::vector<std::string> Diags;
  auto M = compileMiniC(Ctx, "t", R"(
    int main() {
      long *p = 0;
      free(p);
      return 7;
    }
  )",
                        Diags);
  ASSERT_TRUE(M);
  RunResult R = runProgram(*M);
  EXPECT_FALSE(R.Trapped) << R.TrapReason;
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(InterpreterEdge, HeapReuseAfterFree) {
  IRContext Ctx;
  std::vector<std::string> Diags;
  auto M = compileMiniC(Ctx, "t", R"(
    extern void print_i64(long v);
    int main() {
      long total = 0;
      for (long r = 0; r < 100; r++) {
        long *p = (long*) malloc(64 * 8);
        p[0] = r;
        total += p[0];
        free(p);
      }
      print_i64(total);
      return 0;
    }
  )",
                        Diags);
  ASSERT_TRUE(M);
  RunResult R = runProgram(*M);
  ASSERT_FALSE(R.Trapped) << R.TrapReason;
  EXPECT_EQ(R.PrintedInts[0], 4950);
  // The free list must recycle: 100 allocations of one size stay flat.
  EXPECT_LE(R.HeapBytesAllocated, 100u * 512u + 1024u);
}

TEST(PrinterEdge, AllWorkloadIrPrintsWithoutPlaceholders) {
  IRContext Ctx;
  std::vector<std::string> Diags;
  auto M = compileMiniC(Ctx, "t", R"(
    extern void print_f64(double v);
    struct s { long a; double b; struct s *next; };
    struct s *g;
    int main() {
      g = (struct s*) malloc(4 * sizeof(struct s));
      memset(g, 0, 4 * sizeof(struct s));
      g[1].a = 3;
      g[1].b = 2.5;
      g[0].next = &g[1];
      double (*f)(double);
      print_f64(g[0].next->b);
      long *raw = (long*) g;
      g = (struct s*) realloc(g, 8 * sizeof(struct s));
      free(g);
      return (int) *raw;
    }
  )",
                        Diags);
  ASSERT_TRUE(M) << (Diags.empty() ? "?" : Diags[0]);
  std::string S = printModule(*M);
  EXPECT_EQ(S.find("<?>"), std::string::npos) << S;
  // Representative constructs all render.
  for (const char *Needle :
       {"malloc", "memset", "realloc", "free", "bitcast", "fieldaddr",
        "indexaddr", "sizeof(s)", "struct s"})
    EXPECT_NE(S.find(Needle), std::string::npos) << Needle;
}

TEST(TypeEdge, EmptyishRecordHasSizeOne) {
  IRContext Ctx;
  RecordType *R = Ctx.getTypes().getOrCreateRecord("empty");
  R->setFields({});
  EXPECT_EQ(R->getSize(), 1u);
}

TEST(TypeEdge, ArrayFieldAlignment) {
  IRContext Ctx;
  TypeContext &T = Ctx.getTypes();
  RecordType *R = T.getOrCreateRecord("witharr");
  R->setFields({{"c", T.getI8(), 0, 0},
                {"arr", T.getArrayType(T.getI64(), 3), 0, 0},
                {"d", T.getI8(), 0, 0}});
  EXPECT_EQ(R->getField(1).Offset, 8u);
  EXPECT_EQ(R->getField(2).Offset, 32u);
  EXPECT_EQ(R->getSize(), 40u);
}

} // namespace
