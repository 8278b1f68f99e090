//===- tests/support_test.cpp - Support + lexer/parser detail tests -------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "support/Diagnostics.h"
#include "support/FlatHashMap.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "transform/RewriteUtils.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace slo;

namespace {

TEST(FormatTest, BasicFormatting) {
  EXPECT_EQ(formatString("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(formatString("%.2f", 3.14159), "3.14");
  EXPECT_EQ(formatString("%s", "x"), "x");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(FormatTest, LongStringsAreNotTruncated) {
  std::string Long(500, 'a');
  EXPECT_EQ(formatString("%s", Long.c_str()).size(), 500u);
}

TEST(FormatTest, Padding) {
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("abcdef", 3), "abcdef");
  EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I < 10; ++I)
    AnyDiff |= A.next() != B.next();
  EXPECT_TRUE(AnyDiff);
}

TEST(RngTest, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(17), 17u);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RngTest, ChanceBoundsAreExact) {
  Rng R(11);
  for (int I = 0; I < 200; ++I) {
    EXPECT_FALSE(R.nextChance(0.0));
    EXPECT_TRUE(R.nextChance(1.0));
  }
  // A mid probability must produce both outcomes over a long run.
  Rng S(12);
  int Trues = 0;
  for (int I = 0; I < 1000; ++I)
    Trues += S.nextChance(0.5);
  EXPECT_GT(Trues, 300);
  EXPECT_LT(Trues, 700);
}

TEST(RngTest, SplitIsDeterministic) {
  Rng A(99), B(99);
  for (int I = 0; I < 10; ++I) {
    Rng CA = A.split();
    Rng CB = B.split();
    for (int J = 0; J < 20; ++J)
      EXPECT_EQ(CA.next(), CB.next());
  }
}

TEST(RngTest, SplitChildrenAreDecorrelated) {
  // Children split from one parent must differ from each other and from
  // the parent's own continuation stream.
  Rng Parent(123);
  Rng C1 = Parent.split();
  Rng C2 = Parent.split();
  bool ChildrenDiffer = false, ParentDiffers = false;
  for (int I = 0; I < 20; ++I) {
    uint64_t V1 = C1.next(), V2 = C2.next();
    ChildrenDiffer |= V1 != V2;
    ParentDiffers |= V1 != Parent.next();
  }
  EXPECT_TRUE(ChildrenDiffer);
  EXPECT_TRUE(ParentDiffers);
}

TEST(RngTest, SplitUpFrontIsConsumptionOrderIndependent) {
  // The fuzz driver splits all shard streams up front; each child's
  // sequence must not depend on when (or whether) the other children are
  // consumed.
  Rng P1(777);
  Rng A1 = P1.split();
  Rng B1 = P1.split();
  std::vector<uint64_t> AFirst, BSecond;
  for (int I = 0; I < 16; ++I)
    AFirst.push_back(A1.next());
  for (int I = 0; I < 16; ++I)
    BSecond.push_back(B1.next());

  Rng P2(777);
  Rng A2 = P2.split();
  Rng B2 = P2.split();
  // Consume in the opposite order this time.
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(B2.next(), BSecond[I]);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(A2.next(), AFirst[I]);
}

static std::vector<Token> lex(const char *Src, std::string &Err) {
  Lexer L(Src);
  return L.lexAll(Err);
}

TEST(FlatHashMapTest, SurvivesGrowthAndCollidingKeys) {
  // Keys sharing their low twelve bits, like page-aligned pointers, land
  // in probe chains; growth past the initial 16 slots rehashes them.
  FlatHashMap<uint64_t, uint32_t> Map;
  for (uint32_t I = 1; I <= 1000; ++I) {
    auto [Slot, Inserted] = Map.tryEmplace(uint64_t(I) << 12, I);
    ASSERT_TRUE(Inserted);
    ASSERT_EQ(*Slot, I);
  }
  Map.reserve(5000);
  EXPECT_EQ(Map.size(), 1000u);
  EXPECT_FALSE(Map.insert(uint64_t(7) << 12));
  EXPECT_EQ(*Map.tryEmplace(uint64_t(7) << 12, 0).first, 7u);
  for (uint32_t I = 1; I <= 1000; ++I) {
    const uint32_t *V = Map.find(uint64_t(I) << 12);
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, I);
  }
  EXPECT_EQ(Map.find(uint64_t(1001) << 12), nullptr);
  EXPECT_EQ(Map.find(0), nullptr);
  unsigned Visited = 0, Mismatched = 0;
  Map.forEach([&](uint64_t Key, uint32_t &V) {
    ++Visited;
    Mismatched += (Key >> 12) != V;
  });
  EXPECT_EQ(Visited, 1000u);
  EXPECT_EQ(Mismatched, 0u);
}

TEST(LexerTest, TokenKinds) {
  std::string Err;
  auto Toks = lex("struct foo { int a; } x->y += 0x1F 2.5e3 // c\n != <=",
                  Err);
  ASSERT_TRUE(Err.empty()) << Err;
  std::vector<TokKind> Kinds;
  for (const Token &T : Toks)
    Kinds.push_back(T.Kind);
  EXPECT_EQ(Kinds[0], TokKind::KwStruct);
  EXPECT_EQ(Kinds[1], TokKind::Identifier);
  EXPECT_EQ(Kinds[2], TokKind::LBrace);
  EXPECT_EQ(Kinds[3], TokKind::KwInt);
  EXPECT_EQ(Kinds[6], TokKind::RBrace);
  EXPECT_EQ(Kinds[8], TokKind::Arrow);
  EXPECT_EQ(Kinds[10], TokKind::PlusAssign);
}

TEST(LexerTest, NumericLiterals) {
  std::string Err;
  auto Toks = lex("0x1F 42 2.5 1e3 7", Err);
  ASSERT_TRUE(Err.empty());
  EXPECT_EQ(Toks[0].Kind, TokKind::IntLiteral);
  EXPECT_EQ(Toks[0].IntValue, 31);
  EXPECT_EQ(Toks[1].IntValue, 42);
  EXPECT_EQ(Toks[2].Kind, TokKind::FloatLiteral);
  EXPECT_DOUBLE_EQ(Toks[2].FloatValue, 2.5);
  EXPECT_EQ(Toks[3].Kind, TokKind::FloatLiteral);
  EXPECT_DOUBLE_EQ(Toks[3].FloatValue, 1000.0);
  EXPECT_EQ(Toks[4].IntValue, 7);
}

TEST(LexerTest, CommentsAreSkipped) {
  std::string Err;
  auto Toks = lex("a /* block \n comment */ b // line\nc", Err);
  ASSERT_TRUE(Err.empty());
  ASSERT_GE(Toks.size(), 4u);
  EXPECT_EQ(Toks[0].Text, "a");
  EXPECT_EQ(Toks[1].Text, "b");
  EXPECT_EQ(Toks[2].Text, "c");
}

TEST(LexerTest, UnterminatedCommentErrors) {
  std::string Err;
  lex("a /* never closed", Err);
  EXPECT_FALSE(Err.empty());
}

TEST(LexerTest, UnknownCharacterErrors) {
  std::string Err;
  lex("a $ b", Err);
  EXPECT_FALSE(Err.empty());
}

TEST(LexerTest, LineNumbersTracked) {
  std::string Err;
  auto Toks = lex("a\nbb\n  c", Err);
  EXPECT_EQ(Toks[0].Line, 1u);
  EXPECT_EQ(Toks[1].Line, 2u);
  EXPECT_EQ(Toks[2].Line, 3u);
}

static std::unique_ptr<TranslationUnit> parse(const char *Src,
                                              std::vector<std::string> &D) {
  Lexer L(Src);
  std::string Err;
  auto Toks = L.lexAll(Err);
  EXPECT_TRUE(Err.empty());
  Parser P(std::move(Toks), D);
  return P.parse();
}

TEST(ParserTest, TopLevelShapes) {
  std::vector<std::string> D;
  auto TU = parse(R"(
    struct s { long a; long b[4]; long (*cb)(long); };
    long g;
    long arr[8];
    extern void ext(long v);
    long f(long x, struct s *p) { return x; }
  )",
                  D);
  ASSERT_TRUE(TU) << (D.empty() ? "?" : D[0]);
  EXPECT_EQ(TU->Structs.size(), 1u);
  EXPECT_EQ(TU->Structs[0].Fields.size(), 3u);
  EXPECT_EQ(TU->Structs[0].Fields[1].ArraySize, 4u);
  EXPECT_EQ(TU->Structs[0].Fields[2].Ty.Base, TypeSpec::BK_FnPtr);
  EXPECT_EQ(TU->Globals.size(), 2u);
  EXPECT_EQ(TU->Globals[1].ArraySize, 8u);
  ASSERT_EQ(TU->Functions.size(), 2u);
  EXPECT_TRUE(TU->Functions[0].IsExtern);
  EXPECT_FALSE(TU->Functions[1].IsExtern);
  EXPECT_EQ(TU->Functions[1].Params.size(), 2u);
}

TEST(ParserTest, PrecedenceNesting) {
  std::vector<std::string> D;
  auto TU = parse("long f() { return 1 + 2 * 3 - 4 / 2; }", D);
  ASSERT_TRUE(TU);
  const auto *Body = static_cast<BlockStmt *>(TU->Functions[0].Body.get());
  const auto *Ret = static_cast<ReturnStmt *>(Body->Stmts[0].get());
  // Top node is the subtraction.
  const auto *Sub = static_cast<BinaryExpr *>(Ret->E.get());
  ASSERT_EQ(Sub->Kind, Expr::EK_Binary);
  EXPECT_EQ(Sub->Op, BinaryExpr::BO_Sub);
  const auto *Add = static_cast<BinaryExpr *>(Sub->LHS.get());
  EXPECT_EQ(Add->Op, BinaryExpr::BO_Add);
  const auto *Div = static_cast<BinaryExpr *>(Sub->RHS.get());
  EXPECT_EQ(Div->Op, BinaryExpr::BO_Div);
}

TEST(ParserTest, DanglingElseBindsInner) {
  std::vector<std::string> D;
  auto TU = parse("long f(long a) { if (a) if (a > 1) return 1; "
                  "else return 2; return 3; }",
                  D);
  ASSERT_TRUE(TU);
  const auto *Body = static_cast<BlockStmt *>(TU->Functions[0].Body.get());
  const auto *Outer = static_cast<IfStmt *>(Body->Stmts[0].get());
  EXPECT_EQ(Outer->Else, nullptr); // else bound to the inner if.
  const auto *Inner = static_cast<IfStmt *>(Outer->Then.get());
  EXPECT_NE(Inner->Else, nullptr);
}

TEST(ParserTest, ErrorsReported) {
  std::vector<std::string> D;
  auto TU = parse("long f( { return 0; }", D);
  EXPECT_FALSE(TU);
  EXPECT_FALSE(D.empty());
}

TEST(RemapTypeTest, RecursiveSubstitution) {
  IRContext Ctx;
  TypeContext &T = Ctx.getTypes();
  RecordType *Old = T.getOrCreateRecord("old");
  Old->setFields({{"a", T.getI64(), 0, 0}});
  RecordType *New = T.getOrCreateRecord("new");
  New->setFields({{"a", T.getI64(), 0, 0}});

  EXPECT_EQ(remapType(T, Old, Old, New), New);
  EXPECT_EQ(remapType(T, T.getPointerType(Old), Old, New),
            T.getPointerType(New));
  EXPECT_EQ(remapType(T, T.getPointerType(T.getPointerType(Old)), Old, New),
            T.getPointerType(T.getPointerType(New)));
  EXPECT_EQ(remapType(T, T.getArrayType(Old, 3), Old, New),
            T.getArrayType(New, 3));
  FunctionType *FT =
      T.getFunctionType(T.getPointerType(Old), {T.getI32()});
  auto *Remapped = static_cast<FunctionType *>(remapType(T, FT, Old, New));
  EXPECT_EQ(Remapped->getReturnType(), T.getPointerType(New));
  // Types not involving Old are returned unchanged (same pointer).
  EXPECT_EQ(remapType(T, T.getI64(), Old, New), T.getI64());
  EXPECT_EQ(remapType(T, T.getPointerType(T.getF64()), Old, New),
            T.getPointerType(T.getF64()));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I < 100; ++I)
    Pool.enqueue([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.enqueue([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1);
  Pool.enqueue([&Count] { ++Count; });
  Pool.enqueue([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 3);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I < 50; ++I)
      Pool.enqueue([&Count] { ++Count; });
    // No wait(): the destructor must still run every queued task.
  }
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPoolTest, IndexAddressedResultsAreDeterministic) {
  // The bench harness pattern: each task owns one output slot, so the
  // reduced result is independent of scheduling order.
  ThreadPool Pool(4);
  std::vector<int> Out(64, 0);
  for (size_t I = 0; I < Out.size(); ++I)
    Pool.enqueue([&Out, I] { Out[I] = static_cast<int>(I * I); });
  Pool.wait();
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], static_cast<int>(I * I));
}

TEST(DiagnosticsTest, EscapeJsonHandlesHostileStrings) {
  EXPECT_EQ(escapeJson("plain"), "plain");
  EXPECT_EQ(escapeJson("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(escapeJson("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(escapeJson(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(escapeJson("\x01\x1f"), "\\u0001\\u001f");
  EXPECT_EQ(escapeJson("tab\there"), "tab\\there");
}

TEST(DiagnosticsTest, RenderJsonEscapesRecordAndFieldNames) {
  // Record/field names come from user source; a hostile name must not
  // be able to break the JSON array the tooling consumes.
  DiagnosticEngine E;
  Diagnostic &D =
      E.report(DiagSeverity::Warning, "CSTT", "cast of \"rec\"\nto char*");
  D.RecordName = "rec\"ord\\1";
  D.Function = "f\tn";
  D.Site = "bitcast 'p' in \"g\"";

  std::string Json = E.renderJson();
  EXPECT_NE(Json.find("rec\\\"ord\\\\1"), std::string::npos);
  EXPECT_NE(Json.find("f\\tn"), std::string::npos);
  EXPECT_NE(Json.find("cast of \\\"rec\\\"\\nto char*"), std::string::npos);
  // No raw control characters or unescaped quotes survive into the
  // output: every '"' is either structural or preceded by a backslash.
  for (size_t I = 0; I < Json.size(); ++I)
    EXPECT_GE(static_cast<unsigned char>(Json[I]), 0x20u) << "at " << I;
}

} // namespace
