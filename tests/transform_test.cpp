//===- tests/transform_test.cpp - Splitting/peeling transformation tests --===//

#include "analysis/Legality.h"
#include "analysis/WeightSchemes.h"
#include "frontend/Frontend.h"
#include "ir/IRPrinter.h"
#include "pipeline/Pipeline.h"
#include "runtime/Interpreter.h"
#include "support/Casting.h"
#include "transform/LayoutPlanner.h"
#include "transform/Transform.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace slo;

namespace {

/// A program whose record has interleaved hot and cold fields, a dead
/// field, and an unused field; prints checksums of all live data.
const char *SplitWorkload = R"(
  extern void print_i64(long v);
  struct item {
    long hot_a;
    long cold_x;
    long hot_b;
    long cold_y;
    long dead_z;   // written, never read
    long unused_w; // never touched
  };
  struct item *arr;
  long param_n;
  void pin(struct item *p) { }   // escape: blocks peeling, not splitting
  int main() {
    long n = param_n;
    arr = (struct item*) malloc(n * sizeof(struct item));
    pin(arr);
    for (long i = 0; i < n; i++) {
      arr[i].hot_a = i;
      arr[i].hot_b = 2 * i;
      arr[i].cold_x = 3 * i;
      arr[i].cold_y = 4 * i;
      arr[i].dead_z = 5 * i;
    }
    long hot = 0;
    // Deeply nested so the static estimator sees the hot/cold contrast
    // (static loop weights grow with nesting depth, not trip counts).
    for (long r = 0; r < 2; r++)
      for (long k = 0; k < 2; k++)
        for (long m = 0; m < 5; m++)
          for (long i = 0; i < n; i++)
            hot += arr[i].hot_a + arr[i].hot_b;
    long cold = 0;
    for (long i = 0; i < n; i++)
      cold += arr[i].cold_x + arr[i].cold_y;
    print_i64(hot);
    print_i64(cold);
    free(arr);
    return 0;
  }
)";

/// The paper's 179.art shape: one global pointer, per-field peelable.
const char *PeelWorkload = R"(
  extern void print_f64(double v);
  struct neuron {
    double i_val;
    double w_val;
    double x_val;
    double y_val;
  };
  struct neuron *f1;
  long param_n;
  int main() {
    f1 = (struct neuron*) malloc(param_n * sizeof(struct neuron));
    for (long i = 0; i < param_n; i++) {
      f1[i].i_val = i * 0.5;
      f1[i].w_val = i * 0.25;
      f1[i].x_val = 1.0;
      f1[i].y_val = 2.0;
    }
    double s = 0.0;
    for (long r = 0; r < 10; r++)
      for (long i = 0; i < param_n; i++)
        s += f1[i].w_val;
    print_f64(s);
    double t = 0.0;
    for (long i = 0; i < param_n; i++)
      t += f1[i].i_val + f1[i].x_val + f1[i].y_val;
    print_f64(t);
    free(f1);
    return 0;
  }
)";

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

static RunOptions withN(int64_t N) {
  RunOptions O;
  O.IntParams["param_n"] = N;
  return O;
}

/// Plans with the static (ISPBO) heuristics.
static std::vector<TypePlan> planStatic(Module &M, LegalityResult &Legal,
                                        PlannerOptions Opts = {}) {
  SchemeInputs In;
  In.M = &M;
  FieldStatsResult Stats = computeSchemeFieldStats(WeightScheme::ISPBO, In);
  return planLayout(M, Legal, Stats, Opts);
}

TEST(PlannerTest, SplitWorkloadPlan) {
  Compiled C = compile(SplitWorkload);
  LegalityResult Legal = analyzeLegality(*C.M);
  RecordType *Item = C.Ctx->getTypes().lookupRecord("item");
  ASSERT_TRUE(Legal.get(Item).isLegal()) << violationMaskToString(
      Legal.get(Item).Violations);

  std::vector<TypePlan> Plans = planStatic(*C.M, Legal);
  const TypePlan *ItemPlan = nullptr;
  for (const TypePlan &P : Plans)
    if (P.Rec == Item)
      ItemPlan = &P;
  ASSERT_NE(ItemPlan, nullptr);
  EXPECT_EQ(ItemPlan->Kind, TransformKind::Split) << ItemPlan->Reason;
  // hot_a/hot_b hot (20 reps); cold_x/cold_y cold; dead_z dead; unused_w
  // unused.
  EXPECT_EQ(ItemPlan->HotFields.size(), 2u);
  EXPECT_EQ(ItemPlan->ColdFields.size(), 2u);
  EXPECT_EQ(ItemPlan->DeadFields.size(), 1u);
  EXPECT_EQ(ItemPlan->UnusedFields.size(), 1u);
  EXPECT_EQ(ItemPlan->DeadFields[0], 4u);
  EXPECT_EQ(ItemPlan->UnusedFields[0], 5u);
}

TEST(SplitTest, PreservesSemantics) {
  Compiled Ref = compile(SplitWorkload);
  RunResult Before = runProgram(*Ref.M, withN(500));
  ASSERT_FALSE(Before.Trapped) << Before.TrapReason;

  Compiled C = compile(SplitWorkload);
  LegalityResult Legal = analyzeLegality(*C.M);
  std::vector<TypePlan> Plans = planStatic(*C.M, Legal);
  TransformSummary Summary = applyPlans(*C.M, Plans, Legal);
  ASSERT_EQ(Summary.TypesTransformed, 1u);

  RunResult After = runProgram(*C.M, withN(500));
  ASSERT_FALSE(After.Trapped) << After.TrapReason;
  EXPECT_EQ(Before.PrintedInts, After.PrintedInts);
  EXPECT_EQ(Before.ExitCode, After.ExitCode);
}

TEST(SplitTest, NewLayoutShrinksHotRecord) {
  Compiled C = compile(SplitWorkload);
  LegalityResult Legal = analyzeLegality(*C.M);
  std::vector<TypePlan> Plans = planStatic(*C.M, Legal);
  TransformSummary Summary = applyPlans(*C.M, Plans, Legal);
  ASSERT_EQ(Summary.Applied.size(), 1u);
  const SplitResult &S = Summary.Applied[0].Split;
  ASSERT_NE(S.HotRec, nullptr);
  ASSERT_NE(S.ColdRec, nullptr);
  // Hot: hot_a + hot_b + link = 24 bytes (down from 48).
  EXPECT_EQ(S.HotRec->getNumFields(), 3u);
  EXPECT_EQ(S.HotRec->getSize(), 24u);
  EXPECT_EQ(S.ColdRec->getNumFields(), 2u);
  EXPECT_EQ(S.ColdRec->getSize(), 16u);
  EXPECT_EQ(S.HotRec->getField(S.LinkFieldIndex).Name, "cold_link");
}

TEST(SplitTest, ImprovesHotLoopCycles) {
  // The whole point of the paper: fewer cycles after splitting on a
  // workload dominated by hot-field scans.
  Compiled Ref = compile(SplitWorkload);
  RunResult Before = runProgram(*Ref.M, withN(20000));
  ASSERT_FALSE(Before.Trapped);

  Compiled C = compile(SplitWorkload);
  LegalityResult Legal = analyzeLegality(*C.M);
  std::vector<TypePlan> Plans = planStatic(*C.M, Legal);
  applyPlans(*C.M, Plans, Legal);
  RunResult After = runProgram(*C.M, withN(20000));
  ASSERT_FALSE(After.Trapped) << After.TrapReason;

  EXPECT_EQ(Before.PrintedInts, After.PrintedInts);
  EXPECT_LT(After.Cycles, Before.Cycles);
}

TEST(PeelTest, WorkloadIsPeelable) {
  Compiled C = compile(PeelWorkload);
  LegalityResult Legal = analyzeLegality(*C.M);
  RecordType *Neuron = C.Ctx->getTypes().lookupRecord("neuron");
  PeelabilityInfo Info =
      analyzePeelability(*C.M, Neuron, Legal.get(Neuron));
  EXPECT_TRUE(Info.Peelable) << Info.Reason;
}

TEST(PeelTest, PreservesSemantics) {
  Compiled Ref = compile(PeelWorkload);
  RunResult Before = runProgram(*Ref.M, withN(300));
  ASSERT_FALSE(Before.Trapped) << Before.TrapReason;

  Compiled C = compile(PeelWorkload);
  LegalityResult Legal = analyzeLegality(*C.M);
  std::vector<TypePlan> Plans = planStatic(*C.M, Legal);
  TransformSummary Summary = applyPlans(*C.M, Plans, Legal);
  ASSERT_EQ(Summary.TypesTransformed, 1u);
  ASSERT_EQ(Summary.Applied[0].Plan.Kind, TransformKind::Peel);
  EXPECT_EQ(Summary.Applied[0].Peel.GroupRecs.size(), 4u);

  RunResult After = runProgram(*C.M, withN(300));
  ASSERT_FALSE(After.Trapped) << After.TrapReason;
  ASSERT_EQ(Before.PrintedFloats.size(), After.PrintedFloats.size());
  for (size_t I = 0; I < Before.PrintedFloats.size(); ++I)
    EXPECT_DOUBLE_EQ(Before.PrintedFloats[I], After.PrintedFloats[I]);
}

TEST(PeelTest, ImprovesSingleFieldScan) {
  // 50000 neurons = 1.6 MiB; with a 1 MiB L3 the unpeeled scan goes to
  // memory while the peeled per-field array (400 KiB) fits in L3.
  RunOptions Opts = withN(50000);
  Opts.Cache.L3.SizeBytes = 1 << 20;

  Compiled Ref = compile(PeelWorkload);
  RunResult Before = runProgram(*Ref.M, Opts);
  ASSERT_FALSE(Before.Trapped);

  Compiled C = compile(PeelWorkload);
  LegalityResult Legal = analyzeLegality(*C.M);
  std::vector<TypePlan> Plans = planStatic(*C.M, Legal);
  applyPlans(*C.M, Plans, Legal);
  RunResult After = runProgram(*C.M, Opts);
  ASSERT_FALSE(After.Trapped) << After.TrapReason;
  // The w_val scan touches 1/4 of the memory: cycles must drop clearly.
  EXPECT_LT(After.Cycles, Before.Cycles * 9 / 10);
}

TEST(PeelTest, RecursivePointerBlocksPeeling) {
  Compiled C = compile(R"(
    struct node { long v; struct node *next; };
    struct node *head;
    long param_n;
    int main() {
      head = (struct node*) malloc(10 * sizeof(struct node));
      return 0;
    }
  )");
  LegalityResult Legal = analyzeLegality(*C.M);
  RecordType *Node = C.Ctx->getTypes().lookupRecord("node");
  PeelabilityInfo Info = analyzePeelability(*C.M, Node, Legal.get(Node));
  EXPECT_FALSE(Info.Peelable);
}

TEST(PeelTest, EscapeToFunctionBlocksPeeling) {
  Compiled C = compile(R"(
    struct pt { double x; double y; };
    struct pt *arr;
    void helper(struct pt *p) { p->x = 1.0; }
    int main() {
      arr = (struct pt*) malloc(8 * sizeof(struct pt));
      helper(arr);
      return 0;
    }
  )");
  LegalityResult Legal = analyzeLegality(*C.M);
  RecordType *Pt = C.Ctx->getTypes().lookupRecord("pt");
  PeelabilityInfo Info = analyzePeelability(*C.M, Pt, Legal.get(Pt));
  EXPECT_FALSE(Info.Peelable);
}

TEST(SplitTest, CallocAndConstantCountsWork) {
  const char *Src = R"(
    extern void print_i64(long v);
    struct rec { long a; long b; long c; long d; };
    struct rec *r;
    int main() {
      r = (struct rec*) calloc(64, sizeof(struct rec));
      long s0 = 0;
      for (long i = 0; i < 64; i++) s0 += r[i].a + r[i].b;
      for (long i = 0; i < 64; i++) { r[i].a = i; r[i].b = i + 1; }
      long s = s0;
      for (long k = 0; k < 30; k++)
        for (long i = 0; i < 64; i++) s += r[i].a + r[i].b;
      for (long i = 0; i < 64; i++) { r[i].c = 1; r[i].d = 2; }
      for (long i = 0; i < 64; i++) s += r[i].c * r[i].d;
      print_i64(s);
      free(r);
      return 0;
    }
  )";
  Compiled Ref = compile(Src);
  RunResult Before = runProgram(*Ref.M);
  ASSERT_FALSE(Before.Trapped) << Before.TrapReason;

  Compiled C = compile(Src);
  LegalityResult Legal = analyzeLegality(*C.M);
  std::vector<TypePlan> Plans = planStatic(*C.M, Legal);
  TransformSummary Summary = applyPlans(*C.M, Plans, Legal);
  RunResult After = runProgram(*C.M);
  ASSERT_FALSE(After.Trapped) << After.TrapReason;
  EXPECT_EQ(Before.PrintedInts, After.PrintedInts);
  (void)Summary;
}

TEST(PlannerTest, IllegalTypesAreNotPlanned) {
  Compiled C = compile(R"(
    extern void consume(void *p);
    struct esc { long a; long b; long c; };
    struct esc *e;
    int main() {
      e = (struct esc*) malloc(16 * sizeof(struct esc));
      consume(e);
      return 0;
    }
  )");
  LegalityResult Legal = analyzeLegality(*C.M);
  std::vector<TypePlan> Plans = planStatic(*C.M, Legal);
  for (const TypePlan &P : Plans)
    EXPECT_EQ(P.Kind, TransformKind::None) << P.Rec->getRecordName();
}

TEST(PlannerTest, SmallAllocationBlocksTransform) {
  Compiled C = compile(R"(
    struct one { long a; long b; long c; };
    struct one *p;
    int main() {
      p = (struct one*) malloc(sizeof(struct one));
      p->a = 1;
      return (int) p->a;
    }
  )");
  LegalityResult Legal = analyzeLegality(*C.M);
  RecordType *One = C.Ctx->getTypes().lookupRecord("one");
  EXPECT_TRUE(Legal.get(One).hasViolation(Violation::SMAL));
}

TEST(SplitTest, ForcedPlanSplitsChosenFields) {
  // The §2.4 experiment shape: force specific fields out regardless of
  // the heuristics (used by the hot-split ablation bench).
  Compiled Ref = compile(SplitWorkload);
  RunResult Before = runProgram(*Ref.M, withN(400));

  Compiled C = compile(SplitWorkload);
  LegalityResult Legal = analyzeLegality(*C.M);
  RecordType *Item = C.Ctx->getTypes().lookupRecord("item");
  TypePlan Plan;
  Plan.Rec = Item;
  Plan.Kind = TransformKind::Split;
  Plan.HotFields = {1, 3};    // Force the COLD fields to stay...
  Plan.ColdFields = {0, 2};   // ...and split out the HOT ones.
  Plan.DeadFields = {4};
  Plan.UnusedFields = {5};
  TransformSummary Summary = applyPlans(*C.M, {Plan}, Legal);
  ASSERT_EQ(Summary.TypesTransformed, 1u);

  RunResult After = runProgram(*C.M, withN(400));
  ASSERT_FALSE(After.Trapped) << After.TrapReason;
  EXPECT_EQ(Before.PrintedInts, After.PrintedInts);
}

TEST(SplitTest, MultipleTypesInOneProgram) {
  const char *Src = R"(
    extern void print_i64(long v);
    struct a { long h; long c1; long c2; long c3; };
    struct b { double h; double c1; double c2; double c3; };
    struct a *pa;
    struct b *pb;
    long param_n;
    int main() {
      pa = (struct a*) malloc(param_n * sizeof(struct a));
      pb = (struct b*) malloc(param_n * sizeof(struct b));
      for (long i = 0; i < param_n; i++) {
        pa[i].h = i; pa[i].c1 = i; pa[i].c2 = i; pa[i].c3 = i;
        pb[i].h = 1.0; pb[i].c1 = 0.0; pb[i].c2 = 0.0; pb[i].c3 = 0.0;
      }
      long s = 0;
      double f = 0.0;
      for (long r = 0; r < 25; r++)
        for (long i = 0; i < param_n; i++) { s += pa[i].h; f += pb[i].h; }
      s += (long) f;
      for (long i = 0; i < param_n; i++)
        s += pa[i].c1 + pa[i].c2 + pa[i].c3;
      print_i64(s);
      free(pa);
      free(pb);
      return 0;
    }
  )";
  Compiled Ref = compile(Src);
  RunResult Before = runProgram(*Ref.M, withN(600));
  ASSERT_FALSE(Before.Trapped);

  Compiled C = compile(Src);
  LegalityResult Legal = analyzeLegality(*C.M);
  std::vector<TypePlan> Plans = planStatic(*C.M, Legal);
  TransformSummary Summary = applyPlans(*C.M, Plans, Legal);
  EXPECT_EQ(Summary.TypesTransformed, 2u);
  RunResult After = runProgram(*C.M, withN(600));
  ASSERT_FALSE(After.Trapped) << After.TrapReason;
  EXPECT_EQ(Before.PrintedInts, After.PrintedInts);
}

//===----------------------------------------------------------------------===//
// Per-plan verification scope
//===----------------------------------------------------------------------===//

/// Plans \p M with the default one-shot pipeline, then applies the plans
/// one at a time. After each plan, every function whose printed text
/// changed must be in that plan's touched set. Returns the plans applied.
static unsigned checkTouchedCoversChanges(Module &M, const std::string &Name) {
  PipelineOptions Opts;
  Opts.AnalyzeOnly = true;
  PipelineResult R = runStructLayoutPipeline(M, Opts);
  std::map<const Function *, std::string> Text;
  for (const auto &F : M.functions())
    Text[F.get()] = printFunction(*F);
  unsigned Plans = 0;
  applyPlans(M, R.Plans, R.Legality,
             [&](Module &, const AppliedTransform &A) {
               ++Plans;
               const TouchedFunctions &Touched = A.touched();
               EXPECT_FALSE(Touched.empty())
                   << Name << ": " << A.Plan.Rec->getRecordName();
               for (const auto &F : M.functions()) {
                 std::string Now = printFunction(*F);
                 if (Now == Text[F.get()])
                   continue;
                 EXPECT_NE(std::find(Touched.begin(), Touched.end(), F.get()),
                           Touched.end())
                     << Name << ": the plan for '"
                     << A.Plan.Rec->getRecordName() << "' changed '"
                     << F->getName() << "' without touching it";
                 Text[F.get()] = std::move(Now);
               }
             });
  return Plans;
}

TEST(VerifyScopeTest, TouchedSetCoversEveryChangedFunction) {
  unsigned Plans = 0;
  for (const Workload &W : allWorkloads()) {
    IRContext Ctx;
    std::vector<std::string> Diags;
    auto M = compileProgram(Ctx, W.Name, W.Sources, Diags);
    ASSERT_TRUE(M) << W.Name;
    Plans += checkTouchedCoversChanges(*M, W.Name);
  }
  for (const auto &Entry :
       std::filesystem::directory_iterator(SLO_CORPUS_DIR)) {
    if (Entry.path().extension() != ".minic")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Buf;
    Buf << In.rdbuf();
    Compiled C = compile(Buf.str().c_str());
    ASSERT_TRUE(C.M) << Entry.path();
    Plans += checkTouchedCoversChanges(*C.M, Entry.path().filename().string());
  }
  for (const char *Src : {SplitWorkload, PeelWorkload}) {
    Compiled C = compile(Src);
    Plans += checkTouchedCoversChanges(*C.M, "inline workload");
  }
  EXPECT_GT(Plans, 50u);
}

TEST(VerifyScopeDeathTest, CorruptRewriteCaughtAtItsPlan) {
  // A rewrite that leaves one access on the old record: the per-plan
  // check must stop at this split, before the final whole-module verify
  // (whose message would start "module verification failed").
  auto Corrupt = [](Module &M, const AppliedTransform &A) {
    for (Function *F : A.touched())
      for (const auto &BB : F->blocks())
        for (const auto &I : BB->instructions())
          if (auto *FA = dyn_cast<FieldAddrInst>(I.get()))
            if (FA->getRecord() == A.Split.HotRec) {
              FA->setTarget(M.getTypes(), A.Plan.Rec, 0);
              return;
            }
    FAIL() << "no access on the new record to corrupt";
  };
  EXPECT_DEATH(
      {
        Compiled C = compile(SplitWorkload);
        LegalityResult Legal = analyzeLegality(*C.M);
        std::vector<TypePlan> Plans = planStatic(*C.M, Legal);
        applyPlans(*C.M, Plans, Legal, Corrupt);
      },
      "verification failed after split of 'item': function '.*': fieldaddr "
      "base does not point to the accessed record");
}

} // namespace
