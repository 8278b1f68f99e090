//===- tests/lint_test.cpp - Layout-hazard lint suite unit tests ----------===//

#include "analysis/Legality.h"
#include "analysis/LegalityRefine.h"
#include "analysis/PointsTo.h"
#include "analysis/lint/Lint.h"
#include "frontend/Frontend.h"
#include "ir/Module.h"
#include "observability/CounterRegistry.h"
#include "support/Diagnostics.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace slo;

namespace {

struct Linted {
  std::unique_ptr<IRContext> Ctx;
  std::unique_ptr<Module> M;
  LegalityResult Legal;
  PointsToResult PT;
  LintResult R;
};

Linted lint(const std::vector<std::string> &Sources,
            const LintOptions &Opts = LintOptions()) {
  Linted L;
  L.Ctx = std::make_unique<IRContext>();
  std::vector<std::string> Diags;
  L.M = compileProgram(*L.Ctx, "t", Sources, Diags);
  EXPECT_TRUE(L.M) << (Diags.empty() ? "?" : Diags[0]);
  L.Legal = analyzeLegality(*L.M);
  L.PT = analyzePointsTo(*L.M);
  L.R = runLint(*L.M, &L.PT, &L.Legal, Opts);
  return L;
}

Linted lint(const char *Src, const LintOptions &Opts = LintOptions()) {
  return lint(std::vector<std::string>{Src}, Opts);
}

TEST(LintTest, UseAfterFreeAndKindNames) {
  Linted L = lint(R"(
    extern void print_i64(long v);
    struct s { long a; long b; };
    int main() {
      struct s *p = (struct s*) malloc(2 * sizeof(struct s));
      p->a = 7;
      free(p);
      print_i64(p->a);
      return 0;
    }
  )");
  EXPECT_EQ(L.R.count(LintKind::UseAfterFree), 1u);
  EXPECT_TRUE(L.R.hasErrors());
  EXPECT_STREQ(lintKindName(LintKind::UseAfterFree), "use-after-free");
  ASSERT_FALSE(L.R.Findings.empty());
  EXPECT_EQ(L.R.Findings[0].Function, "main");
}

TEST(LintTest, DoubleFree) {
  Linted L = lint(R"(
    struct s { long a; long b; };
    int main() {
      struct s *p = (struct s*) malloc(4 * sizeof(struct s));
      p->a = 1;
      free(p);
      free(p);
      return 0;
    }
  )");
  EXPECT_EQ(L.R.count(LintKind::DoubleFree), 1u);
  // The first free is fine; only the second is flagged.
  EXPECT_EQ(L.R.count(LintKind::InvalidFree), 0u);
}

TEST(LintTest, InteriorFreeIsInvalid) {
  Linted L = lint(R"(
    struct s { long a; long b; };
    int main() {
      struct s *p = (struct s*) malloc(4 * sizeof(struct s));
      p->a = 1;
      long *q = &p[1].a;
      free(q);
      free(p);
      return 0;
    }
  )");
  EXPECT_EQ(L.R.count(LintKind::InvalidFree), 1u);
}

TEST(LintTest, UninitReadOfHeapField) {
  Linted L = lint(R"(
    extern void print_i64(long v);
    struct s { long a; long b; long c; };
    int main() {
      struct s *p = (struct s*) malloc(2 * sizeof(struct s));
      p->a = 1;
      print_i64(p[1].b);
      free(p);
      return 0;
    }
  )");
  EXPECT_EQ(L.R.count(LintKind::UninitRead), 1u);
}

TEST(LintTest, CallocAndMemsetSuppressUninit) {
  Linted L = lint(R"(
    extern void print_i64(long v);
    struct s { long a; long b; };
    int main() {
      struct s *p = (struct s*) calloc(2, sizeof(struct s));
      print_i64(p[1].b);
      struct s *q = (struct s*) malloc(2 * sizeof(struct s));
      memset(q, 0, 2 * sizeof(struct s));
      print_i64(q[1].a);
      free(p);
      free(q);
      return 0;
    }
  )");
  EXPECT_EQ(L.R.count(LintKind::UninitRead), 0u);
  EXPECT_FALSE(L.R.hasErrors());
}

TEST(LintTest, LoopInitializationIsNotUninit) {
  // The init store's index is a loop variable, so the whole allocation
  // becomes may-initialized: no definite claim survives.
  Linted L = lint(R"(
    extern void print_i64(long v);
    struct s { long a; long b; };
    int main() {
      struct s *p = (struct s*) malloc(8 * sizeof(struct s));
      for (long i = 0; i < 8; i++) { p[i].a = i; p[i].b = i * 2; }
      long t = 0;
      for (long i = 0; i < 8; i++) { t += p[i].b; }
      print_i64(t);
      free(p);
      return 0;
    }
  )");
  EXPECT_FALSE(L.R.hasErrors());
}

TEST(LintTest, MustNullDerefAndEdgeRefinement) {
  Linted Bad = lint(R"(
    struct s { long a; long b; };
    int main() {
      struct s *p = (struct s*) 0;
      p->a = 1;
      return 0;
    }
  )");
  EXPECT_EQ(Bad.R.count(LintKind::NullDeref), 1u);

  // The guarded dereference happens only on the non-null edge: silent.
  Linted Guarded = lint(R"(
    extern void print_i64(long v);
    struct s { long a; long b; };
    long go(struct s *p) {
      if (p == (struct s*) 0) {
        return -1;
      }
      return p->a;
    }
    int main() {
      struct s *p = (struct s*) malloc(sizeof(struct s));
      p->a = 3;
      print_i64(go(p));
      free(p);
      return 0;
    }
  )");
  EXPECT_EQ(Guarded.R.count(LintKind::NullDeref), 0u);

  // Dereferencing on the null edge itself is definite.
  Linted OnNullEdge = lint(R"(
    struct s { long a; long b; };
    long go(struct s *p) {
      if (p == (struct s*) 0) {
        return p->a;
      }
      return 0;
    }
    int main() {
      return (int) go((struct s*) 0);
    }
  )");
  EXPECT_EQ(OnNullEdge.R.count(LintKind::NullDeref), 1u);
}

TEST(LintTest, DefiniteLeakIsAWarningNotAnError) {
  Linted L = lint(R"(
    extern void print_i64(long v);
    struct s { long a; long b; };
    int main() {
      struct s *p = (struct s*) malloc(2 * sizeof(struct s));
      p->a = 5;
      print_i64(p->a);
      return 0;
    }
  )");
  EXPECT_EQ(L.R.count(LintKind::Leak), 1u);
  EXPECT_FALSE(L.R.hasErrors());
  EXPECT_EQ(L.R.countSeverity(DiagSeverity::Warning), 1u);
  EXPECT_TRUE(L.R.HeapCoverageComplete);
}

TEST(LintTest, EscapedAllocationMakesNoClaims) {
  // The pointer escapes through a call, so neither a leak nor any
  // lifetime claim is valid — and coverage is reported incomplete.
  Linted L = lint(R"(
    extern void keep(long *p);
    int main() {
      long *p = (long*) malloc(8 * sizeof(long));
      keep(p);
      return 0;
    }
  )");
  EXPECT_TRUE(L.R.Findings.empty());
  EXPECT_FALSE(L.R.HeapCoverageComplete);
}

TEST(LintTest, InjectLifetimeBugSilencesFreeTracking) {
  const char *Src = R"(
    extern void print_i64(long v);
    struct s { long a; long b; };
    int main() {
      struct s *p = (struct s*) malloc(2 * sizeof(struct s));
      p->a = 7;
      free(p);
      print_i64(p->a);
      return 0;
    }
  )";
  LintOptions Buggy;
  Buggy.InjectLifetimeBug = true;
  EXPECT_EQ(lint(Src).R.count(LintKind::UseAfterFree), 1u);
  EXPECT_EQ(lint(Src, Buggy).R.count(LintKind::UseAfterFree), 0u);
}

TEST(LintTest, CastPunPinsTheRecordLayout) {
  Linted L = lint(R"(
    extern void print_i64(long v);
    struct s { long a; long b; long c; };
    int main() {
      struct s *p = (struct s*) malloc(4 * sizeof(struct s));
      for (long i = 0; i < 4; i++) { p[i].a = i; p[i].b = i; p[i].c = i; }
      long *raw = (long*) p;
      long t = 0;
      for (long i = 0; i < 12; i++) { t += raw[i]; }
      print_i64(t);
      free(p);
      return 0;
    }
  )");
  EXPECT_EQ(L.R.count(LintKind::LayoutPin), 1u);
  RecordType *Rec = L.Ctx->getTypes().lookupRecord("s");
  ASSERT_NE(Rec, nullptr);
  EXPECT_TRUE(L.R.Pinnings.isPinned(Rec));
  // Pins are notes: advisory in the report, load-bearing in refinement.
  EXPECT_FALSE(L.R.hasErrors());
}

TEST(LintTest, PunnedObjectPinsItsViewsInNameOrder) {
  // One heap object viewed as two records. The raw cast pins both views
  // at once, in view-set order: by name, not by where the allocator put
  // the records ('zeta' is created first).
  Linted L = lint(R"(
    extern void print_i64(long v);
    struct zeta { long a; long b; };
    struct alpha { long x; long y; };
    int main() {
      long *raw = (long*) malloc(4 * sizeof(long));
      raw[0] = 1;
      raw[1] = 2;
      struct zeta *z = (struct zeta*) raw;
      struct alpha *a = (struct alpha*) raw;
      print_i64(z->a + a->y);
      return 0;
    }
  )");
  std::vector<const LintFinding *> Pins;
  for (const LintFinding &F : L.R.Findings)
    if (F.Kind == LintKind::LayoutPin)
      Pins.push_back(&F);
  ASSERT_EQ(Pins.size(), 2u);
  EXPECT_EQ(Pins[0]->RecordName, "alpha");
  EXPECT_EQ(Pins[1]->RecordName, "zeta");
  EXPECT_EQ(Pins[0]->Inst, Pins[1]->Inst);
}

TEST(LintTest, OutOfBoundsFieldArithmeticPins) {
  Linted L = lint(R"(
    extern void print_i64(long v);
    struct s { long a; long b; long c; };
    int main() {
      struct s *p = (struct s*) malloc(2 * sizeof(struct s));
      p->a = 1; p->b = 2; p->c = 3;
      long *q = &p->a;
      print_i64(q[1]);
      free(p);
      return 0;
    }
  )");
  EXPECT_GE(L.R.count(LintKind::LayoutPin), 1u);
  RecordType *Rec = L.Ctx->getTypes().lookupRecord("s");
  ASSERT_NE(Rec, nullptr);
  EXPECT_TRUE(L.R.Pinnings.isPinned(Rec));
}

TEST(LintTest, PinningDemotesAProvenTypeOutOfProven) {
  // The reverse pun: the record view arrives via a cast from a heap
  // long* (CSTT, dischargeable — heap-only, no external escape, single
  // record view), so without pinning the type is Proven. The coexisting
  // raw long* indexed reads pin the layout, and the refinement must
  // demote it.
  Linted L = lint(R"(
    extern void print_i64(long v);
    struct pun { long f0; long f1; long f2; };
    int main() {
      long *q = (long*) malloc(4 * sizeof(struct pun));
      struct pun *a = (struct pun*) q;
      for (long i = 0; i < 4; i++) { a[i].f0 = i; a[i].f1 = i; a[i].f2 = i; }
      long t = 0;
      for (long i = 0; i < 4; i++) { t += a[i].f0; }
      t += q[2];
      print_i64(t);
      free(a);
      return 0;
    }
  )");
  RecordType *Rec = L.Ctx->getTypes().lookupRecord("pun");
  ASSERT_NE(Rec, nullptr);
  ASSERT_TRUE(L.R.Pinnings.isPinned(Rec));

  // Without the pinnings the discharge proofs admit the type.
  RefinementResult Plain = refineLegality(*L.M, L.Legal, L.PT);
  ASSERT_TRUE(Plain.isProvenLegal(Rec))
      << "test premise: the pun type must be Proven before demotion";

  // With them it is demoted, with a PINNED diagnostic.
  DiagnosticEngine Diags;
  RefinementResult Pinned =
      refineLegality(*L.M, L.Legal, L.PT, &Diags, &L.R.Pinnings);
  EXPECT_FALSE(Pinned.isProvenLegal(Rec));
  EXPECT_FALSE(Pinned.isTransformSafe(Rec));
  bool SawPinned = false;
  for (const Diagnostic &D : Diags.all())
    SawPinned |= D.Code == "PINNED" && D.RecordName == "pun";
  EXPECT_TRUE(SawPinned);
}

TEST(LintTest, StrictlyLegalTypesAreNeverDemoted) {
  // A clean type plus an artificial pin entry: the demotion must skip
  // strictly legal types so Legal <= Proven can never break.
  Linted L = lint(R"(
    extern void print_i64(long v);
    struct clean { long a; long b; };
    int main() {
      struct clean *p = (struct clean*) malloc(2 * sizeof(struct clean));
      p->a = 1;
      p->b = 2;
      print_i64(p->a + p->b);
      free(p);
      return 0;
    }
  )");
  RecordType *Rec = L.Ctx->getTypes().lookupRecord("clean");
  ASSERT_NE(Rec, nullptr);
  ASSERT_TRUE(L.Legal.get(Rec).isLegal(/*Relax=*/false));
  LayoutPinnings Pins;
  Pins.Reasons[Rec] = "artificial pin for the exemption test";
  RefinementResult Refined =
      refineLegality(*L.M, L.Legal, L.PT, nullptr, &Pins);
  EXPECT_TRUE(Refined.isProvenLegal(Rec));
}

TEST(LintTest, CountersAndDiagnosticsRender) {
  CounterRegistry Counters;
  LintOptions Opts;
  Opts.Counters = &Counters;
  Linted L = lint(R"(
    struct s { long a; long b; };
    int main() {
      struct s *p = (struct s*) malloc(2 * sizeof(struct s));
      p->a = 1;
      free(p);
      free(p);
      return 0;
    }
  )",
                  Opts);
  EXPECT_EQ(L.R.count(LintKind::DoubleFree), 1u);
  EXPECT_EQ(Counters.value("lint.findings"), L.R.Findings.size());
  EXPECT_EQ(Counters.value("lint.double-free"), 1u);

  DiagnosticEngine Diags;
  reportLintFindings(L.R, Diags);
  ASSERT_EQ(Diags.all().size(), L.R.Findings.size());
  EXPECT_EQ(Diags.all()[0].Code, "lint.double-free");
  EXPECT_NE(Diags.renderText().find("double free"), std::string::npos);
  EXPECT_NE(Diags.renderJson().find("lint.double-free"), std::string::npos);
}

TEST(LintTest, WorkloadsAndCorpusAreErrorClean) {
  // The acceptance bar: zero Error-severity findings across the 12
  // Table-1 workloads and the committed fuzz corpus. Every memory claim
  // the suite makes is definite, so one error here is a checker bug.
  for (const Workload &W : allWorkloads()) {
    Linted L = lint(W.Sources);
    EXPECT_FALSE(L.R.hasErrors()) << "workload " << W.Name;
  }
  std::filesystem::path Corpus(SLO_CORPUS_DIR);
  unsigned Files = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Corpus)) {
    if (Entry.path().extension() != ".minic")
      continue;
    ++Files;
    std::ifstream In(Entry.path());
    std::stringstream Buf;
    Buf << In.rdbuf();
    Linted L = lint(Buf.str().c_str());
    EXPECT_FALSE(L.R.hasErrors()) << "corpus " << Entry.path();
  }
  EXPECT_GT(Files, 0u);
}

} // namespace
