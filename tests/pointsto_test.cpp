//===- tests/pointsto_test.cpp - Points-to & refinement unit tests --------===//

#include "analysis/Legality.h"
#include "analysis/LegalityRefine.h"
#include "analysis/PointsTo.h"
#include "frontend/Frontend.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Instructions.h"
#include "ir/Module.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

using namespace slo;

namespace {

struct Refined {
  std::unique_ptr<IRContext> Ctx;
  std::unique_ptr<Module> M;
  LegalityResult Legal;
  PointsToResult PT;
  DiagnosticEngine Diags;
  RefinementResult Refinement;
};

static Refined refine(const char *Src) {
  Refined R;
  R.Ctx = std::make_unique<IRContext>();
  std::vector<std::string> FeDiags;
  R.M = compileMiniC(*R.Ctx, "t", Src, FeDiags);
  EXPECT_TRUE(R.M) << (FeDiags.empty() ? "?" : FeDiags[0]);
  R.Legal = analyzeLegality(*R.M);
  R.PT = analyzePointsTo(*R.M);
  R.Refinement = refineLegality(*R.M, R.Legal, R.PT, &R.Diags);
  return R;
}

static RecordType *record(Refined &R, const char *Name) {
  RecordType *Rec = R.Ctx->getTypes().lookupRecord(Name);
  EXPECT_NE(Rec, nullptr) << Name;
  return Rec;
}

static const SiteProof *proofFor(const TypeRefinement &TR, Violation Kind) {
  for (const SiteProof &P : TR.Proofs)
    if (P.Site->Kind == Kind)
      return &P;
  return nullptr;
}

TEST(PointsToTest, LocalAllocationDoesNotEscape) {
  Refined R = refine(R"(
    struct s { long a; long b; long c; };
    int main() {
      struct s *l = (struct s*) malloc(4 * sizeof(struct s));
      l->a = 1;
      return (int) l->a;
    }
  )");
  std::vector<PointsToResult::ObjectID> Objs =
      R.PT.objectsViewedAs(record(R, "s"));
  ASSERT_EQ(Objs.size(), 1u);
  const MemObject &O = R.PT.object(Objs[0]);
  EXPECT_EQ(O.K, MemObject::Kind::Heap);
  EXPECT_EQ(O.Escape, EscapeState::NoEscape);
}

TEST(PointsToTest, GlobalPointerEscapesGlobally) {
  Refined R = refine(R"(
    struct s { long a; long b; long c; };
    struct s *p;
    int main() {
      p = (struct s*) malloc(4 * sizeof(struct s));
      p->a = 1;
      return 0;
    }
  )");
  std::vector<PointsToResult::ObjectID> Objs =
      R.PT.objectsViewedAs(record(R, "s"));
  ASSERT_EQ(Objs.size(), 1u);
  EXPECT_EQ(R.PT.object(Objs[0]).Escape, EscapeState::GlobalEscape);
}

TEST(PointsToTest, WrapperMallocCastDischarged) {
  // The paper invalidates wrapper-allocated types (CSTT); the points-to
  // refinement proves the cast benign, but the type stays untransformable
  // because the allocation site is not rewritable.
  Refined R = refine(R"(
    struct s { long a; long b; };
    struct s *p;
    void *wrap(long bytes) { return malloc(bytes); }
    int main() {
      p = (struct s*) wrap(10 * sizeof(struct s));
      p->a = 1;
      return 0;
    }
  )");
  RecordType *Rec = record(R, "s");
  const TypeLegality &L = R.Legal.get(Rec);
  ASSERT_TRUE(L.hasViolation(Violation::CSTT))
      << violationMaskToString(L.Violations);

  const TypeRefinement *TR = R.Refinement.get(Rec);
  ASSERT_NE(TR, nullptr);
  const SiteProof *P = proofFor(*TR, Violation::CSTT);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->Discharged) << P->Fact;
  EXPECT_TRUE(TR->ProvenLegal);
  EXPECT_TRUE(R.Refinement.isProvenLegal(Rec));
  // wrap's malloc is not a rewritable allocation site of 's'.
  EXPECT_FALSE(TR->TransformSafe);
}

TEST(PointsToTest, RoundTripThroughUntypedPointerDischarged) {
  // s* -> long* -> s* with no dereference of the untyped alias: both the
  // CSTF and the CSTT site are proven benign, and the direct malloc makes
  // the type transformable.
  Refined R = refine(R"(
    struct s { long a; long b; long c; };
    struct s *p;
    int main() {
      p = (struct s*) malloc(8 * sizeof(struct s));
      long *raw = (long*) p;
      struct s *q = (struct s*) raw;
      q->a = 1;
      return (int) q->a;
    }
  )");
  RecordType *Rec = record(R, "s");
  const TypeLegality &L = R.Legal.get(Rec);
  ASSERT_TRUE(L.hasViolation(Violation::CSTF))
      << violationMaskToString(L.Violations);
  ASSERT_TRUE(L.hasViolation(Violation::CSTT))
      << violationMaskToString(L.Violations);

  const TypeRefinement *TR = R.Refinement.get(Rec);
  ASSERT_NE(TR, nullptr);
  const SiteProof *F = proofFor(*TR, Violation::CSTF);
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->Discharged) << F->Fact;
  const SiteProof *T = proofFor(*TR, Violation::CSTT);
  ASSERT_NE(T, nullptr);
  EXPECT_TRUE(T->Discharged) << T->Fact;
  EXPECT_TRUE(TR->ProvenLegal);
  EXPECT_TRUE(TR->TransformSafe);
}

TEST(PointsToTest, DereferencedForeignAliasBlocksCSTF) {
  // raw[0] reads the layout through a foreign-typed alias: the CSTF site
  // must NOT be discharged.
  Refined R = refine(R"(
    struct s { long a; long b; };
    struct s *p;
    int main() {
      p = (struct s*) malloc(4 * sizeof(struct s));
      long *raw = (long*) p;
      return (int) raw[0];
    }
  )");
  RecordType *Rec = record(R, "s");
  ASSERT_TRUE(R.Legal.get(Rec).hasViolation(Violation::CSTF));
  const TypeRefinement *TR = R.Refinement.get(Rec);
  ASSERT_NE(TR, nullptr);
  const SiteProof *F = proofFor(*TR, Violation::CSTF);
  ASSERT_NE(F, nullptr);
  EXPECT_FALSE(F->Discharged) << F->Fact;
  EXPECT_FALSE(TR->ProvenLegal);
  EXPECT_FALSE(R.Refinement.isProvenLegal(Rec));
}

TEST(PointsToTest, FieldAddrInCallArgSetsAttrs) {
  // Regression: a field address passed directly as a call argument is
  // tolerated (no ATKN), but must still record the escape information.
  Refined R = refine(R"(
    struct s { long a; long b; };
    struct s *p;
    void sink(long *x) { *x = 3; }
    int main() {
      p = (struct s*) malloc(4 * sizeof(struct s));
      sink(&p->b);
      return 0;
    }
  )");
  RecordType *Rec = record(R, "s");
  const TypeLegality &L = R.Legal.get(Rec);
  EXPECT_FALSE(L.hasViolation(Violation::ATKN))
      << violationMaskToString(L.Violations);
  EXPECT_TRUE(L.Attrs.PassedToFunction);
  const Function *Sink = nullptr;
  for (const auto &F : R.M->functions())
    if (F->getName() == "sink")
      Sink = F.get();
  ASSERT_NE(Sink, nullptr);
  EXPECT_TRUE(L.EscapesTo.count(Sink));
}

TEST(PointsToTest, StashedFieldAddressDischargedWhenContained) {
  // &p->b stored to a global but only used inside analyzed code: ATKN is
  // flagged, then discharged, and the planner is told to keep field 1
  // live.
  Refined R = refine(R"(
    struct s { long a; long b; long c; };
    struct s *p;
    long *stash;
    int main() {
      p = (struct s*) malloc(4 * sizeof(struct s));
      stash = &p->b;
      *stash = 7;
      return 0;
    }
  )");
  RecordType *Rec = record(R, "s");
  ASSERT_TRUE(R.Legal.get(Rec).hasViolation(Violation::ATKN));
  const TypeRefinement *TR = R.Refinement.get(Rec);
  ASSERT_NE(TR, nullptr);
  const SiteProof *P = proofFor(*TR, Violation::ATKN);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->Discharged) << P->Fact;
  EXPECT_TRUE(TR->ProvenLegal);
  EXPECT_EQ(TR->AddressTakenLiveFields.count(1u), 1u);
}

TEST(PointsToTest, ExternalEscapeBlocksDischarge) {
  // The stashed field address reaches an external function: nothing can
  // be proven about the callee, so the ATKN site stays undischarged.
  Refined R = refine(R"(
    extern void sink(long *x);
    struct s { long a; long b; };
    struct s *p;
    long *stash;
    int main() {
      p = (struct s*) malloc(4 * sizeof(struct s));
      stash = &p->b;
      sink(stash);
      return 0;
    }
  )");
  RecordType *Rec = record(R, "s");
  ASSERT_TRUE(R.Legal.get(Rec).hasViolation(Violation::ATKN));
  const TypeRefinement *TR = R.Refinement.get(Rec);
  ASSERT_NE(TR, nullptr);
  const SiteProof *P = proofFor(*TR, Violation::ATKN);
  ASSERT_NE(P, nullptr);
  EXPECT_FALSE(P->Discharged) << P->Fact;
  EXPECT_FALSE(TR->ProvenLegal);
}

TEST(PointsToTest, IndirectCallResolvedButNotProven) {
  // IND is never discharged (the paper's Relax column does not forgive
  // it either), but the resolved target set is reported.
  Refined R = refine(R"(
    struct s { long a; };
    struct s *p;
    void taker(struct s *q) { q->a = 1; }
    int main() {
      p = (struct s*) malloc(4 * sizeof(struct s));
      void (*fn)(struct s*);
      fn = taker;
      fn(p);
      return 0;
    }
  )");
  RecordType *Rec = record(R, "s");
  ASSERT_TRUE(R.Legal.get(Rec).hasViolation(Violation::IND));
  const TypeRefinement *TR = R.Refinement.get(Rec);
  ASSERT_NE(TR, nullptr);
  EXPECT_EQ(TR->ResolvedIndirectSites, 1u);
  EXPECT_FALSE(TR->ProvenLegal);

  // The solver itself resolves the site to exactly 'taker'.
  const IndirectCallInst *IC = nullptr;
  for (const auto &F : R.M->functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (const auto *C = dyn_cast<IndirectCallInst>(I.get()))
          IC = C;
  ASSERT_NE(IC, nullptr);
  PointsToResult::CallTargets T = R.PT.callTargets(IC);
  EXPECT_TRUE(T.Complete);
  ASSERT_EQ(T.Targets.size(), 1u);
  EXPECT_EQ(T.Targets[0]->getName(), "taker");
}

TEST(PointsToTest, DistinctAllocationsDoNotAlias) {
  Refined R = refine(R"(
    struct a { long x; long y; long z; };
    struct b { long u; long v; long w; };
    struct a *pa;
    struct b *pb;
    int main() {
      pa = (struct a*) malloc(4 * sizeof(struct a));
      pb = (struct b*) malloc(4 * sizeof(struct b));
      pa->x = 1;
      pb->u = 2;
      return 0;
    }
  )");
  std::vector<PointsToResult::ObjectID> A =
      R.PT.objectsViewedAs(record(R, "a"));
  std::vector<PointsToResult::ObjectID> B =
      R.PT.objectsViewedAs(record(R, "b"));
  ASSERT_EQ(A.size(), 1u);
  ASSERT_EQ(B.size(), 1u);
  EXPECT_NE(A[0], B[0]);
  EXPECT_GE(R.PT.stats().NumObjects, 2u);
}

//===----------------------------------------------------------------------===//
// The alias index against a brute-force scan
//===----------------------------------------------------------------------===//

/// Compiles every Table 3 workload and every committed corpus program and
/// hands each module to \p Visit under a stable name.
static void
forEachProgram(const std::function<void(const std::string &, Module &)> &Visit) {
  for (const Workload &W : allWorkloads()) {
    IRContext Ctx;
    std::vector<std::string> Diags;
    auto M = compileProgram(Ctx, W.Name, W.Sources, Diags);
    ASSERT_TRUE(M) << W.Name;
    Visit(W.Name, *M);
  }
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(SLO_CORPUS_DIR))
    if (Entry.path().extension() == ".minic")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const auto &Path : Files) {
    std::ifstream In(Path);
    std::stringstream Buf;
    Buf << In.rdbuf();
    IRContext Ctx;
    std::vector<std::string> Diags;
    auto M = compileMiniC(Ctx, Path.filename().string(), Buf.str(), Diags);
    ASSERT_TRUE(M) << Path;
    Visit(Path.filename().string(), *M);
  }
}

/// What aliasesOf answered before the index: every tracked value that
/// may alias \p V, in tracked order.
static std::vector<const Value *> bruteForceAliases(const PointsToResult &PT,
                                                    const Value *V) {
  std::vector<const Value *> Out;
  for (const Value *W : PT.trackedValues())
    if (W == V || PT.mayAlias(V, W))
      Out.push_back(W);
  return Out;
}

TEST(PointsToIndexTest, MatchesBruteForceOnWorkloadsAndCorpus) {
  forEachProgram([](const std::string &Name, Module &M) {
    LegalityResult Legal = analyzeLegality(M);
    PointsToResult PT = analyzePointsTo(M);
    const std::vector<const Value *> &Tracked = PT.trackedValues();
    ASSERT_FALSE(Tracked.empty()) << Name;

    // Every site refinement asks about, a stride over all tracked values,
    // a constant the program uses, and a value the analysis never saw.
    std::vector<const Value *> Queries;
    for (RecordType *R : Legal.types())
      for (const ViolationSite &S : Legal.get(R).Sites)
        if (S.Inst && (S.Kind == Violation::CSTF || S.Kind == Violation::ATKN))
          Queries.push_back(S.Inst);
    size_t Stride = std::max<size_t>(1, Tracked.size() / 64);
    for (size_t I = 0; I < Tracked.size(); I += Stride)
      Queries.push_back(Tracked[I]);
    for (const auto &F : M.functions())
      for (const auto &BB : F->blocks())
        for (const auto &I : BB->instructions())
          for (const Value *Op : I->operands())
            if (isa<ConstantNull>(Op) && !isa<ConstantNull>(Queries.back()))
              Queries.push_back(Op);
    Queries.push_back(M.getContext().getInt64(0x5107ab1e));

    for (const Value *V : Queries)
      ASSERT_EQ(PT.aliasesOf(V), bruteForceAliases(PT, V))
          << Name << ": aliases of '" << V->getName() << "'";

    for (RecordType *R : M.getTypes().records()) {
      std::vector<PointsToResult::ObjectID> Expected;
      for (PointsToResult::ObjectID O = 0; O < PT.numObjects(); ++O)
        if (PT.object(O).Views.count(R))
          Expected.push_back(O);
      EXPECT_EQ(PT.objectsViewedAs(R), Expected)
          << Name << ": objects viewed as '" << R->getRecordName() << "'";
    }
  });
}

/// One line per type (proven, transform-safe) and one per site proof.
static std::string renderRefinement(const Module &M) {
  LegalityResult Legal = analyzeLegality(M);
  PointsToResult PT = analyzePointsTo(M);
  RefinementResult Refined = refineLegality(M, Legal, PT);
  std::string Out;
  for (RecordType *R : Refined.types()) {
    const TypeRefinement *TR = Refined.get(R);
    Out += "type " + R->getRecordName() +
           " proven=" + std::to_string(TR->ProvenLegal) +
           " safe=" + std::to_string(TR->TransformSafe) + "\n";
    for (const SiteProof &P : TR->Proofs)
      Out += std::string("  ") + violationName(P.Site->Kind) +
             (P.Discharged ? " discharged: " : " blocked: ") + P.Fact + "\n";
  }
  return Out;
}

static uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

TEST(PointsToIndexTest, RefinementVerdictsAndFactsUnchanged) {
  // Digests of renderRefinement, recorded with the scan-based aliasesOf
  // and objectsViewedAs the indexes replaced. The first blocking alias
  // names a fact, so a reordered alias list moves a digest.
  const std::map<std::string, uint64_t> Recorded = {
      {"181.mcf", 0x2f9636afc28c5c77ull},
      {"179.art", 0x73e53e7625327e55ull},
      {"milc", 0x3664c38586b17ec9ull},
      {"cactusADM", 0xba8cb14980413a57ull},
      {"gobmk", 0xc69f780af635c80full},
      {"povray", 0x4801332f5ac1f4d7ull},
      {"calculix", 0xfe41c43a6d39ae13ull},
      {"h264avc", 0x4be89c7961a7784cull},
      {"moldyn", 0xfb18a6daafe4393full},
      {"lucille", 0x70d611f3674244eaull},
      {"sphinx", 0xf816073c0e9c84daull},
      {"ssearch", 0xa6e46ec4ed36a6daull},
      {"cast_pun.minic", 0xe330d2cf6a2d499full},
      {"fnptr_fields.minic", 0xe1185b92a918ed9bull},
      {"hotcold_split.minic", 0xf8f18811005d8c76ull},
      {"memcpy_stream.minic", 0xbbc699460c71078full},
      {"nested_chase.minic", 0x0088d62665d91ebdull},
      {"realloc_buckets.minic", 0x2e84c52a9960b904ull},
  };
  std::set<std::string> Seen;
  forEachProgram([&](const std::string &Name, Module &M) {
    Seen.insert(Name);
    auto It = Recorded.find(Name);
    ASSERT_NE(It, Recorded.end()) << "no recorded digest for " << Name;
    std::string Text = renderRefinement(M);
    EXPECT_EQ(fnv1a(Text), It->second) << Name << ":\n" << Text;
  });
  EXPECT_EQ(Seen.size(), Recorded.size());
}

} // namespace
