//===- tests/sampledpmu_test.cpp - Sampled PMU emulation tests ------------===//
//
// Pins the two invariants the sampled collection layer is built around:
//
//  * Identity: at period 1 with no skid the Caliper stand-in reproduces
//    the exact per-field statistics bit for bit, on every workload. The
//    sampled path is the exact path plus sampling — never a different
//    accounting.
//  * Determinism: a sampled profile is a pure function of
//    (module, params, seed). Collecting under a thread pool produces
//    byte-identical serialized profiles to collecting serially.
//
// Plus unit coverage of the PMU mechanics themselves (jitter, skid,
// DLAT, scaling, telemetry) on synthetic event streams.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "observability/CounterRegistry.h"
#include "observability/SampledPmu.h"
#include "profile/FeedbackIO.h"
#include "runtime/Interpreter.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace slo;

namespace {

struct Built {
  std::unique_ptr<IRContext> Ctx;
  std::unique_ptr<Module> M;
};

static Built buildWorkload(const Workload &W) {
  Built B;
  B.Ctx = std::make_unique<IRContext>();
  std::vector<std::string> Diags;
  B.M = compileProgram(*B.Ctx, W.Name, W.Sources, Diags);
  EXPECT_TRUE(B.M) << W.Name << ": " << (Diags.empty() ? "?" : Diags[0]);
  return B;
}

/// Collects one profile for \p W's training input and returns it
/// serialized. With \p Pmu null the collection is exact.
static std::string collectProfile(const Built &B, const Workload &W,
                                  SampledPmu *Pmu) {
  FeedbackFile FB;
  RunOptions O;
  O.IntParams = W.TrainParams;
  O.Profile = &FB;
  O.Pmu = Pmu;
  RunResult R = runProgram(*B.M, std::move(O));
  EXPECT_FALSE(R.Trapped) << W.Name << ": " << R.TrapReason;
  return serializeFeedback(*B.M, FB);
}

//===----------------------------------------------------------------------===//
// Identity invariant
//===----------------------------------------------------------------------===//

class SampledPmuWorkloads : public ::testing::TestWithParam<size_t> {};

TEST_P(SampledPmuWorkloads, PeriodOneReproducesExactProfileBitForBit) {
  const Workload &W = allWorkloads()[GetParam()];
  Built B = buildWorkload(W);
  ASSERT_TRUE(B.M);

  std::string Exact = collectProfile(B, W, nullptr);

  SampledPmuConfig Cfg;
  Cfg.Period = 1;
  Cfg.Skid = 0;
  Cfg.Jitter = true; // Jitter degenerates to gap 1 at period 1.
  SampledPmu Pmu(Cfg);
  std::string Sampled = collectProfile(B, W, &Pmu);

  // Byte equality covers edge counts, field loads/stores/misses, and the
  // double latency totals (same accumulation order, scaled by exactly 1).
  EXPECT_EQ(Exact, Sampled) << W.Name;
  // Every event was sampled.
  EXPECT_EQ(Pmu.accessSamples(), Pmu.eventsSeen()) << W.Name;
  EXPECT_EQ(Pmu.missSamples(), Pmu.missEventsSeen()) << W.Name;
  EXPECT_EQ(Pmu.skidDisplaced(), 0u) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SampledPmuWorkloads,
                         ::testing::Range<size_t>(0, 12),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           std::string N = allWorkloads()[Info.param].Name;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

//===----------------------------------------------------------------------===//
// Determinism invariant
//===----------------------------------------------------------------------===//

TEST(SampledPmuDeterminism, ThreadPoolCollectionIsByteIdenticalToSerial) {
  // The three hand-written kernels plus one generated workload: enough
  // to catch any shared mutable state without running the whole table.
  const char *Names[] = {"181.mcf", "179.art", "moldyn", "povray"};
  std::vector<const Workload *> Ws;
  for (const char *N : Names) {
    const Workload *W = findWorkload(N);
    ASSERT_NE(W, nullptr) << N;
    Ws.push_back(W);
  }

  auto CollectSampled = [](const Workload &W) {
    Built B = buildWorkload(W);
    SampledPmuConfig Cfg;
    Cfg.Period = 61;
    Cfg.Skid = 2;
    Cfg.Seed = 0xFEEDBEEF;
    SampledPmu Pmu(Cfg);
    return collectProfile(B, W, &Pmu);
  };

  std::vector<std::string> Serial(Ws.size());
  for (size_t I = 0; I < Ws.size(); ++I)
    Serial[I] = CollectSampled(*Ws[I]);

  for (unsigned Round = 0; Round < 2; ++Round) {
    std::vector<std::string> Pooled(Ws.size());
    ThreadPool Pool(4);
    for (size_t I = 0; I < Ws.size(); ++I)
      Pool.enqueue(
          [&Pooled, &Ws, &CollectSampled, I] { Pooled[I] = CollectSampled(*Ws[I]); });
    Pool.wait();
    for (size_t I = 0; I < Ws.size(); ++I)
      EXPECT_EQ(Serial[I], Pooled[I])
          << Ws[I]->Name << " (round " << Round << ")";
  }
}

TEST(SampledPmuDeterminism, SeedChangesTheSampleStream) {
  const Workload *W = findWorkload("181.mcf");
  ASSERT_NE(W, nullptr);
  Built B = buildWorkload(*W);

  auto Collect = [&](uint64_t Seed) {
    SampledPmuConfig Cfg;
    Cfg.Period = 257;
    Cfg.Seed = Seed;
    SampledPmu Pmu(Cfg);
    return collectProfile(B, *W, &Pmu);
  };
  std::string A = Collect(1);
  std::string A2 = Collect(1);
  std::string C = Collect(2);
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, C) << "different seeds should jitter differently";
}

//===----------------------------------------------------------------------===//
// PMU mechanics on synthetic event streams
//===----------------------------------------------------------------------===//

TEST(SampledPmuUnit, RegisterSiteInternsAndPeriodZeroClamps) {
  SampledPmuConfig Cfg;
  Cfg.Period = 0;
  SampledPmu Pmu(Cfg);
  EXPECT_EQ(Pmu.config().Period, 1u);

  int KeyA = 0, KeyB = 0;
  SampledPmu::SiteId A0 = Pmu.registerSite(&KeyA, 0);
  SampledPmu::SiteId A1 = Pmu.registerSite(&KeyA, 1);
  SampledPmu::SiteId B0 = Pmu.registerSite(&KeyB, 0);
  EXPECT_NE(A0, SampledPmu::UntypedSite);
  EXPECT_NE(A0, A1);
  EXPECT_NE(A0, B0);
  EXPECT_EQ(Pmu.registerSite(&KeyA, 0), A0);
}

TEST(SampledPmuUnit, EstimatesScaleByPeriod) {
  SampledPmuConfig Cfg;
  Cfg.Period = 10;
  Cfg.Jitter = false; // Exactly every 10th event.
  SampledPmu Pmu(Cfg);
  int Key = 0;
  SampledPmu::SiteId S = Pmu.registerSite(&Key, 0);
  for (unsigned I = 0; I < 1000; ++I)
    Pmu.observeAccess(S, /*IsStore=*/false, /*FirstLevelMiss=*/true,
                      /*Latency=*/7);
  Pmu.finishRun();
  ASSERT_EQ(Pmu.estimates().size(), 1u);
  const SampledPmu::SiteEstimate E = Pmu.estimates()[0];
  EXPECT_EQ(E.Loads, 1000u);  // 100 samples * period 10.
  EXPECT_EQ(E.Misses, 1000u); // Every access missed.
  EXPECT_DOUBLE_EQ(E.TotalLatency, 7000.0);
  EXPECT_EQ(E.Stores, 0u);
  EXPECT_EQ(Pmu.accessSamples(), 100u);
}

TEST(SampledPmuUnit, JitteredSamplingTracksTrafficSplit) {
  // 90/10 split of misses across two sites; a jittered period-16
  // collection must preserve the ranking and land near the true counts.
  SampledPmuConfig Cfg;
  Cfg.Period = 16;
  SampledPmu Pmu(Cfg);
  int KeyA = 0, KeyB = 0;
  SampledPmu::SiteId A = Pmu.registerSite(&KeyA, 0);
  SampledPmu::SiteId B = Pmu.registerSite(&KeyB, 0);
  for (unsigned I = 0; I < 100000; ++I) {
    SampledPmu::SiteId S = (I % 10 == 9) ? B : A;
    Pmu.observeAccess(S, /*IsStore=*/false, /*FirstLevelMiss=*/true, 5);
  }
  Pmu.finishRun();
  uint64_t MissA = 0, MissB = 0;
  for (const auto &E : Pmu.estimates())
    (E.RecordKey == &KeyA ? MissA : MissB) = E.Misses;
  EXPECT_GT(MissA, MissB);
  EXPECT_NEAR(static_cast<double>(MissA), 90000.0, 9000.0);
  EXPECT_NEAR(static_cast<double>(MissB), 10000.0, 3000.0);
}

TEST(SampledPmuUnit, SkidDisplacesMissSamplesToLaterSites) {
  // Misses happen only at site A, but every following access is at
  // site B: with skid, some miss samples must land on B — the
  // Itanium-style misattribution the quality harness measures.
  SampledPmuConfig Cfg;
  Cfg.Period = 4;
  Cfg.Skid = 3;
  SampledPmu Pmu(Cfg);
  int KeyA = 0, KeyB = 0;
  SampledPmu::SiteId A = Pmu.registerSite(&KeyA, 0);
  SampledPmu::SiteId B = Pmu.registerSite(&KeyB, 0);
  for (unsigned I = 0; I < 10000; ++I) {
    Pmu.observeAccess(A, false, /*FirstLevelMiss=*/true, 5);
    for (unsigned J = 0; J < 4; ++J)
      Pmu.observeAccess(B, false, /*FirstLevelMiss=*/false, 1);
  }
  Pmu.finishRun();
  EXPECT_GT(Pmu.skidDisplaced(), 0u);
  uint64_t MissB = 0;
  for (const auto &E : Pmu.estimates())
    if (E.RecordKey == &KeyB)
      MissB = E.Misses;
  EXPECT_GT(MissB, 0u) << "displaced samples should credit site B";

  // With skid 0 the same stream attributes every miss sample to A.
  SampledPmuConfig Cfg0 = Cfg;
  Cfg0.Skid = 0;
  SampledPmu Pmu0(Cfg0);
  SampledPmu::SiteId A0 = Pmu0.registerSite(&KeyA, 0);
  SampledPmu::SiteId B0 = Pmu0.registerSite(&KeyB, 0);
  for (unsigned I = 0; I < 10000; ++I) {
    Pmu0.observeAccess(A0, false, true, 5);
    for (unsigned J = 0; J < 4; ++J)
      Pmu0.observeAccess(B0, false, false, 1);
  }
  Pmu0.finishRun();
  EXPECT_EQ(Pmu0.skidDisplaced(), 0u);
  for (const auto &E : Pmu0.estimates())
    if (E.RecordKey == &KeyB) {
      EXPECT_EQ(E.Misses, 0u);
    }
}

TEST(SampledPmuUnit, SkidOntoUntypedTrafficDropsTheSample) {
  // Misses at a typed site, followed only by untyped traffic: skidded
  // samples land outside any field and are dropped (and counted) —
  // profile mass a real PMU loses the same way.
  SampledPmuConfig Cfg;
  Cfg.Period = 2;
  Cfg.Skid = 2;
  SampledPmu Pmu(Cfg);
  int Key = 0;
  SampledPmu::SiteId S = Pmu.registerSite(&Key, 0);
  for (unsigned I = 0; I < 4000; ++I) {
    Pmu.observeAccess(S, false, /*FirstLevelMiss=*/true, 5);
    for (unsigned J = 0; J < 3; ++J)
      Pmu.observeAccess(SampledPmu::UntypedSite, true, false, 1);
  }
  Pmu.finishRun();
  EXPECT_GT(Pmu.samplesDroppedUntyped(), 0u);
}

TEST(SampledPmuUnit, DlatModeCapturesOnlyThresholdLatencies) {
  SampledPmuConfig Cfg;
  Cfg.Period = 1;
  Cfg.LatencyThreshold = 50;
  SampledPmu Pmu(Cfg);
  int Key = 0;
  SampledPmu::SiteId S = Pmu.registerSite(&Key, 0);
  // 100 short loads (latency 3) and 10 long ones (latency 200).
  for (unsigned I = 0; I < 100; ++I)
    Pmu.observeAccess(S, false, false, 3);
  for (unsigned I = 0; I < 10; ++I)
    Pmu.observeAccess(S, false, true, 200);
  Pmu.finishRun();
  ASSERT_EQ(Pmu.estimates().size(), 1u);
  const SampledPmu::SiteEstimate E = Pmu.estimates()[0];
  // Latency comes from the DLAT counter alone: the short loads' cycles
  // are not in the total.
  EXPECT_DOUBLE_EQ(E.TotalLatency, 2000.0);
  EXPECT_EQ(E.Loads, 110u);
  EXPECT_EQ(Pmu.latencySamples(), 10u);
}

TEST(SampledPmuUnit, EndOfRunDropsInFlightSampleAndPublishesTelemetry) {
  SampledPmuConfig Cfg;
  Cfg.Period = 1;
  Cfg.Skid = 8;
  SampledPmu Pmu(Cfg);
  int Key = 0;
  SampledPmu::SiteId S = Pmu.registerSite(&Key, 0);
  // One miss at the very end: its sample may still be in flight.
  for (unsigned I = 0; I < 10; ++I)
    Pmu.observeAccess(S, false, false, 1);
  Pmu.observeAccess(S, false, true, 90);
  Pmu.finishRun();
  Pmu.finishRun(); // Idempotent.
  EXPECT_LE(Pmu.samplesDroppedEndOfRun(), 1u);
  EXPECT_EQ(Pmu.missSamples(), 1u);

  CounterRegistry Counters;
  Pmu.publishCounters(Counters);
  auto Snap = Counters.snapshot();
  EXPECT_EQ(Snap.at("profile.samples_events"), 11u);
  EXPECT_EQ(Snap.at("profile.samples_miss_events"), 1u);
  EXPECT_EQ(Snap.at("profile.samples_period"), 1u);
}

} // namespace
