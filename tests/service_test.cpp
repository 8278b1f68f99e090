//===- tests/service_test.cpp - Advisory daemon service tests -------------===//
//
// The SLO-as-a-service contract (DESIGN.md §13), exercised over the
// socketpair transport so every test is deterministic and in-process:
//
//  - serve-equals-oneshot: N concurrent clients race their uploads and
//    every GET_ADVICE answer is byte-identical to a monolithic
//    runIncrementalAdvice over the union of the ingested TUs;
//  - profile merging through the daemon matches a local
//    FeedbackFile::merge of the same payloads, byte-for-byte through
//    serializeFeedback;
//  - corrupt summaries and profiles are rejected atomically — the
//    state fingerprint does not move;
//  - backpressure: with the ingest queue full, the next ingest is
//    answered RetryAfter and NOT applied; honoring the backoff
//    succeeds (TestIngestHook makes the scenario deterministic);
//  - per-request timeout: a peer stalling mid-frame gets Error(Timeout)
//    and its connection closed; the daemon moves on;
//  - graceful drain: a Shutdown request lets the in-flight ingest
//    finish and flush its Ok before the daemon stops;
//  - the TCP path: connection cap answered with Error(Busy).
//
//===----------------------------------------------------------------------===//

#include "service/AdvisoryDaemon.h"
#include "service/ServiceClient.h"

#include "frontend/Frontend.h"
#include "observability/CounterRegistry.h"
#include "observability/Histogram.h"
#include "pipeline/Incremental.h"
#include "profile/FeedbackIO.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

using namespace slo;
using namespace slo::service;

namespace {

// The three-TU program of incremental_test: `a` defines struct S, `b`
// uses it through externs, `c` is self-contained.
const char *TuA = R"(extern void print_i64(long v);
struct S { long x; long y; };
struct S* s_make() {
  struct S *p = (struct S*) malloc(4 * sizeof(struct S));
  for (long i = 0; i < 4; i++) { p[i].x = i; p[i].y = 2 * i; }
  return p;
}
long s_sum(struct S *p) {
  long t = 0;
  for (long i = 0; i < 4; i++) { t = t + p[i].x; }
  return t;
}
)";

const char *TuB = R"(extern void print_i64(long v);
extern struct S* s_make();
extern long s_sum(struct S *p);
extern long t_work();
int main() {
  struct S *p = s_make();
  print_i64(s_sum(p) + t_work());
  free(p);
  return 0;
}
)";

const char *TuC = R"(extern void print_i64(long v);
struct T { long a; long b; };
long t_work() {
  struct T *q = (struct T*) malloc(8 * sizeof(struct T));
  for (long i = 0; i < 8; i++) { q[i].a = i; q[i].b = i + 1; }
  long s = 0;
  for (long i = 0; i < 8; i++) { s = s + q[i].a; }
  free(q);
  return s;
}
)";

std::vector<TuSource> corpus() {
  return {{"a.minic", TuA}, {"b.minic", TuB}, {"c.minic", TuC}};
}

SummaryOptions testSummaryOptions() {
  SummaryOptions O;
  O.Lint = false; // Matches the slo_served default.
  return O;
}

/// The monolithic oracle: one-shot incremental advice, no cache, same
/// SummaryOptions as the daemon, TUs sorted by name (the daemon's
/// canonical order).
IncrementalResult oneshot(std::vector<TuSource> TUs) {
  std::sort(TUs.begin(), TUs.end(),
            [](const TuSource &A, const TuSource &B) { return A.Name < B.Name; });
  IncrementalOptions O;
  O.Summary = testSummaryOptions();
  O.Threads = 1;
  IncrementalResult R = runIncrementalAdvice(TUs, O);
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "?" : R.Errors.front());
  return R;
}

class ServiceTest : public ::testing::Test {
protected:
  std::unique_ptr<AdvisoryDaemon> makeDaemon(
      const std::function<void(DaemonConfig &)> &Tweak = nullptr) {
    DaemonConfig Config;
    Config.Summary = testSummaryOptions();
    Config.Counters = &Counters;
    if (Tweak)
      Tweak(Config);
    return std::make_unique<AdvisoryDaemon>(std::move(Config));
  }

  /// A socketpair connection served by \p D; returns the client side.
  std::unique_ptr<ServiceClient> connect(AdvisoryDaemon &D,
                                         int TimeoutMillis = 10000) {
    int Fds[2];
    if (!makeSocketPair(Fds))
      return nullptr;
    if (!D.adoptConnection(Fds[0])) {
      ::close(Fds[1]);
      return nullptr;
    }
    return std::make_unique<ServiceClient>(Fds[1], TimeoutMillis);
  }

  CounterRegistry Counters;
};

/// A serialized feedback payload for module (Name, Source): per-field
/// cache events plus an entry count, scaled by \p Scale so distinct
/// payloads merge into distinct sums.
std::string makeProfilePayload(const std::string &Name,
                               const std::string &Source,
                               const std::string &Record,
                               const std::string &EntryFn, uint64_t Scale,
                               FeedbackFile *AccumOut = nullptr,
                               const Module *AccumModule = nullptr) {
  IRContext Ctx;
  std::vector<std::string> Diags;
  std::unique_ptr<Module> M = compileMiniC(Ctx, Name, Source, Diags);
  EXPECT_TRUE(M) << (Diags.empty() ? "?" : Diags.front());
  FeedbackFile FB;
  RecordType *Rec = Ctx.getTypes().lookupRecord(Record);
  EXPECT_NE(Rec, nullptr);
  FieldCacheStats &F0 = FB.fieldStats(Rec, 0);
  F0.Loads = 10 * Scale;
  F0.Stores = 2 * Scale;
  F0.Misses = Scale;
  F0.TotalLatency = 40.0 * static_cast<double>(Scale);
  FieldCacheStats &F1 = FB.fieldStats(Rec, 1);
  F1.Loads = 3 * Scale;
  FB.countEntry(M->lookupFunction(EntryFn), Scale);
  std::string Text = serializeFeedback(*M, FB);
  if (AccumOut && AccumModule) {
    // Re-key through the symbolic round trip against the accumulation
    // module, exactly like the daemon does.
    FeedbackFile Delta;
    FeedbackMatchResult MR =
        deserializeFeedback(*AccumModule, Text, Delta, nullptr);
    EXPECT_TRUE(MR.Ok) << MR.Error;
    AccumOut->merge(Delta);
  }
  return Text;
}

//===----------------------------------------------------------------------===//
// Basics
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, PingAnswersProtocolVersion) {
  auto D = makeDaemon();
  auto C = connect(*D);
  ASSERT_TRUE(C);
  ServiceReply R = C->ping();
  ASSERT_TRUE(R.Transport);
  EXPECT_EQ(R.Op, Opcode::Pong);
  EXPECT_EQ(R.Version, ProtocolVersion);
}

TEST_F(ServiceTest, ServeEqualsOneshotSingleClient) {
  auto D = makeDaemon();
  auto C = connect(*D);
  ASSERT_TRUE(C);
  for (const TuSource &Tu : corpus())
    ASSERT_TRUE(C->putSource(Tu.Name, Tu.Source).ok());
  IncrementalResult Expect = oneshot(corpus());

  ServiceReply Text = C->getAdvice(false);
  ASSERT_TRUE(Text.Transport);
  ASSERT_EQ(Text.Op, Opcode::Advice);
  EXPECT_EQ(Text.Text, Expect.AdviceText);

  ServiceReply Json = C->getAdvice(true);
  ASSERT_TRUE(Json.Transport);
  ASSERT_EQ(Json.Op, Opcode::Advice);
  EXPECT_EQ(Json.Text, Expect.AdviceJson);
}

TEST_F(ServiceTest, ServeEqualsOneshotOracleIsNonVacuous) {
  // The byte-compare must be able to fail: a daemon holding a strict
  // subset of the corpus cannot render the full-union oracle's bytes.
  // If this ever passes with EXPECT_EQ semantics, the oracle above is
  // comparing trivially equal things and proves nothing.
  auto D = makeDaemon();
  auto C = connect(*D);
  ASSERT_TRUE(C);
  const std::vector<TuSource> TUs = corpus();
  for (size_t I = 0; I + 1 < TUs.size(); ++I) // All but the last TU.
    ASSERT_TRUE(C->putSource(TUs[I].Name, TUs[I].Source).ok());
  IncrementalResult Full = oneshot(TUs);
  ServiceReply Text = C->getAdvice(false);
  ASSERT_TRUE(Text.Transport);
  ASSERT_EQ(Text.Op, Opcode::Advice);
  EXPECT_NE(Text.Text, Full.AdviceText);
}

//===----------------------------------------------------------------------===//
// The tentpole oracle: N concurrent clients, byte-identical advice
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, ServeEqualsOneshotUnderConcurrentClients) {
  auto D = makeDaemon();
  const std::vector<TuSource> TUs = corpus();
  constexpr unsigned NumClients = 6;
  constexpr unsigned Rounds = 5;

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T < NumClients; ++T) {
    Clients.emplace_back([&, T] {
      auto C = connect(*D);
      if (!C) {
        ++Failures;
        return;
      }
      // Every client repeatedly re-uploads every TU, racing the others;
      // upserts of identical content must be idempotent.
      for (unsigned R = 0; R < Rounds; ++R) {
        const TuSource &Tu = TUs[(T + R) % TUs.size()];
        ServiceReply PR =
            C->putWithRetry(Opcode::PutSource,
                            encodePutSource(Tu.Name, Tu.Source));
        if (!PR.ok())
          ++Failures;
      }
      for (const TuSource &Tu : TUs) {
        ServiceReply PR = C->putWithRetry(
            Opcode::PutSource, encodePutSource(Tu.Name, Tu.Source));
        if (!PR.ok())
          ++Failures;
      }
    });
  }
  for (auto &T : Clients)
    T.join();
  ASSERT_EQ(Failures.load(), 0u);

  IncrementalResult Expect = oneshot(TUs);
  // Several readers, all byte-identical to the monolithic run.
  for (unsigned I = 0; I < 3; ++I) {
    auto C = connect(*D);
    ASSERT_TRUE(C);
    ServiceReply Text = C->getAdvice(false);
    ASSERT_TRUE(Text.Transport);
    ASSERT_EQ(Text.Op, Opcode::Advice);
    EXPECT_EQ(Text.Text, Expect.AdviceText);
    ServiceReply Json = C->getAdvice(true);
    ASSERT_TRUE(Json.Transport);
    EXPECT_EQ(Json.Text, Expect.AdviceJson);
  }
}

TEST_F(ServiceTest, BatchIngestMatchesSequential) {
  auto D = makeDaemon();
  auto C = connect(*D);
  ASSERT_TRUE(C);
  std::vector<std::pair<Opcode, std::string>> Items;
  for (const TuSource &Tu : corpus())
    Items.push_back({Opcode::PutSource, encodePutSource(Tu.Name, Tu.Source)});
  ServiceReply R = C->batch(Items);
  ASSERT_TRUE(R.Transport);
  ASSERT_EQ(R.Op, Opcode::BatchReply);
  ASSERT_EQ(R.Inner.size(), corpus().size());
  for (const ServiceReply &I : R.Inner)
    EXPECT_TRUE(I.ok());

  IncrementalResult Expect = oneshot(corpus());
  ServiceReply Text = C->getAdvice(false);
  ASSERT_TRUE(Text.Transport);
  EXPECT_EQ(Text.Text, Expect.AdviceText);
}

//===----------------------------------------------------------------------===//
// Profile merging under the daemon
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, ProfileMergeMatchesMonolithicMerge) {
  auto D = makeDaemon();
  auto C = connect(*D);
  ASSERT_TRUE(C);
  ASSERT_TRUE(C->putSource("a.minic", TuA).ok());

  // The local accumulation the daemon must reproduce: both payloads
  // re-keyed against one module and merged (the PR 5 path).
  IRContext Ctx;
  std::vector<std::string> Diags;
  std::unique_ptr<Module> M = compileMiniC(Ctx, "a.minic", TuA, Diags);
  ASSERT_TRUE(M);
  FeedbackFile Expect;

  std::string P1 = makeProfilePayload("a.minic", TuA, "S", "s_make", 1,
                                      &Expect, M.get());
  std::string P2 = makeProfilePayload("a.minic", TuA, "S", "s_make", 7,
                                      &Expect, M.get());

  // Two clients race their payloads (merge is commutative, so the
  // result is order-independent).
  auto C2 = connect(*D);
  ASSERT_TRUE(C2);
  std::thread T1([&] { EXPECT_TRUE(C->putProfile("a.minic", P1).ok()); });
  std::thread T2([&] { EXPECT_TRUE(C2->putProfile("a.minic", P2).ok()); });
  T1.join();
  T2.join();

  ServiceReply R = C->getProfile("a.minic");
  ASSERT_TRUE(R.Transport);
  ASSERT_EQ(R.Op, Opcode::Profile);
  EXPECT_EQ(R.Text, serializeFeedback(*M, Expect));
}

//===----------------------------------------------------------------------===//
// Atomic rejection
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, CorruptPayloadsRejectedWithoutStateChange) {
  auto D = makeDaemon();
  auto C = connect(*D);
  ASSERT_TRUE(C);
  ASSERT_TRUE(C->putSource("a.minic", TuA).ok());
  uint64_t Before = D->state().fingerprint();

  ServiceReply BadSummary = C->putSummary("slo-summary-v1 CORRUPT\n");
  ASSERT_TRUE(BadSummary.Transport);
  EXPECT_EQ(BadSummary.Op, Opcode::Error);
  EXPECT_EQ(BadSummary.Code, static_cast<uint16_t>(ErrCode::CorruptPayload));

  ServiceReply BadProfile =
      C->putProfile("a.minic", "slo-feedback-v2\ngarbage garbage\n");
  ASSERT_TRUE(BadProfile.Transport);
  EXPECT_EQ(BadProfile.Op, Opcode::Error);

  ServiceReply NoModule = C->putProfile("zzz.minic", "whatever");
  ASSERT_TRUE(NoModule.Transport);
  EXPECT_EQ(NoModule.Op, Opcode::Error);
  EXPECT_EQ(NoModule.Code, static_cast<uint16_t>(ErrCode::UnknownModule));

  ServiceReply BadSource = C->putSource("bad.minic", "struct {");
  ASSERT_TRUE(BadSource.Transport);
  EXPECT_EQ(BadSource.Op, Opcode::Error);
  EXPECT_EQ(BadSource.Code, static_cast<uint16_t>(ErrCode::CompileFailed));

  EXPECT_EQ(D->state().fingerprint(), Before);
  EXPECT_EQ(D->state().moduleCount(), 1u);
}

TEST_F(ServiceTest, HostileNestingIsCompileFailedAndDaemonLives) {
  // 20k nested parentheses once overflowed the frontend's stack and took
  // the daemon down; now the parser's depth limit answers CompileFailed.
  auto D = makeDaemon();
  auto C = connect(*D);
  ASSERT_TRUE(C);
  std::string Deep = "int main() { return " + std::string(20000, '(') + "1" +
                     std::string(20000, ')') + "; }\n";
  ServiceReply R = C->putSource("deep.minic", Deep);
  ASSERT_TRUE(R.Transport);
  EXPECT_EQ(R.Op, Opcode::Error);
  EXPECT_EQ(R.Code, static_cast<uint16_t>(ErrCode::CompileFailed));
  EXPECT_NE(R.Message.find("depth limit"), std::string::npos) << R.Message;
  EXPECT_EQ(D->state().moduleCount(), 0u);
  EXPECT_EQ(C->ping().Op, Opcode::Pong);
}

TEST_F(ServiceTest, SummaryUploadFeedsAdvice) {
  // Serialize a.minic's summary out of a one-shot run, upload it
  // summary-only, and the daemon's advice must match the oracle's.
  IncrementalResult R = oneshot(corpus());
  ASSERT_EQ(R.Summaries.size(), 3u);

  auto D = makeDaemon();
  auto C = connect(*D);
  ASSERT_TRUE(C);
  for (const ModuleSummary &S : R.Summaries)
    ASSERT_TRUE(C->putSummary(serializeModuleSummary(S)).ok());
  EXPECT_EQ(D->state().moduleCount(), 3u);

  ServiceReply Text = C->getAdvice(false);
  ASSERT_TRUE(Text.Transport);
  EXPECT_EQ(Text.Text, R.AdviceText);

  // Summary-only modules cannot accept profiles: no IR to match.
  ServiceReply P = C->putProfile("a.minic", "slo-feedback-v2\n");
  ASSERT_TRUE(P.Transport);
  EXPECT_EQ(P.Op, Opcode::Error);
}

//===----------------------------------------------------------------------===//
// Backpressure
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, IngestQueueFullAnswersRetryAfterAndDropsNothing) {
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Hold = true;
  std::atomic<unsigned> InHook{0};
  HistogramRegistry Hist;

  auto D = makeDaemon([&](DaemonConfig &Config) {
    Config.Hist = &Hist;
    Config.IngestQueueDepth = 1;
    Config.RetryAfterMillis = 5;
    Config.TestIngestHook = [&] {
      ++InHook;
      std::unique_lock<std::mutex> Lock(Mutex);
      Cv.wait(Lock, [&] { return !Hold; });
    };
  });

  auto C1 = connect(*D);
  auto C2 = connect(*D);
  ASSERT_TRUE(C1 && C2);

  // Client 1 occupies the only ingest slot (parked in the hook).
  std::thread T1([&] { EXPECT_TRUE(C1->putSource("a.minic", TuA).ok()); });
  while (InHook.load() == 0)
    std::this_thread::yield();

  // Client 2 must be shed with the configured backoff, NOT queued.
  ServiceReply R = C2->putSource("c.minic", TuC);
  ASSERT_TRUE(R.Transport);
  EXPECT_EQ(R.Op, Opcode::RetryAfter);
  EXPECT_EQ(R.RetryMillis, 5u);
  EXPECT_EQ(D->state().moduleCount(), 0u); // Not applied.
  EXPECT_GE(Counters.value("service.retry_after"), 1u);

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Hold = false;
  }
  Cv.notify_all();
  T1.join();

  // Honoring the backoff succeeds once the slot frees up.
  unsigned Retries = 0;
  ServiceReply R2 = C2->putWithRetry(
      Opcode::PutSource, encodePutSource("c.minic", TuC), 50, &Retries);
  EXPECT_TRUE(R2.ok());
  EXPECT_EQ(D->state().moduleCount(), 2u);

  // The latency histogram counts every PutSource frame, the rejected
  // one included: client 1's, client 2's shed one, and client 2's
  // resends. The daemon records before it replies, so the count is
  // settled by the time the last reply arrives.
  uint64_t Frames = 3 + Retries;
  EXPECT_EQ(Hist.get("service.latency.PutSource").snapshot().Count, Frames);
  ServiceReply M = C2->getMetrics(0);
  ASSERT_TRUE(M.Transport);
  ASSERT_EQ(M.Op, Opcode::Metrics);
  EXPECT_NE(M.Text.find("\"service.latency.PutSource\": {\"count\": " +
                        std::to_string(Frames) + ","),
            std::string::npos)
      << M.Text;
}

//===----------------------------------------------------------------------===//
// Timeouts
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, MidFrameStallGetsTimeoutAndClose) {
  auto D = makeDaemon([](DaemonConfig &Config) {
    Config.FrameTimeoutMillis = 100;
  });
  int Fds[2];
  ASSERT_TRUE(makeSocketPair(Fds));
  ASSERT_TRUE(D->adoptConnection(Fds[0]));

  // Declare a 64-byte frame, deliver 3 bytes, stall.
  std::string Partial;
  appendU32(Partial, 64);
  Partial += "\x02xy";
  ASSERT_TRUE(writeAll(Fds[1], Partial, 1000));

  Frame F;
  ReadStatus S = readFrame(Fds[1], F, DefaultMaxFrameBytes, 5000, 5000);
  ASSERT_EQ(S, ReadStatus::Ok);
  EXPECT_EQ(F.Op, Opcode::Error);
  BodyReader B(F.Body);
  uint16_t Code = 0;
  ASSERT_TRUE(B.readU16(Code));
  EXPECT_EQ(Code, static_cast<uint16_t>(ErrCode::Timeout));
  EXPECT_GE(Counters.value("service.timeouts"), 1u);

  // The connection is closed after the error.
  EXPECT_EQ(readFrame(Fds[1], F, DefaultMaxFrameBytes, 5000, 5000),
            ReadStatus::Eof);
  ::close(Fds[1]);

  // The daemon moves on: a fresh connection still serves.
  auto C = connect(*D);
  ASSERT_TRUE(C);
  EXPECT_EQ(C->ping().Op, Opcode::Pong);
}

//===----------------------------------------------------------------------===//
// Graceful drain
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, ShutdownDrainsInFlightIngest) {
  std::atomic<unsigned> InHook{0};
  auto D = makeDaemon([&](DaemonConfig &Config) {
    Config.TestIngestHook = [&] {
      if (InHook.fetch_add(1) == 0) // Stall only the first ingest.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    };
  });

  auto Ingest = connect(*D);
  auto Admin = connect(*D);
  ASSERT_TRUE(Ingest && Admin);

  // The in-flight ingest must complete and flush Ok even though the
  // drain starts while it runs.
  std::thread T([&] { EXPECT_TRUE(Ingest->putSource("a.minic", TuA).ok()); });
  while (InHook.load() == 0)
    std::this_thread::yield();

  ServiceReply R = Admin->shutdown();
  ASSERT_TRUE(R.Transport);
  EXPECT_EQ(R.Op, Opcode::Ok);
  T.join();

  while (!D->stopping())
    std::this_thread::yield();
  D->stop(); // Idempotent; joins the drain.
  EXPECT_EQ(D->state().moduleCount(), 1u);
  EXPECT_EQ(D->liveConnections(), 0u);

  // A stopped daemon adopts nothing.
  int Fds[2];
  ASSERT_TRUE(makeSocketPair(Fds));
  EXPECT_FALSE(D->adoptConnection(Fds[0]));
  ::close(Fds[1]);
}

//===----------------------------------------------------------------------===//
// Request-scoped telemetry: trace propagation, metrics, flight recorder
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, TracedCallEchoesIdsAndReturnsStageSpans) {
  auto D = makeDaemon();
  auto C = connect(*D);
  ASSERT_TRUE(C);
  for (const TuSource &Tu : corpus())
    ASSERT_TRUE(C->putSource(Tu.Name, Tu.Source).ok());

  std::string Body;
  Body.push_back(0); // GetAdvice, text form.
  ServiceReply R = C->tracedCall(Opcode::GetAdvice, Body, 0xDEADBEEFull,
                                 42);
  ASSERT_TRUE(R.Transport);
  EXPECT_EQ(R.Op, Opcode::Advice);
  ASSERT_TRUE(R.WasTraced);
  EXPECT_EQ(R.TraceId, 0xDEADBEEFull);
  EXPECT_EQ(R.RequestId, 42u);

  // The span tree covers the request's stages: the outer frame read plus
  // the advice path (state lock, merge, render). Starts are relative to
  // receipt and non-decreasing.
  ASSERT_FALSE(R.Spans.empty());
  std::vector<std::string> Names;
  for (const DaemonSpan &S : R.Spans)
    Names.push_back(S.Name);
  EXPECT_NE(std::find(Names.begin(), Names.end(), "read"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "lock-wait"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "merge"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "render"), Names.end());
  for (size_t I = 1; I < R.Spans.size(); ++I)
    EXPECT_GE(R.Spans[I].StartMicros, R.Spans[I - 1].StartMicros);
}

TEST_F(ServiceTest, TracedAdviceBytesMatchUntracedAndOneshot) {
  // The propagated trace context must never influence a single advice
  // byte: traced and untraced GetAdvice, under different trace ids, all
  // render the monolithic oracle's exact bytes.
  auto D = makeDaemon();
  auto C = connect(*D);
  ASSERT_TRUE(C);
  for (const TuSource &Tu : corpus())
    ASSERT_TRUE(C->putSource(Tu.Name, Tu.Source).ok());
  IncrementalResult Expect = oneshot(corpus());

  std::string Body;
  Body.push_back(0);
  ServiceReply Plain = C->getAdvice(false);
  ASSERT_TRUE(Plain.Transport);
  EXPECT_FALSE(Plain.WasTraced);
  EXPECT_EQ(Plain.Text, Expect.AdviceText);
  const uint64_t Ids[] = {1, 0, UINT64_MAX};
  for (uint64_t Id : Ids) {
    ServiceReply Traced = C->tracedCall(Opcode::GetAdvice, Body, Id, Id);
    ASSERT_TRUE(Traced.Transport);
    ASSERT_EQ(Traced.Op, Opcode::Advice);
    EXPECT_TRUE(Traced.WasTraced);
    EXPECT_EQ(Traced.Text, Expect.AdviceText);
  }
}

TEST_F(ServiceTest, TracedRejectsNestedBatchAndShutdown) {
  // Traced(Traced), Traced(Batch) and Traced(Shutdown) are malformed:
  // an Error reply, no drain started, no state moved.
  auto D = makeDaemon();
  {
    auto C = connect(*D);
    ASSERT_TRUE(C);
    ASSERT_TRUE(C->putSource("a.minic", TuA).ok());
  }
  uint64_t Before = D->state().fingerprint();

  TraceContext Ctx;
  Ctx.TraceId = 7;
  Ctx.RequestId = 7;
  const std::pair<Opcode, std::string> Banned[] = {
      {Opcode::Traced, encodeTraced(Ctx, Opcode::Ping, "")},
      {Opcode::Batch, std::string(4, '\0')},
      {Opcode::Shutdown, ""},
  };
  for (const auto &[Op, Body] : Banned) {
    auto C = connect(*D); // Each rejection closes its connection.
    ASSERT_TRUE(C);
    ServiceReply R = C->tracedCall(Op, Body, 7, 7);
    ASSERT_TRUE(R.Transport);
    EXPECT_EQ(R.Op, Opcode::Error);
    EXPECT_EQ(R.Code, static_cast<uint16_t>(ErrCode::Malformed));
  }
  EXPECT_FALSE(D->stopping()); // Traced(Shutdown) must not drain.
  EXPECT_EQ(D->state().fingerprint(), Before);

  auto C = connect(*D);
  ASSERT_TRUE(C);
  EXPECT_EQ(C->ping().Op, Opcode::Pong);
}

TEST_F(ServiceTest, GetMetricsRendersRegistriesAndRejectsUnknownFormat) {
  HistogramRegistry Hist;
  auto D = makeDaemon([&](DaemonConfig &Config) { Config.Hist = &Hist; });
  auto C = connect(*D);
  ASSERT_TRUE(C);
  ASSERT_TRUE(C->putSource("a.minic", TuA).ok());

  ServiceReply Json = C->getMetrics(0);
  ASSERT_TRUE(Json.Transport);
  ASSERT_EQ(Json.Op, Opcode::Metrics);
  EXPECT_NE(Json.Text.find("\"counters\": "), std::string::npos);
  EXPECT_NE(Json.Text.find("\"service.frames\": "), std::string::npos);
  EXPECT_NE(Json.Text.find("\"histograms\": "), std::string::npos);
  EXPECT_NE(Json.Text.find("\"service.latency.PutSource\": {\"count\": 1"),
            std::string::npos);

  ServiceReply Prom = C->getMetrics(1);
  ASSERT_TRUE(Prom.Transport);
  ASSERT_EQ(Prom.Op, Opcode::Metrics);
  EXPECT_NE(Prom.Text.find("# TYPE slo_service_frames counter\n"),
            std::string::npos);
  EXPECT_NE(
      Prom.Text.find("# TYPE slo_service_latency_PutSource histogram\n"),
      std::string::npos);
  EXPECT_NE(Prom.Text.find("slo_service_latency_PutSource_count 1\n"),
            std::string::npos);

  ServiceReply Bad = C->getMetrics(2);
  ASSERT_TRUE(Bad.Transport);
  EXPECT_EQ(Bad.Op, Opcode::Error);
  EXPECT_EQ(Bad.Code, static_cast<uint16_t>(ErrCode::Malformed));
}

TEST_F(ServiceTest, FlightRecorderDumpsOnMidFrameTimeout) {
  // The always-on ring must surface the connection's last frames when
  // the peer stalls: one dump, reason "timeout", valid JSON shape.
  std::mutex DumpMutex;
  std::vector<std::string> Dumps;
  auto D = makeDaemon([&](DaemonConfig &Config) {
    Config.FrameTimeoutMillis = 100;
    Config.FlightDumpSink = [&](const std::string &Json) {
      std::lock_guard<std::mutex> Lock(DumpMutex);
      Dumps.push_back(Json);
    };
  });

  // A healthy request first, so the ring has traffic to replay.
  int Fds[2];
  ASSERT_TRUE(makeSocketPair(Fds));
  ASSERT_TRUE(D->adoptConnection(Fds[0]));
  {
    ServiceClient C(Fds[1]); // Owns and closes Fds[1] when done.
    ASSERT_EQ(C.ping().Op, Opcode::Pong);

    // Declare a 64-byte frame, deliver 3 bytes, stall past the timeout.
    std::string Partial;
    appendU32(Partial, 64);
    Partial += "\x02xy";
    ASSERT_TRUE(writeAll(C.fd(), Partial, 1000));
    Frame F;
    ASSERT_EQ(readFrame(C.fd(), F, DefaultMaxFrameBytes, 5000, 5000),
              ReadStatus::Ok);
    EXPECT_EQ(F.Op, Opcode::Error);
  }
  while (D->liveConnections() != 0)
    std::this_thread::yield();

  std::lock_guard<std::mutex> Lock(DumpMutex);
  ASSERT_EQ(Dumps.size(), 1u);
  const std::string &Dump = Dumps.front();
  EXPECT_NE(Dump.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(Dump.find("\"reason\": \"timeout\""), std::string::npos);
  EXPECT_NE(Dump.find("\"frame-in\""), std::string::npos); // The Ping.
  EXPECT_NE(Dump.find("\"reply-out\""), std::string::npos); // The Pong.
}

TEST_F(ServiceTest, FlightRecorderDepthZeroNeverDumps) {
  // Depth 0 disables the ring: the same stall produces no dump (and the
  // request path reads no clock — the PR 3 off-is-free contract).
  std::atomic<unsigned> DumpCount{0};
  auto D = makeDaemon([&](DaemonConfig &Config) {
    Config.FrameTimeoutMillis = 100;
    Config.FlightRecorderDepth = 0;
    Config.FlightDumpSink = [&](const std::string &) { ++DumpCount; };
  });
  int Fds[2];
  ASSERT_TRUE(makeSocketPair(Fds));
  ASSERT_TRUE(D->adoptConnection(Fds[0]));
  std::string Partial;
  appendU32(Partial, 64);
  Partial += "\x02xy";
  ASSERT_TRUE(writeAll(Fds[1], Partial, 1000));
  Frame F;
  ASSERT_EQ(readFrame(Fds[1], F, DefaultMaxFrameBytes, 5000, 5000),
            ReadStatus::Ok);
  EXPECT_EQ(F.Op, Opcode::Error);
  ::close(Fds[1]);
  while (D->liveConnections() != 0)
    std::this_thread::yield();
  EXPECT_EQ(DumpCount.load(), 0u);
}

//===----------------------------------------------------------------------===//
// TCP transport
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, TcpConnectionCapAnswersBusy) {
  auto D = makeDaemon([](DaemonConfig &Config) {
    Config.MaxConnections = 1;
  });
  ASSERT_TRUE(D->listenTcp(0));
  ASSERT_NE(D->port(), 0);

  int Fd1 = connectTcpLocalhost(D->port());
  ASSERT_GE(Fd1, 0);
  ServiceClient C1(Fd1);
  ASSERT_EQ(C1.ping().Op, Opcode::Pong); // Guarantees Live >= 1.

  int Fd2 = connectTcpLocalhost(D->port());
  ASSERT_GE(Fd2, 0);
  Frame F;
  ASSERT_EQ(readFrame(Fd2, F, DefaultMaxFrameBytes, 5000, 5000),
            ReadStatus::Ok);
  EXPECT_EQ(F.Op, Opcode::Error);
  BodyReader B(F.Body);
  uint16_t Code = 0;
  ASSERT_TRUE(B.readU16(Code));
  EXPECT_EQ(Code, static_cast<uint16_t>(ErrCode::Busy));
  ::close(Fd2);

  // The capped daemon still serves its live connection.
  EXPECT_EQ(C1.ping().Op, Opcode::Pong);
  C1.close();
  D->stop();
}

} // namespace
