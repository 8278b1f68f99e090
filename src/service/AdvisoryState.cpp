//===- service/AdvisoryState.cpp - Sharded accumulated state --------------===//

#include "service/AdvisoryState.h"

#include "frontend/Frontend.h"
#include "ir/Module.h"
#include "observability/Tracer.h"
#include "profile/FeedbackIO.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <map>

using namespace slo;
using namespace slo::service;

//===----------------------------------------------------------------------===//
// Shard layout
//===----------------------------------------------------------------------===//

struct AdvisoryState::ModuleEntry {
  std::string Source;
  /// Own context per module: no type uniquing is shared across entries,
  /// so two shards never touch the same IR objects.
  std::unique_ptr<IRContext> Ctx;
  std::unique_ptr<slo::Module> M;
  ModuleSummary Summary;
  FeedbackFile Accum;
  uint64_t ProfilePayloads = 0;
};

struct AdvisoryState::StateShard {
  mutable std::mutex Mutex;
  std::map<std::string, ModuleEntry> Modules;
};

struct AdvisoryState::DigestShard {
  mutable std::mutex Mutex;
  std::map<std::pair<std::string, std::string>, RecordDigest> Records;
};

AdvisoryState::AdvisoryState(const SummaryOptions &SummaryOpts,
                             unsigned NumShards)
    : SummaryOpts(SummaryOpts), OptionsKey(summaryOptionsKey(SummaryOpts)) {
  if (NumShards == 0)
    NumShards = 1;
  for (unsigned I = 0; I < NumShards; ++I) {
    Shards.push_back(std::make_unique<StateShard>());
    DigestShards.push_back(std::make_unique<DigestShard>());
  }
}

AdvisoryState::~AdvisoryState() = default;

AdvisoryState::StateShard &AdvisoryState::shardFor(const std::string &Module) {
  return *Shards[fnv1a(Module) % Shards.size()];
}

const AdvisoryState::StateShard &
AdvisoryState::shardFor(const std::string &Module) const {
  return *Shards[fnv1a(Module) % Shards.size()];
}

//===----------------------------------------------------------------------===//
// Ingest
//===----------------------------------------------------------------------===//

StateResult AdvisoryState::putSource(const std::string &Name,
                                     const std::string &Source,
                                     Tracer *T) {
  // Compile and summarize outside any lock — this is the expensive part
  // and touches no shared state.
  TraceSpan Compile(T, "compile");
  auto Ctx = std::make_unique<IRContext>();
  std::vector<std::string> FeDiags;
  std::unique_ptr<slo::Module> M = compileMiniC(*Ctx, Name, Source, FeDiags);
  if (!M) {
    StateResult R;
    R.Error = FeDiags.empty() ? "compile failed" : FeDiags.front();
    return R;
  }
  ModuleSummary S = computeModuleSummary(*M, SummaryOpts);
  S.ModuleName = Name;
  S.SourceHash = sourceHashForTu(Source, OptionsKey);
  S.OptionsKey = OptionsKey;
  Compile.finish();

  StateShard &Shard = shardFor(Name);
  TraceSpan LockWait(T, "lock-wait");
  std::lock_guard<std::mutex> Lock(Shard.Mutex);
  LockWait.finish();
  ModuleEntry &E = Shard.Modules[Name];
  // Upsert replaces everything, including any accumulated profile: the
  // old profile was keyed against the old IR.
  E.Source = Source;
  // The old module must die before the context it was built in (its
  // values still reference the context-owned types and constants).
  E.M.reset();
  E.Ctx = std::move(Ctx);
  E.M = std::move(M);
  E.Summary = std::move(S);
  E.Accum = FeedbackFile();
  E.ProfilePayloads = 0;
  return {true, ""};
}

StateResult AdvisoryState::putSummary(const std::string &Text,
                                      Tracer *T) {
  TraceSpan Parse(T, "parse");
  ModuleSummary S;
  std::string Error;
  if (!deserializeModuleSummary(Text, S, Error)) {
    StateResult R;
    R.Error = Error;
    return R;
  }
  Parse.finish();
  StateShard &Shard = shardFor(S.ModuleName);
  TraceSpan LockWait(T, "lock-wait");
  std::lock_guard<std::mutex> Lock(Shard.Mutex);
  LockWait.finish();
  ModuleEntry &E = Shard.Modules[S.ModuleName];
  E.Source.clear();
  E.M.reset(); // Module before its context (see putSource).
  E.Ctx.reset();
  E.Summary = std::move(S);
  E.Accum = FeedbackFile();
  E.ProfilePayloads = 0;
  return {true, ""};
}

StateResult AdvisoryState::putProfile(const std::string &Name,
                                      const std::string &Text,
                                      Tracer *T) {
  StateShard &Shard = shardFor(Name);
  FeedbackFile Delta;
  std::map<std::string, RecordDigest> PerRecord;
  const slo::Module *M = nullptr;
  {
    // Parse under the shard lock: deserializeFeedback matches symbols
    // against the entry's IR, which a concurrent putSource may replace.
    TraceSpan LockWait(T, "lock-wait");
    std::lock_guard<std::mutex> Lock(Shard.Mutex);
    LockWait.finish();
    auto It = Shard.Modules.find(Name);
    if (It == Shard.Modules.end() || !It->second.M) {
      StateResult R;
      R.Error = It == Shard.Modules.end()
                    ? "unknown module '" + Name + "'"
                    : "module '" + Name + "' is summary-only (no IR to "
                      "match a profile against)";
      return R;
    }
    M = It->second.M.get();
    TraceSpan Parse(T, "parse");
    DiagnosticEngine Diags;
    FeedbackMatchResult MR = deserializeFeedback(*M, Text, Delta, &Diags);
    if (!MR.Ok) {
      // Atomic rejection: Delta may be garbage, the accumulation was
      // never touched.
      StateResult R;
      R.Error = MR.Error.empty() ? "corrupt feedback payload" : MR.Error;
      return R;
    }
    Parse.finish();
    TraceSpan Merge(T, "merge");
    It->second.Accum.merge(Delta); // The PR 5 multi-run merge path.
    Merge.finish();
    ++It->second.ProfilePayloads;
    // Group the delta's field events by record name while the shard
    // lock still pins the module's IR alive — Delta keys its stats by
    // RecordType pointers into the entry's context, and a concurrent
    // upsert frees that context the moment we unlock.
    for (const auto &Entry : Delta.allFieldStats()) {
      const RecordType *Rec = Entry.first.first;
      RecordDigest &D = PerRecord[Rec->getRecordName()];
      D.Loads += Entry.second.Loads;
      D.Stores += Entry.second.Stores;
      D.Misses += Entry.second.Misses;
    }
  }
  bumpDigests(Name, PerRecord);
  return {true, ""};
}

void AdvisoryState::bumpDigests(
    const std::string &ModuleName,
    const std::map<std::string, RecordDigest> &PerRecord) {
  // One digest-shard lock per record, never the module shard: the hot
  // ingest path touches only the shard its key hashes to.
  for (const auto &Entry : PerRecord) {
    std::pair<std::string, std::string> Key{ModuleName, Entry.first};
    DigestShard &Shard =
        *DigestShards[fnv1a(Entry.first, fnv1a(ModuleName)) %
                      DigestShards.size()];
    std::lock_guard<std::mutex> Lock(Shard.Mutex);
    RecordDigest &D = Shard.Records[Key];
    D.Module = ModuleName;
    D.Record = Entry.first;
    D.Loads += Entry.second.Loads;
    D.Stores += Entry.second.Stores;
    D.Misses += Entry.second.Misses;
    D.MergedPayloads += 1;
  }
}

//===----------------------------------------------------------------------===//
// Serving
//===----------------------------------------------------------------------===//

std::string AdvisoryState::getAdvice(bool Json, Tracer *T) const {
  // Snapshot summaries shard by shard, then order by module name: the
  // merged advice must not depend on which client's upload won which
  // race, only on the set of modules ingested.
  std::vector<ModuleSummary> Summaries;
  {
    TraceSpan LockWait(T, "lock-wait");
    for (const auto &Shard : Shards) {
      std::lock_guard<std::mutex> Lock(Shard->Mutex);
      for (const auto &Entry : Shard->Modules)
        Summaries.push_back(Entry.second.Summary);
    }
  }
  std::sort(Summaries.begin(), Summaries.end(),
            [](const ModuleSummary &A, const ModuleSummary &B) {
              return A.ModuleName < B.ModuleName;
            });
  TraceSpan Merge(T, "merge");
  PlannerOptions Planner;
  Planner.HotnessFromProfile = false; // Static schemes only (as one-shot).
  MergedProgram MP = mergeModuleSummaries(Summaries, Planner);
  Merge.finish();
  TraceSpan Render(T, "render");
  return Json ? renderAdviceJson(MP, Summaries, SummaryOpts.Scheme)
              : renderAdviceText(MP, Summaries, SummaryOpts.Scheme);
}

StateResult AdvisoryState::getProfile(const std::string &Name,
                                      std::string &Out,
                                      Tracer *T) const {
  const StateShard &Shard = shardFor(Name);
  TraceSpan LockWait(T, "lock-wait");
  std::lock_guard<std::mutex> Lock(Shard.Mutex);
  LockWait.finish();
  auto It = Shard.Modules.find(Name);
  if (It == Shard.Modules.end() || !It->second.M) {
    StateResult R;
    R.Error = "unknown module '" + Name + "'";
    return R;
  }
  TraceSpan Render(T, "render");
  Out = serializeFeedback(*It->second.M, It->second.Accum);
  return {true, ""};
}

std::string AdvisoryState::renderRecordDigestsJson() const {
  std::map<std::pair<std::string, std::string>, RecordDigest> All;
  for (const auto &Shard : DigestShards) {
    std::lock_guard<std::mutex> Lock(Shard->Mutex);
    for (const auto &Entry : Shard->Records)
      All[Entry.first] = Entry.second;
  }
  std::string O = "[";
  bool First = true;
  for (const auto &Entry : All) {
    const RecordDigest &D = Entry.second;
    if (!First)
      O += ",";
    First = false;
    O += "{\"module\": \"" + escapeJson(D.Module) + "\", \"record\": \"" +
         escapeJson(D.Record) + "\", \"loads\": " + std::to_string(D.Loads) +
         ", \"stores\": " + std::to_string(D.Stores) +
         ", \"misses\": " + std::to_string(D.Misses) +
         ", \"payloads\": " + std::to_string(D.MergedPayloads) + "}";
  }
  return O + "]";
}

size_t AdvisoryState::moduleCount() const {
  size_t N = 0;
  for (const auto &Shard : Shards) {
    std::lock_guard<std::mutex> Lock(Shard->Mutex);
    N += Shard->Modules.size();
  }
  return N;
}

uint64_t AdvisoryState::fingerprint() const {
  // Deterministic over content, independent of shard layout and ingest
  // order: render every module's state into a string, sort, hash.
  std::vector<std::string> Rows;
  for (const auto &Shard : Shards) {
    std::lock_guard<std::mutex> Lock(Shard->Mutex);
    for (const auto &Entry : Shard->Modules) {
      const ModuleEntry &E = Entry.second;
      std::string Row = "module " + Entry.first + "\n";
      Row += E.Source;
      Row += serializeModuleSummary(E.Summary);
      if (E.M)
        Row += serializeFeedback(*E.M, E.Accum);
      Row += "payloads " + std::to_string(E.ProfilePayloads) + "\n";
      Rows.push_back(std::move(Row));
    }
  }
  Rows.push_back(renderRecordDigestsJson());
  std::sort(Rows.begin(), Rows.end());
  uint64_t H = fnv1a("advisory-state-v1");
  for (const std::string &Row : Rows)
    H = fnv1a(Row, H);
  return H;
}
