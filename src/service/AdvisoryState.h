//===- service/AdvisoryState.h - Sharded accumulated state -----*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The advisory daemon's accumulated state, sharded for concurrent
/// ingest (DESIGN.md §13):
///
///  - Module entries (source, compiled module, ModuleSummary, and the
///    accumulated FeedbackFile) live in hash(module)-addressed shards,
///    each behind its own mutex; two clients streaming different
///    modules never contend on a lock.
///  - Profile merges run through the existing atomic paths:
///    deserializeFeedback parses the payload against the module's IR
///    into a scratch FeedbackFile (corrupt input changes nothing), then
///    FeedbackFile::merge folds it into the accumulation under the
///    shard lock — the multi-run merge of PR 5, now under contention.
///  - Per-(module, record-type) ingest digests live in a second shard
///    table keyed by the pair, accumulating symbolic load/store/miss
///    tallies in the PR 3 sharded-counter spirit: the hot ingest path
///    touches only the shard its key hashes to.
///
/// The serving contract: getAdvice() is byte-identical to a monolithic
/// one-shot run (runIncrementalAdvice with no cache) over the union of
/// every module ingested, with TUs ordered by module name. The daemon
/// sorts its summaries by name before the merge, so the answer is
/// independent of ingest interleaving — N clients racing their uploads
/// converge on the same bytes.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_SERVICE_ADVISORYSTATE_H
#define SLO_SERVICE_ADVISORYSTATE_H

#include "pipeline/Incremental.h"
#include "profile/FeedbackFile.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace slo {

class IRContext;
class Module;
class Tracer;

namespace service {

/// Outcome of one state mutation.
struct StateResult {
  bool Ok = false;
  std::string Error; // Set when !Ok.
};

/// Per-(module, record-type) ingest digest: what the daemon has seen
/// stream past for one record of one module.
struct RecordDigest {
  std::string Module;
  std::string Record;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t Misses = 0;
  uint64_t MergedPayloads = 0;
};

/// Sharded accumulated advisory state. All public methods are
/// thread-safe; the lock granularity is one shard (module ingest) or
/// one record shard (digest bumps).
class AdvisoryState {
public:
  /// \p SummaryOpts must match the options the one-shot oracle runs
  /// with (the advice bytes depend on them).
  explicit AdvisoryState(const SummaryOptions &SummaryOpts,
                         unsigned NumShards = 16);
  ~AdvisoryState();
  AdvisoryState(const AdvisoryState &) = delete;
  AdvisoryState &operator=(const AdvisoryState &) = delete;

  /// Compiles \p Source as module \p Name and upserts its entry (source,
  /// IR, summary). On compile failure the previous entry, if any, is
  /// kept untouched. \p T, when non-null, receives "compile" and
  /// "lock-wait" spans. A null \p T reads no clock anywhere on these
  /// paths (the telemetry-off contract).
  StateResult putSource(const std::string &Name, const std::string &Source,
                        Tracer *T = nullptr);

  /// Upserts a summary-only entry from a serialized ModuleSummary.
  /// Corrupt payloads are rejected with the deserializer's error and
  /// change nothing. A summary-only module cannot accept profiles
  /// (there is no IR to match them against). Spans: "parse",
  /// "lock-wait".
  StateResult putSummary(const std::string &Text, Tracer *T = nullptr);

  /// Merges a serialized feedback payload into module \p Name's
  /// accumulated profile. The parse is atomic (corrupt input leaves the
  /// accumulation untouched); the merge runs under the shard lock.
  /// Spans: "lock-wait", "parse", "merge".
  StateResult putProfile(const std::string &Name, const std::string &Text,
                         Tracer *T = nullptr);

  /// Renders program-wide advice over every module ingested so far:
  /// summaries sorted by module name, merged and rendered exactly like
  /// the one-shot incremental pipeline. Spans: "lock-wait", "merge",
  /// "render".
  std::string getAdvice(bool Json, Tracer *T = nullptr) const;

  /// Re-serializes module \p Name's accumulated profile. Fails for
  /// unknown or summary-only modules. Spans: "lock-wait", "render".
  StateResult getProfile(const std::string &Name, std::string &Out,
                         Tracer *T = nullptr) const;

  /// Deterministic JSON array of per-(module, record) ingest digests,
  /// sorted by (module, record).
  std::string renderRecordDigestsJson() const;

  /// Number of modules currently held.
  size_t moduleCount() const;

  /// Order-independent fingerprint of all accumulated state (module
  /// sources, summaries, profiles, digests). The protocol fuzzer
  /// asserts malformed frames leave this bit-identical.
  uint64_t fingerprint() const;

private:
  struct ModuleEntry;
  struct StateShard;
  struct DigestShard;

  StateShard &shardFor(const std::string &Module);
  const StateShard &shardFor(const std::string &Module) const;
  /// Folds per-record tallies (record names already copied out of the
  /// module's IR — the IR itself must not be touched here, a concurrent
  /// upsert may have destroyed it) into the digest shards.
  void bumpDigests(const std::string &ModuleName,
                   const std::map<std::string, RecordDigest> &PerRecord);

  SummaryOptions SummaryOpts;
  uint64_t OptionsKey;
  std::vector<std::unique_ptr<StateShard>> Shards;
  std::vector<std::unique_ptr<DigestShard>> DigestShards;
};

} // namespace service
} // namespace slo

#endif // SLO_SERVICE_ADVISORYSTATE_H
