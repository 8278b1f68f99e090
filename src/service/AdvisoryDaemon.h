//===- service/AdvisoryDaemon.h - Concurrent advisory server ---*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SLO-as-a-service: the one-shot advisory driver turned into a
/// long-running server (DESIGN.md §13). Clients stream MiniC sources,
/// ModuleSummary uploads, and feedback/profile payloads over the
/// length-prefixed protocol; GET_ADVICE answers with the same
/// deterministic advice the one-shot incremental pipeline renders over
/// the union of everything ingested — byte-identical, by contract.
///
/// Concurrency model: one listener thread accepts localhost TCP
/// connections, each served by its own handler thread (tests inject
/// socketpair fds through adoptConnection and get the identical code
/// path). Handlers parse and dispatch synchronously; the accumulated
/// state is sharded (AdvisoryState), so ingest scales until the ingest
/// ticket cap. Robustness rules:
///
///  - Backpressure: at most Config.IngestQueueDepth ingest requests
///    (PutSource/PutSummary/PutProfile/Batch) are in flight at once.
///    Request N+1 is answered RetryAfter and NOT applied — a flooded
///    daemon sheds load instead of growing a queue without bound.
///  - Per-request timeout: once a frame's first byte arrives, the rest
///    must arrive within Config.FrameTimeoutMillis; a stalled peer gets
///    an Error(Timeout) (best effort) and its connection closed.
///  - Malformed frames (zero/oversized declared length, truncated
///    stream, unknown opcode, unparseable body) are answered with a
///    structured Error and the connection is closed; accumulated state
///    is untouched. The daemon itself never crashes or wedges on
///    hostile bytes — the frame fuzzer holds it to that.
///  - Graceful drain: stop() closes the listener, lets every in-flight
///    request finish and flush its response, then joins all handler
///    threads.
///
/// Observability rides the PR 3 layer: `service.*` counters in a
/// CounterRegistry and per-request trace spans in a Tracer, both
/// optional nulls.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_SERVICE_ADVISORYDAEMON_H
#define SLO_SERVICE_ADVISORYDAEMON_H

#include "service/AdvisoryState.h"
#include "service/Protocol.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace slo {

class CounterRegistry;
class HistogramRegistry;
class Tracer;

namespace service {

struct DaemonConfig {
  /// Summary/scheme options; must match the one-shot oracle run.
  SummaryOptions Summary;
  /// State shard count (AdvisoryState).
  unsigned Shards = 16;
  /// Frame-size ceiling; larger declared lengths are rejected unread.
  uint32_t MaxFrameBytes = DefaultMaxFrameBytes;
  /// Max concurrently served connections; further accepts are answered
  /// Error(Busy) and closed.
  unsigned MaxConnections = 64;
  /// Max in-flight ingest requests; the next one gets RetryAfter.
  unsigned IngestQueueDepth = 8;
  /// Suggested client backoff carried in RetryAfter responses.
  uint32_t RetryAfterMillis = 20;
  /// Mid-frame stall budget per request (0 = unbounded).
  int FrameTimeoutMillis = 5000;
  /// Idle budget between requests on one connection (0 = unbounded;
  /// stop() wakes idle connections regardless).
  int IdleTimeoutMillis = 0;
  /// Batch depth cap (inner frames per Batch request).
  uint32_t MaxBatchFrames = 256;

  /// Test-only, non-vacuity injection for the frame-fuzz oracle: a
  /// deliberately buggy dispatcher that answers unknown opcodes as if
  /// they were Ping. The oracle must catch the Pong-to-garbage.
  bool InjectFrameBug = false;

  /// Test-only hook, called while an ingest ticket is held, before the
  /// request is applied. Lets tests hold ingest capacity to force
  /// backpressure and drain scenarios deterministically.
  std::function<void()> TestIngestHook;

  CounterRegistry *Counters = nullptr;
  Tracer *Trace = nullptr;

  /// Latency histograms: per-opcode service time, shard-lock wait, and
  /// ingest-queue dwell. Null disables them — and with Trace also null
  /// and FlightRecorderDepth 0, the request path reads no clock at all
  /// (the PR 3 telemetry-off contract).
  HistogramRegistry *Hist = nullptr;

  /// Per-connection flight-recorder depth (events kept). The recorder
  /// is always-on by default: a POD ring write per protocol event, no
  /// locks, no payload bytes. 0 disables it.
  unsigned FlightRecorderDepth = 64;

  /// Dump sink for flight-recorder JSON, invoked from the connection's
  /// own thread on a timeout, a malformed frame, or a drain close.
  /// Null means record but never dump (the default in tests, where the
  /// fuzzer closes thousands of connections on purpose).
  std::function<void(const std::string &)> FlightDumpSink;
};

/// The server. Construct, then listenTcp() and/or adoptConnection(),
/// then stop() (also run by the destructor).
class AdvisoryDaemon {
public:
  explicit AdvisoryDaemon(DaemonConfig Config);
  ~AdvisoryDaemon();
  AdvisoryDaemon(const AdvisoryDaemon &) = delete;
  AdvisoryDaemon &operator=(const AdvisoryDaemon &) = delete;

  /// Binds 127.0.0.1:\p Port (0 = ephemeral) and starts the accept
  /// loop. Returns false on bind failure. The bound port is in port().
  bool listenTcp(uint16_t Port);
  uint16_t port() const { return BoundPort; }

  /// Serves an already-connected stream socket (the socketpair
  /// transport) on its own handler thread, same code path as TCP.
  /// Returns false when the daemon is stopping.
  bool adoptConnection(int Fd);

  /// Graceful drain: stop accepting, finish in-flight requests, flush
  /// responses, join every thread. Idempotent.
  void stop();

  /// True once a Shutdown request or stop() began draining.
  bool stopping() const { return Stopping.load(std::memory_order_acquire); }

  /// The accumulated state (tests use fingerprint()/getAdvice()).
  AdvisoryState &state() { return State; }

  /// Connections currently being served.
  unsigned liveConnections() const {
    return Live.load(std::memory_order_acquire);
  }

private:
  struct Conn;

  void acceptLoop();
  void handleConnection(Conn *C);
  /// Dispatches one well-formed frame; returns false when the
  /// connection must close (protocol violation or Shutdown). \p T is
  /// the per-request trace (null when telemetry is off).
  bool dispatch(Conn *C, const Frame &F, std::string &ResponseBytes,
                Tracer *T);
  /// Applies one request under the ingest/backpressure regime.
  std::string handleRequest(const Frame &F, bool &CloseAfter, Tracer *T);
  std::string handleIngest(const Frame &F, bool &CloseAfter, Tracer *T);
  void bump(const char *Name, uint64_t N = 1);
  void reapFinished();
  /// The drain body; caller holds StopMutex with Stopped still false.
  void drainLocked();
  /// Starts the drain from a handler thread (Shutdown request) without
  /// self-joining: stop() runs on a dedicated stopper thread.
  void requestStopAsync();

  DaemonConfig Config;
  AdvisoryState State;

  std::atomic<bool> Stopping{false};
  std::atomic<unsigned> Live{0};
  std::atomic<unsigned> IngestInFlight{0};
  std::atomic<uint64_t> NextConnId{1};

  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::thread Acceptor;

  std::mutex ConnMutex;
  std::vector<std::unique_ptr<Conn>> Conns;

  std::mutex StopMutex; // Serializes stop() against itself.
  bool Stopped = false;

  std::mutex StopperMutex; // Guards the Shutdown-request stopper thread.
  bool StopRequested = false;
  std::thread Stopper;
};

} // namespace service
} // namespace slo

#endif // SLO_SERVICE_ADVISORYDAEMON_H
