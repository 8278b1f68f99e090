//===- service/AdvisoryDaemon.cpp - Concurrent advisory server ------------===//

#include "service/AdvisoryDaemon.h"

#include "observability/CounterRegistry.h"
#include "observability/FlightRecorder.h"
#include "observability/Histogram.h"
#include "observability/Tracer.h"

#include <algorithm>
#include <cctype>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace slo;
using namespace slo::service;

struct AdvisoryDaemon::Conn {
  int Fd = -1;
  std::thread Thread;
  std::atomic<bool> Done{false};
};

namespace {

/// Flight-recorder event kinds (Code carries the detail).
enum FlightKind : uint16_t {
  FlightFrameIn = 1,  ///< Code = request opcode.
  FlightReplyOut = 2, ///< Code = first reply opcode; Dur = service time.
  FlightReadError = 3 ///< Code = ReadStatus.
};

FlightRecorder::Description describeFlightEvent(
    const FlightRecorder::Event &E) {
  FlightRecorder::Description D;
  switch (E.Kind) {
  case FlightFrameIn:
    D.Kind = "frame-in";
    D.Code = opcodeName(static_cast<Opcode>(E.Code));
    break;
  case FlightReplyOut:
    D.Kind = "reply-out";
    D.Code = opcodeName(static_cast<Opcode>(E.Code));
    break;
  case FlightReadError:
    D.Kind = "read-error";
    D.Code = readStatusName(static_cast<ReadStatus>(E.Code));
    break;
  default:
    D.Kind = std::to_string(E.Kind);
    D.Code = std::to_string(E.Code);
  }
  return D;
}

uint64_t microsSince(std::chrono::steady_clock::time_point Since,
                     std::chrono::steady_clock::time_point Now) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Now - Since)
          .count());
}

} // namespace

AdvisoryDaemon::AdvisoryDaemon(DaemonConfig Config)
    : Config(std::move(Config)),
      State(this->Config.Summary, this->Config.Shards) {}

AdvisoryDaemon::~AdvisoryDaemon() { stop(); }

void AdvisoryDaemon::bump(const char *Name, uint64_t N) {
  if (Config.Counters)
    Config.Counters->add(Name, N);
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

bool AdvisoryDaemon::listenTcp(uint16_t Port) {
  if (stopping() || ListenFd >= 0)
    return false;
  ListenFd = listenTcpLocalhost(Port, BoundPort);
  if (ListenFd < 0)
    return false;
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

bool AdvisoryDaemon::adoptConnection(int Fd) {
  if (stopping()) {
    ::close(Fd);
    return false;
  }
  auto C = std::make_unique<Conn>();
  C->Fd = Fd;
  Conn *Raw = C.get();
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    if (stopping()) { // stop() may have begun after the check above.
      ::close(Fd);
      return false;
    }
    Live.fetch_add(1, std::memory_order_acq_rel);
    C->Thread = std::thread([this, Raw] { handleConnection(Raw); });
    Conns.push_back(std::move(C));
  }
  bump("service.connections_accepted");
  return true;
}

void AdvisoryDaemon::acceptLoop() {
  for (;;) {
    struct pollfd P;
    P.fd = ListenFd;
    P.events = POLLIN;
    P.revents = 0;
    // A bounded poll keeps the loop responsive to stop() even on
    // platforms where closing the listener does not wake a blocked
    // accept.
    int N = ::poll(&P, 1, 200);
    if (stopping())
      return;
    if (N <= 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (stopping())
        return;
      continue;
    }
    reapFinished();
    if (Live.load(std::memory_order_acquire) >= Config.MaxConnections) {
      // Over the cap: a structured rejection, not a silent RST and not
      // an unbounded thread army.
      bump("service.connections_rejected");
      writeFrame(Fd, Opcode::Error,
                 encodeErrorBody(ErrCode::Busy, "connection limit reached"),
                 Config.FrameTimeoutMillis);
      ::close(Fd);
      continue;
    }
    if (!adoptConnection(Fd))
      return;
  }
}

void AdvisoryDaemon::reapFinished() {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (auto It = Conns.begin(); It != Conns.end();) {
    if ((*It)->Done.load(std::memory_order_acquire)) {
      (*It)->Thread.join();
      It = Conns.erase(It);
    } else {
      ++It;
    }
  }
}

void AdvisoryDaemon::stop() {
  {
    std::lock_guard<std::mutex> Lock(StopMutex);
    if (!Stopped)
      drainLocked();
  }
  // Join a Shutdown-request stopper, unless we *are* it (then the owner
  // joins it later through this same path). The thread is moved out so
  // the mutex is not held across the join — the stopper's own stop()
  // ends here too.
  std::thread ToJoin;
  {
    std::lock_guard<std::mutex> SLock(StopperMutex);
    if (Stopper.joinable() &&
        Stopper.get_id() != std::this_thread::get_id())
      ToJoin = std::move(Stopper);
  }
  if (ToJoin.joinable())
    ToJoin.join();
}

void AdvisoryDaemon::drainLocked() {
  Stopped = true;
  Stopping.store(true, std::memory_order_release);

  // Stop accepting first: no new connections during the drain.
  if (ListenFd >= 0) {
    ::shutdown(ListenFd, SHUT_RDWR);
    if (Acceptor.joinable())
      Acceptor.join();
    ::close(ListenFd);
    ListenFd = -1;
  }

  // Wake every idle connection by shutting down its read side only:
  // a handler mid-request keeps its write side and flushes the
  // response (the graceful part of the drain), then sees EOF on the
  // next read and exits.
  {
    std::lock_guard<std::mutex> CLock(ConnMutex);
    for (const auto &C : Conns)
      ::shutdown(C->Fd, SHUT_RD);
  }

  // Join handlers outside ConnMutex (they briefly take it on exit).
  for (;;) {
    std::unique_ptr<Conn> C;
    {
      std::lock_guard<std::mutex> CLock(ConnMutex);
      if (Conns.empty())
        break;
      C = std::move(Conns.back());
      Conns.pop_back();
    }
    if (C->Thread.joinable())
      C->Thread.join();
  }
  bump("service.drained_stops");
}

void AdvisoryDaemon::requestStopAsync() {
  std::lock_guard<std::mutex> Lock(StopperMutex);
  if (StopRequested)
    return;
  StopRequested = true;
  Stopper = std::thread([this] { stop(); });
}

//===----------------------------------------------------------------------===//
// Connection handling
//===----------------------------------------------------------------------===//

void AdvisoryDaemon::handleConnection(Conn *C) {
  int Fd = C->Fd;
  uint64_t ConnId = NextConnId.fetch_add(1, std::memory_order_relaxed);
  FlightRecorder Recorder(Config.FlightRecorderDepth);
  // One bool gates every clock read on the request path: with no
  // histograms, no tracer, and the recorder disabled, the path is as
  // clock-free as before telemetry existed.
  const bool Timed = Config.Hist || Config.Trace || Recorder.enabled();
  auto dumpFlight = [&](const char *Reason) {
    if (!Recorder.enabled() || !Config.FlightDumpSink)
      return;
    bump("service.flight_dumps");
    Config.FlightDumpSink(Recorder.renderJson(
        Reason, "\"connection\": " + std::to_string(ConnId),
        describeFlightEvent));
  };
  for (;;) {
    Frame F;
    std::chrono::steady_clock::time_point FirstByte;
    ReadStatus S = readFrame(Fd, F, Config.MaxFrameBytes,
                             Config.IdleTimeoutMillis,
                             Config.FrameTimeoutMillis,
                             Timed ? &FirstByte : nullptr);
    if (S == ReadStatus::Eof) {
      if (stopping())
        dumpFlight("drain");
      break;
    }
    if (S != ReadStatus::Ok) {
      // Every malformed outcome is a diagnostic plus a closed
      // connection; accumulated state was never touched. The response
      // is best-effort — a peer that vanished mid-frame cannot read it.
      bump("service.frames_malformed");
      Recorder.push(FlightReadError, static_cast<uint16_t>(S), 0, 0);
      switch (S) {
      case ReadStatus::TooLarge:
        writeFrame(Fd, Opcode::Error,
                   encodeErrorBody(ErrCode::TooLarge,
                                   "declared frame length exceeds limit"),
                   Config.FrameTimeoutMillis);
        break;
      case ReadStatus::BadLength:
        writeFrame(Fd, Opcode::Error,
                   encodeErrorBody(ErrCode::Malformed,
                                   "frame length must be nonzero"),
                   Config.FrameTimeoutMillis);
        break;
      case ReadStatus::Timeout:
        bump("service.timeouts");
        writeFrame(Fd, Opcode::Error,
                   encodeErrorBody(ErrCode::Timeout,
                                   "peer stalled mid-frame"),
                   Config.FrameTimeoutMillis);
        break;
      default: // Truncated / Error: nobody is listening.
        break;
      }
      dumpFlight(readStatusName(S));
      break;
    }
    bump("service.frames");
    Recorder.push(FlightFrameIn, static_cast<uint16_t>(F.Op),
                  static_cast<uint32_t>(F.Body.size()), 0);
    std::string Response;
    bool KeepOpen;
    // A Traced request opens a request trace even with telemetry off:
    // the client asked for spans explicitly, so the clock reads are
    // opted into per request.
    if (Timed || F.Op == Opcode::Traced) {
      if (!Timed)
        FirstByte = std::chrono::steady_clock::now();
      Tracer RequestTrace(FirstByte);
      // The frame read itself, ending where dispatch begins.
      RequestTrace.record("read", "phase", FirstByte,
                          std::chrono::steady_clock::now());
      KeepOpen = dispatch(C, F, Response, &RequestTrace);
      uint64_t DurUs =
          microsSince(FirstByte, std::chrono::steady_clock::now());
      if (Config.Hist) {
        Config.Hist->record(std::string("service.latency.") +
                                opcodeName(F.Op),
                            DurUs);
        for (const Tracer::Event &E : RequestTrace.events()) {
          if (E.Name == "lock-wait")
            Config.Hist->record("service.lock_wait_us", E.DurMicros);
          else if (E.Name == "dwell")
            Config.Hist->record("service.ingest_dwell_us", E.DurMicros);
        }
      }
      uint16_t ReplyOp =
          Response.size() > 4 ? static_cast<uint8_t>(Response[4]) : 0;
      Recorder.push(FlightReplyOut, ReplyOp,
                    static_cast<uint32_t>(Response.size()),
                    DurUs > UINT32_MAX ? UINT32_MAX
                                       : static_cast<uint32_t>(DurUs));
    } else {
      KeepOpen = dispatch(C, F, Response, nullptr);
      uint16_t ReplyOp =
          Response.size() > 4 ? static_cast<uint8_t>(Response[4]) : 0;
      Recorder.push(FlightReplyOut, ReplyOp,
                    static_cast<uint32_t>(Response.size()), 0);
    }
    if (!Response.empty() &&
        !writeAll(Fd, Response, Config.FrameTimeoutMillis))
      break;
    if (!KeepOpen) {
      // CloseAfter on anything but an explicit Shutdown means a
      // protocol violation: the post-mortem case the recorder exists
      // for.
      if (F.Op != Opcode::Shutdown)
        dumpFlight("malformed-request");
      break;
    }
  }
  ::close(Fd);
  Live.fetch_sub(1, std::memory_order_acq_rel);
  C->Done.store(true, std::memory_order_release);
}

bool AdvisoryDaemon::dispatch(Conn *C, const Frame &F,
                              std::string &ResponseBytes, Tracer *T) {
  (void)C;
  bool CloseAfter = false;
  ResponseBytes = handleRequest(F, CloseAfter, T);
  return !CloseAfter;
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

namespace {

/// RAII ingest ticket: acquired-or-rejected under the queue-depth cap.
class IngestTicket {
public:
  IngestTicket(std::atomic<unsigned> &InFlight, unsigned Depth)
      : InFlight(InFlight) {
    unsigned Cur = InFlight.fetch_add(1, std::memory_order_acq_rel);
    Held = Cur < Depth;
    if (!Held)
      InFlight.fetch_sub(1, std::memory_order_acq_rel);
  }
  ~IngestTicket() {
    if (Held)
      InFlight.fetch_sub(1, std::memory_order_acq_rel);
  }
  bool held() const { return Held; }

private:
  std::atomic<unsigned> &InFlight;
  bool Held;
};

std::string errorFrame(ErrCode Code, const std::string &Message) {
  return encodeFrame(Opcode::Error, encodeErrorBody(Code, Message));
}

std::string okFrame(const std::string &Text = std::string()) {
  std::string Body;
  appendString(Body, Text);
  return encodeFrame(Opcode::Ok, Body);
}

std::string textFrame(Opcode Op, const std::string &Text) {
  std::string Body;
  appendString(Body, Text);
  return encodeFrame(Op, Body);
}

} // namespace

std::string AdvisoryDaemon::handleIngest(const Frame &F, bool &CloseAfter,
                                         Tracer *T) {
  IngestTicket Ticket(IngestInFlight, Config.IngestQueueDepth);
  if (!Ticket.held()) {
    // Reject-with-retry-after: the request was NOT applied, the queue
    // never grows past its depth, and the client owns the backoff.
    bump("service.retry_after");
    std::string Body;
    appendU32(Body, Config.RetryAfterMillis);
    return encodeFrame(Opcode::RetryAfter, Body);
  }
  // Queue dwell: how long this request held ingest capacity. Tickets
  // never block, so dwell is the applied-work time under the cap —
  // the histogram that shows when the depth is the bottleneck.
  TraceSpan Dwell(T, "dwell");
  if (Config.TestIngestHook)
    Config.TestIngestHook();

  BodyReader R(F.Body);
  switch (F.Op) {
  case Opcode::PutSource: {
    std::string Module, Source;
    if (!R.readString(Module) || !R.readString(Source) || !R.atEnd()) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "bad PutSource body");
    }
    bump("service.ingest_source");
    TraceSpan Span(Config.Trace, "service/put-source", "service");
    StateResult SR = State.putSource(Module, Source, T);
    return SR.Ok ? okFrame() : errorFrame(ErrCode::CompileFailed, SR.Error);
  }
  case Opcode::PutSummary: {
    std::string Text;
    if (!R.readString(Text) || !R.atEnd()) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "bad PutSummary body");
    }
    bump("service.ingest_summary");
    TraceSpan Span(Config.Trace, "service/put-summary", "service");
    StateResult SR = State.putSummary(Text, T);
    return SR.Ok ? okFrame() : errorFrame(ErrCode::CorruptPayload, SR.Error);
  }
  case Opcode::PutProfile: {
    std::string Module, Text;
    if (!R.readString(Module) || !R.readString(Text) || !R.atEnd()) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "bad PutProfile body");
    }
    bump("service.ingest_profile");
    TraceSpan Span(Config.Trace, "service/put-profile", "service");
    StateResult SR = State.putProfile(Module, Text, T);
    if (SR.Ok)
      return okFrame();
    return errorFrame(SR.Error.rfind("unknown module", 0) == 0
                          ? ErrCode::UnknownModule
                          : ErrCode::CorruptPayload,
                      SR.Error);
  }
  default:
    CloseAfter = true;
    return errorFrame(ErrCode::Malformed, "not an ingest opcode");
  }
}

std::string AdvisoryDaemon::handleRequest(const Frame &F, bool &CloseAfter,
                                          Tracer *T) {
  CloseAfter = false;
  BodyReader R(F.Body);
  switch (F.Op) {
  case Opcode::Ping: {
    if (!R.atEnd()) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "Ping carries no body");
    }
    bump("service.pings");
    std::string Body;
    appendU32(Body, ProtocolVersion);
    return encodeFrame(Opcode::Pong, Body);
  }

  case Opcode::PutSource:
  case Opcode::PutSummary:
  case Opcode::PutProfile:
    return handleIngest(F, CloseAfter, T);

  case Opcode::GetAdvice: {
    uint8_t Json = 0;
    if (F.Body.size() > 1 || (F.Body.size() == 1 && !R.readU8(Json))) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "bad GetAdvice body");
    }
    bump("service.advice_requests");
    TraceSpan Span(Config.Trace, "service/get-advice", "service");
    return textFrame(Opcode::Advice, State.getAdvice(Json != 0, T));
  }

  case Opcode::GetProfile: {
    std::string Module;
    if (!R.readString(Module) || !R.atEnd()) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "bad GetProfile body");
    }
    bump("service.profile_requests");
    std::string Out;
    StateResult SR = State.getProfile(Module, Out, T);
    return SR.Ok ? textFrame(Opcode::Profile, Out)
                 : errorFrame(ErrCode::UnknownModule, SR.Error);
  }

  case Opcode::GetMetrics: {
    uint8_t Format = 0;
    if (F.Body.size() > 1 || (F.Body.size() == 1 && !R.readU8(Format)) ||
        Format > 1) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "bad GetMetrics body");
    }
    bump("service.metrics_requests");
    std::string Text;
    if (Format == 0) {
      Text = "{\"counters\": ";
      Text += Config.Counters ? Config.Counters->renderJson() : "{}";
      Text += ", \"histograms\": ";
      Text += Config.Hist ? Config.Hist->renderJson() : "{}";
      Text += "}";
    } else {
      if (Config.Counters) {
        for (const auto &[Name, V] : Config.Counters->snapshot()) {
          std::string M = "slo_";
          for (char Ch : Name)
            M.push_back(std::isalnum(static_cast<unsigned char>(Ch)) ? Ch
                                                                     : '_');
          Text += "# TYPE " + M + " counter\n";
          Text += M + " " + std::to_string(V) + "\n";
        }
      }
      if (Config.Hist)
        Text += Config.Hist->renderPrometheus();
    }
    return textFrame(Opcode::Metrics, Text);
  }

  case Opcode::Traced: {
    TraceContext Ctx;
    Frame Inner;
    if (!decodeTracedRequest(R, Ctx, Inner, Config.MaxFrameBytes) ||
        !R.atEnd()) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "bad Traced body");
    }
    if (Inner.Op == Opcode::Traced || Inner.Op == Opcode::Batch ||
        Inner.Op == Opcode::Shutdown) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed,
                        "opcode not allowed inside Traced");
    }
    bump("service.traced_requests");
    std::string InnerReply = handleRequest(Inner, CloseAfter, T);
    // Return every span recorded so far for this request — the outer
    // "read" plus whatever the inner handler added. The propagated ids
    // are echoed, never interpreted: a trace id must not be able to
    // change a single advice byte.
    std::vector<DaemonSpan> Spans;
    if (T) {
      std::vector<Tracer::Event> Events = T->events();
      Spans.reserve(Events.size());
      for (Tracer::Event &E : Events) {
        DaemonSpan S;
        S.Name = std::move(E.Name);
        S.StartMicros = E.StartMicros;
        S.DurMicros = E.DurMicros;
        Spans.push_back(std::move(S));
      }
    }
    return encodeFrame(Opcode::TracedReply,
                       encodeTracedReplyBody(Ctx, Spans, InnerReply));
  }

  case Opcode::GetStats: {
    if (!R.atEnd()) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "GetStats carries no body");
    }
    bump("service.stats_requests");
    std::string Json = "{\"modules\": " + std::to_string(State.moduleCount());
    Json += ", \"counters\": ";
    Json += Config.Counters ? Config.Counters->renderJson() : "{}";
    Json += ", \"records\": " + State.renderRecordDigestsJson();
    Json += "}";
    return textFrame(Opcode::Stats, Json);
  }

  case Opcode::Batch: {
    uint32_t Count = 0;
    if (!R.readU32(Count) || Count > Config.MaxBatchFrames) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "bad Batch header");
    }
    bump("service.batches");
    std::string Inner;
    uint32_t Done = 0;
    for (uint32_t I = 0; I < Count; ++I) {
      Frame FI;
      if (!readInnerFrame(R, FI, Config.MaxFrameBytes)) {
        Inner += errorFrame(ErrCode::Malformed, "bad inner frame");
        ++Done;
        CloseAfter = true; // Remaining entries are unparseable.
        break;
      }
      if (FI.Op == Opcode::Batch || FI.Op == Opcode::Shutdown ||
          FI.Op == Opcode::Traced) {
        Inner += errorFrame(ErrCode::Malformed,
                            "opcode not allowed inside a batch");
        ++Done;
        CloseAfter = true;
        break;
      }
      bool InnerClose = false;
      Inner += handleRequest(FI, InnerClose, T);
      ++Done;
      if (InnerClose) {
        CloseAfter = true;
        break;
      }
    }
    if (!CloseAfter && !R.atEnd()) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "trailing bytes after batch");
    }
    std::string Body;
    appendU32(Body, Done);
    Body += Inner;
    return encodeFrame(Opcode::BatchReply, Body);
  }

  case Opcode::Shutdown: {
    if (!R.atEnd()) {
      CloseAfter = true;
      return errorFrame(ErrCode::Malformed, "Shutdown carries no body");
    }
    bump("service.shutdown_requests");
    CloseAfter = true;
    requestStopAsync();
    return okFrame("draining");
  }

  default:
    if (Config.InjectFrameBug) {
      // Deliberately broken dispatcher for the fuzz oracle's
      // non-vacuity check: garbage opcodes answered as Ping.
      std::string Body;
      appendU32(Body, ProtocolVersion);
      return encodeFrame(Opcode::Pong, Body);
    }
    bump("service.frames_malformed");
    CloseAfter = true;
    return errorFrame(ErrCode::UnknownOpcode, "unassigned opcode");
  }
}
