//===- perfbench/Report.cpp - Metrics, span self times, the report -------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "observability/Tracer.h"

#include <cstdarg>
#include <cstdio>

namespace perfbench {

namespace {

struct LayerDef {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric, in BENCHMARK.json order (run.py checks that the
/// two lists agree). Span self times are "<span>_ms".
const LayerDef LayerDefs[] = {
    {"frontend.lex_ms", "ms"},
    {"frontend.parse_ms", "ms"},
    {"frontend.irgen_ms", "ms"},
    {"frontend.verify_ms", "ms"},
    {"frontend.tokens_per_s", "1/s"},
    {"ir.link_ms", "ms"},
    {"ir.teardown_ms", "ms"},
    {"ir.instructions", "count"},
    {"analysis.legality_ms", "ms"},
    {"analysis.pointsto_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"analysis.refine_ms", "ms"},
    {"analysis.fieldstats_ms", "ms"},
    {"analysis.pointsto_cells", "count"},
    {"transform.plan_ms", "ms"},
    {"transform.apply_ms", "ms"},
    {"transform.types_transformed", "count"},
    {"pipeline.summarize_ms", "ms"},
    {"pipeline.serialize_ms", "ms"},
    {"pipeline.deserialize_ms", "ms"},
    {"pipeline.cache_load_ms", "ms"},
    {"pipeline.cache_store_ms", "ms"},
    {"pipeline.cache_hit_ratio", "ratio"},
    {"pipeline.cache_lookups", "count"},
    {"pipeline.merge_ms", "ms"},
    {"pipeline.render_ms", "ms"},
    {"pipeline.tus_reused", "count"},
    {"pipeline.tus_recomputed", "count"},
    {"runtime.vm_ms", "ms"},
    {"runtime.vm_ms.181.mcf", "ms"},
    {"runtime.vm_ms.moldyn", "ms"},
    {"runtime.vm_ms.179.art", "ms"},
    {"runtime.vm_ms.generated", "ms"},
    {"runtime.nocache_ms", "ms"},
    {"runtime.cachesim_ms", "ms"},
    {"runtime.minstr_per_s", "Minstr/s"},
    {"runtime.instructions", "count"},
    {"runtime.accesses", "count"},
    {"runtime.l1_miss_events", "count"},
    {"service.ping_us", "us"},
    {"service.state_get_advice_us", "us"},
    {"service.state_put_source_us", "us"},
    {"service.snapshot_ms", "ms"},
    {"service.retry_after", "count"},
    {"serve.ingest_lag_ms", "ms"},
    {"advise.json_bit_mismatches", "count"},
    {"share.frontend", "%"},
    {"share.ir", "%"},
    {"share.analysis", "%"},
    {"share.transform", "%"},
    {"share.pipeline", "%"},
    {"share.runtime", "%"},
    {"share.service", "%"},
    {"share.uncovered", "%"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

} // namespace

void say(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::vprintf(Fmt, Args);
  va_end(Args);
  std::putchar('\n');
}

void Report::latency(const std::string &Prefix, const std::string &Label,
                     const std::vector<double> &SamplesMs) {
  Tail T = tailOf(SamplesMs);
  double P50 = median(SamplesMs);
  // With too few samples for a tail the upper quartile stands in (the
  // maximum of a handful of samples is one scheduler hiccup), and the
  // line says so.
  double TailMs = T.Valid ? T.Value : upperQuartile(SamplesMs);
  if (T.Valid)
    say("  %-24s p50 %.3f ms, tail p%.1f %.3f ms (%zu samples)",
        Label.c_str(), P50, T.Percentile, TailMs, T.Count);
  else
    say("  %-24s p50 %.3f ms, p75 %.3f ms (%zu samples, too few for a "
        "tail)",
        Label.c_str(), P50, TailMs, T.Count);
  metric(Prefix + "_p50_ms", P50, "ms");
  metric(Prefix + "_tail_ms", TailMs, "ms");
}

SpanTimes selfTimes(const slo::Tracer &T) {
  using Event = slo::Tracer::Event;
  std::vector<Event> Ev = T.events();
  std::sort(Ev.begin(), Ev.end(), [](const Event &A, const Event &B) {
    if (A.ThreadId != B.ThreadId)
      return A.ThreadId < B.ThreadId;
    if (A.StartMicros != B.StartMicros)
      return A.StartMicros < B.StartMicros;
    return A.DurMicros > B.DurMicros;
  });
  // Each thread's spans in start order, with a stack of those still
  // open: a span's parent is the innermost open one.
  std::vector<double> Self(Ev.size());
  std::vector<size_t> Open;
  for (size_t I = 0; I < Ev.size(); ++I) {
    while (!Open.empty()) {
      const Event &P = Ev[Open.back()];
      if (P.ThreadId == Ev[I].ThreadId &&
          Ev[I].StartMicros < P.StartMicros + P.DurMicros)
        break;
      Open.pop_back();
    }
    Self[I] = static_cast<double>(Ev[I].DurMicros);
    if (!Open.empty())
      Self[Open.back()] -= static_cast<double>(Ev[I].DurMicros);
    Open.push_back(I);
  }

  SpanTimes S;
  for (size_t I = 0; I < Ev.size(); ++I) {
    double Ms = std::max(0.0, Self[I]) / 1000.0;
    const std::string &Name = Ev[I].Name;
    if (Name.rfind("leg.", 0) == 0) {
      S.LegMs += static_cast<double>(Ev[I].DurMicros) / 1000.0;
      S.LegSelfMs += Ms;
      continue;
    }
    S.SelfMs[Name + "_ms"] += Ms;
    if (Ev[I].Category != "phase")
      S.SelfMs[Name + "_ms." + Ev[I].Category] += Ms;
  }
  return S;
}

void Report::spans(const SpanTimes &S, bool Legs) {
  for (const auto &[Key, Ms] : S.SelfMs)
    layer(Key, Ms);
  if (!Legs || S.LegMs <= 0)
    return;
  std::map<std::string, double> Groups;
  for (const auto &[Key, Ms] : S.SelfMs)
    if (Key.find("_ms.") == std::string::npos)
      Groups[Key.substr(0, Key.find('.'))] += Ms;
  for (const auto &[Group, Ms] : Groups)
    layer("share." + Group, 100.0 * Ms / S.LegMs);
  layer("share.uncovered", 100.0 * S.LegSelfMs / S.LegMs);
  layer("trace.coverage", 1.0 - S.LegSelfMs / S.LegMs);
}

std::vector<Report::Metric> Report::layerMetrics() const {
  std::vector<Metric> Out;
  for (const LayerDef &D : LayerDefs) {
    auto It = LayerSamples.find(D.Name);
    Out.push_back(
        {D.Name, It == LayerSamples.end() ? 0.0 : median(It->second), D.Unit});
  }
  return Out;
}

} // namespace perfbench
