//===- perfbench/SimTable3.cpp - The sim_table3 workload ------------------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
// The simulator path as bench_table3_performance runs it, one pass at a
// time: the 12 Table 3 programs' base runs, the two PBO training runs and
// the 14 optimized runs (28 runProgram calls on the VM, one worker, so
// the time is their sum), plus the one-shot compile +
// runStructLayoutPipeline that builds each optimized program. Every row
// must equal bench/baselines/BENCH_table3.json exactly, and every
// optimized run must print what its base run printed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Replay.h"

#include "frontend/Frontend.h"
#include "observability/Tracer.h"
#include "runtime/Interpreter.h"
#include "workloads/Workloads.h"

#include <cstdlib>
#include <fstream>
#include <memory>

using namespace slo;

namespace perfbench {
namespace {

/// One Table 3 row, as bench/baselines/BENCH_table3.json records it.
struct Row {
  std::string Name;
  bool Pbo = false;
  uint64_t Types = 0, Transformed = 0, SplitDead = 0;
  uint64_t BaseCycles = 0, OptCycles = 0, BaseMisses = 0, OptMisses = 0;

  bool operator==(const Row &O) const = default;
};

/// The number after "<Key>": on one row line of the baseline.
uint64_t rowField(const std::string &Line, const std::string &Key) {
  size_t P = Line.find("\"" + Key + "\": ");
  if (P == std::string::npos)
    return ~0ull;
  return std::strtoull(Line.c_str() + P + Key.size() + 4, nullptr, 10);
}

/// The committed rows; the file holds one row per line.
std::vector<Row> loadBaseline(const std::string &Path) {
  std::vector<Row> Rows;
  std::ifstream In(Path);
  std::string Line;
  const std::string Tag = "\"benchmark\": \"";
  while (std::getline(In, Line)) {
    size_t P = Line.find(Tag);
    if (P == std::string::npos)
      continue;
    P += Tag.size();
    Row R;
    R.Name = Line.substr(P, Line.find('"', P) - P);
    R.Pbo = Line.find("\"pbo\": true") != std::string::npos;
    R.Types = rowField(Line, "types");
    R.Transformed = rowField(Line, "transformed");
    R.SplitDead = rowField(Line, "split_dead");
    R.BaseCycles = rowField(Line, "base_cycles");
    R.OptCycles = rowField(Line, "opt_cycles");
    R.BaseMisses = rowField(Line, "base_misses");
    R.OptMisses = rowField(Line, "opt_misses");
    Rows.push_back(R);
  }
  return Rows;
}

/// The runtime.vm span category: the three hand-written kernels by name,
/// the nine generated programs together.
const char *programGroup(const Workload &W) {
  bool Kernel =
      W.Name == "181.mcf" || W.Name == "moldyn" || W.Name == "179.art";
  return Kernel ? W.Name.c_str() : "generated";
}

/// One simulator run with the Table 3 harness's settings (the scaled
/// Itanium hierarchy), the engine fixed to the VM rather than taken from
/// SLO_ENGINE.
RunResult simulate(const Module &M,
                   const std::map<std::string, int64_t> &Params,
                   FeedbackFile *Profile, bool Cache) {
  RunOptions O;
  O.IntParams = Params;
  O.Cache = CacheConfig::scaledItanium();
  O.Profile = Profile;
  O.SimulateCache = Cache;
  O.Engine = ExecEngine::VM;
  return runProgram(M, std::move(O));
}

/// The set-up: the 12 base programs, compiled (each module is destroyed
/// before its context).
struct Programs {
  std::vector<std::unique_ptr<IRContext>> Contexts;
  std::vector<std::unique_ptr<Module>> Modules;
};

std::unique_ptr<Programs> compileAll() {
  auto P = std::make_unique<Programs>();
  for (const Workload &W : allWorkloads()) {
    P->Contexts.push_back(std::make_unique<IRContext>());
    P->Modules.push_back(
        compileProgramOrDie(*P->Contexts.back(), W.Name, W.Sources));
  }
  return P;
}

/// A finished run, kept for the cache-off replay.
struct SimRun {
  const Workload *W = nullptr;
  /// Null for a training run: its module has been transformed since.
  const Module *M = nullptr;
  RunResult Result;
};

/// One pass: 28 runs and 14 one-shot rows.
struct Pass {
  double WallMs = 0;
  double SimMs = 0;
  double OneshotMs = 0;
  uint64_t Instructions = 0, Accesses = 0, L1Misses = 0;
  std::vector<SimRun> Runs;
  /// The optimized programs, alive for the cache-off replay.
  Programs Optimized;
};

/// Runs one pass. With a tracer, the one-shot path is the layer-by-layer
/// replay and every run gets a runtime.vm span.
void runPass(const Programs &Base, const std::vector<Row> &Expected,
             Tracer *T, LayerCounts &C, OpLedger &Ops, Pass &P) {
  auto PassStart = Clock::now();
  auto Sim = [&](const Workload &W, const Module &M, bool Train,
                 FeedbackFile *Profile) {
    auto T0 = Clock::now();
    RunResult R;
    {
      TraceSpan S(T, "runtime.vm", programGroup(W));
      R = simulate(M, Train ? W.TrainParams : W.RefParams, Profile, true);
    }
    P.SimMs += msSince(T0);
    P.Instructions += R.Instructions;
    P.Accesses += R.Loads + R.Stores;
    P.L1Misses += R.FirstLevelMisses;
    Ops.record(!R.Trapped, W.Name + " trapped: " + R.TrapReason);
    P.Runs.push_back({&W, Train ? nullptr : &M, R});
    return R;
  };

  const std::vector<Workload> &Ws = allWorkloads();
  size_t RowIdx = 0;
  for (size_t I = 0; I < Ws.size(); ++I) {
    const Workload &W = Ws[I];
    RunResult BaseRun = Sim(W, *Base.Modules[I], false, nullptr);
    bool BothModes = W.Name == "181.mcf" || W.Name == "moldyn";
    for (int Pbo = 0; Pbo <= (BothModes ? 1 : 0); ++Pbo, ++RowIdx) {
      // The one-shot path (slo_driver): compile, then the pipeline. A PBO
      // row's training run sits between the two and is simulator time.
      auto T0 = Clock::now();
      P.Optimized.Contexts.push_back(std::make_unique<IRContext>());
      IRContext &Ctx = *P.Optimized.Contexts.back();
      std::string Error;
      std::vector<std::string> Diags;
      std::unique_ptr<Module> M =
          T ? replayCompileProgram(Ctx, W.Name, W.Sources, T, C, Error)
            : compileProgram(Ctx, W.Name, W.Sources, Diags);
      double CompileMs = msSince(T0);
      if (!M) {
        Ops.record(false, W.Name + " does not compile: " +
                              (T || Diags.empty() ? Error : Diags.front()));
        continue;
      }
      if (T)
        C.IrInstructions += countInstructions(*M);
      FeedbackFile Train;
      if (Pbo)
        Sim(W, *M, true, &Train);
      PipelineOptions Opts;
      Opts.Scheme = Pbo ? WeightScheme::PBO : WeightScheme::ISPBO;
      T0 = Clock::now();
      PipelineResult PR =
          T ? replayPipeline(*M, Opts, Pbo ? &Train : nullptr, T, C)
            : runStructLayoutPipeline(*M, Opts, Pbo ? &Train : nullptr);
      P.OneshotMs += CompileMs + msSince(T0);
      C.TypesTransformed += PR.Summary.TypesTransformed;

      RunResult Opt = Sim(W, *M, false, nullptr);
      Row Got{W.Name,
              Pbo != 0,
              PR.Legality.types().size(),
              PR.Summary.TypesTransformed,
              PR.Summary.FieldsSplitOrDead,
              BaseRun.Cycles,
              Opt.Cycles,
              BaseRun.FirstLevelMisses,
              Opt.FirstLevelMisses};
      bool SameRow = RowIdx < Expected.size() && Got == Expected[RowIdx];
      bool SameOutput = Opt.PrintedInts == BaseRun.PrintedInts &&
                        Opt.PrintedFloats == BaseRun.PrintedFloats;
      Ops.record(SameRow && SameOutput,
                 W.Name + (Pbo ? " (PBO)" : "") +
                     (SameRow ? "" : ": row differs from the baseline") +
                     (SameOutput ? "" : ": optimized run prints otherwise"));
      P.Optimized.Modules.push_back(std::move(M));
    }
  }
  if (RowIdx != Expected.size())
    Ops.record(false, "Table 3 has " + std::to_string(RowIdx) +
                          " rows, the baseline " +
                          std::to_string(Expected.size()));
  P.WallMs = msSince(PassStart);
}

/// Reruns every run of \p P with SimulateCache=false: the time left is
/// dispatch alone, and the values printed and the instructions executed
/// must not change.
void replayWithoutCache(const Pass &P, Tracer &T, OpLedger &Ops) {
  for (const SimRun &Run : P.Runs) {
    const Workload &W = *Run.W;
    std::unique_ptr<IRContext> Ctx;
    std::unique_ptr<Module> Fresh;
    const Module *M = Run.M;
    if (!M) { // A training run: recompile the program it trained.
      Ctx = std::make_unique<IRContext>();
      Fresh = compileProgramOrDie(*Ctx, W.Name, W.Sources);
      M = Fresh.get();
    }
    FeedbackFile Profile;
    RunResult R;
    {
      TraceSpan S(&T, "runtime.nocache");
      R = simulate(*M, Run.M ? W.RefParams : W.TrainParams,
                   Run.M ? nullptr : &Profile, false);
    }
    Ops.record(!R.Trapped && R.Instructions == Run.Result.Instructions &&
                   R.PrintedInts == Run.Result.PrintedInts &&
                   R.PrintedFloats == Run.Result.PrintedFloats,
               W.Name + ": the cache-off run differs from the cache-on run");
  }
}

} // namespace

int runSimTable3(const Config &Cfg, Report &R) {
  std::string BaselinePath =
      Cfg.RepoRoot + "/bench/baselines/BENCH_table3.json";
  std::vector<Row> Expected = loadBaseline(BaselinePath);
  if (Expected.empty()) {
    std::fprintf(stderr, "perfbench: no Table 3 rows in %s\n",
                 BaselinePath.c_str());
    return 1;
  }

  std::unique_ptr<Programs> Base;
  std::vector<double> SetupMs = repeatSetup([&] {
    Base.reset();
    Base = compileAll();
  });

  if (!Cfg.Trace) {
    // The samples are whole passes: single runs and rows differ by 100x
    // from program to program, so their percentiles would pick a
    // different program whenever the number of passes changes.
    std::vector<double> Throughput, SimMs, OneshotMs;
    LayerCounts Unused;
    unsigned Passes = repeatFor(Cfg.Seconds, [&] {
      Pass P;
      runPass(*Base, Expected, nullptr, Unused, R.Ops, P);
      Throughput.push_back(ratio(static_cast<double>(P.Instructions),
                                 P.SimMs / 1000.0));
      SimMs.push_back(P.SimMs);
      OneshotMs.push_back(P.OneshotMs);    });
    say("  passes                   %u (28 simulator runs, 14 one-shot rows "
        "each)",
        Passes);
    say("  simulated instructions   %.4g per host second (median pass)",
        median(Throughput));
    R.metric("setup_s", median(SetupMs) / 1000.0, "s");
    R.metric("throughput_per_s", median(Throughput), "1/s");
    R.latency("primary", "sim.wall (28 runs)", SimMs);
    R.latency("secondary", "oneshot (14 rows)", OneshotMs);
    return 0;
  }

  repeatFor(Cfg.Seconds, [&] {
    // The same pass untraced, traced, and cache-off.
    LayerCounts Unused;
    Pass U;
    runPass(*Base, Expected, nullptr, Unused, R.Ops, U);
    Tracer T;
    LayerCounts C;
    Pass P;
    {
      TraceSpan Leg(&T, "leg.table3");
      runPass(*Base, Expected, &T, C, R.Ops, P);
    }
    SpanTimes S = selfTimes(T);
    R.spans(S, true);
    Tracer NoCache;
    replayWithoutCache(P, NoCache, R.Ops);
    SpanTimes N = selfTimes(NoCache);
    R.spans(N, false);
    R.layer("runtime.cachesim_ms",
            S.get("runtime.vm_ms") - N.get("runtime.nocache_ms"));
    R.layer("runtime.minstr_per_s",
            ratio(static_cast<double>(U.Instructions) / 1e6, U.SimMs / 1000.0));
    R.layer("runtime.instructions", static_cast<double>(P.Instructions));
    R.layer("runtime.accesses", static_cast<double>(P.Accesses));
    R.layer("runtime.l1_miss_events", static_cast<double>(P.L1Misses));
    R.layer("ir.instructions", static_cast<double>(C.IrInstructions));
    R.layer("analysis.pointsto_cells", static_cast<double>(C.PointsToCells));
    R.layer("transform.types_transformed",
            static_cast<double>(C.TypesTransformed));
    R.layer("frontend.tokens_per_s",
            ratio(static_cast<double>(C.Tokens),
                  S.get("frontend.lex_ms") / 1000.0));
    R.layer("trace.overhead", ratio(S.LegMs, U.WallMs) - 1.0);
  });
  return 0;
}

} // namespace perfbench
