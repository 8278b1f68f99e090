//===- perfbench/Replay.h - Layer-by-layer replays -------------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's replays: compileMiniC, compileProgram,
/// runStructLayoutPipeline and runIncrementalAdvice rebuilt from the
/// public calls they make, one span per call, so each layer's time is
/// measured where it is spent. Every replay is checked against the
/// library call it mirrors. With a null tracer the spans are inert.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_PERFBENCH_REPLAY_H
#define SLO_PERFBENCH_REPLAY_H

#include "Bench.h"

#include "pipeline/Incremental.h"
#include "pipeline/Pipeline.h"

#include <memory>
#include <string>
#include <vector>

namespace slo {
class FeedbackFile;
class IRContext;
class Module;
} // namespace slo

namespace perfbench {

/// compileMiniC: lex, parse, IRGen and verify. Null on error, with
/// \p Error set.
std::unique_ptr<slo::Module> replayCompileTu(slo::IRContext &Ctx,
                                             const std::string &Name,
                                             const std::string &Source,
                                             slo::Tracer *T, LayerCounts &C,
                                             std::string &Error);

/// compileProgram: every TU as above, then link and verify.
std::unique_ptr<slo::Module>
replayCompileProgram(slo::IRContext &Ctx, const std::string &Name,
                     const std::vector<std::string> &Sources, slo::Tracer *T,
                     LayerCounts &C, std::string &Error);

/// runStructLayoutPipeline.
slo::PipelineResult replayPipeline(slo::Module &M,
                                   const slo::PipelineOptions &Opts,
                                   const slo::FeedbackFile *Train,
                                   slo::Tracer *T, LayerCounts &C);

/// runIncrementalAdvice with default options, serially.
slo::IncrementalResult
replayIncremental(const std::vector<slo::TuSource> &TUs,
                  const std::string &CacheDir, slo::Tracer *T, LayerCounts &C);

/// Same TypePlans: record name, kind, field lists and reason.
bool samePlans(const std::vector<slo::TypePlan> &A,
               const std::vector<slo::TypePlan> &B);

/// IR instructions in \p M.
uint64_t countInstructions(const slo::Module &M);

} // namespace perfbench

#endif // SLO_PERFBENCH_REPLAY_H
