//===- perfbench/main.cpp - Benchmark entry point -------------------------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
// Runs one workload and prints its report: the machine and build first,
// then the workload's own lines, then one JSON line
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). run.py builds
// and invokes it; see NOTES.md.
//
//   slo_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --threads T --readers R --work-dir DIR --repo-root DIR
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;

namespace {

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t P = Line.find(": ");
      return P == std::string::npos ? Line : Line.substr(P + 2);
    }
  return "unknown";
}

double peakRssMib() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux.
}

bool parseArgs(int Argc, char **Argv, Config &C) {
  std::map<std::string, std::string> Args;
  if (Argc % 2 == 0)
    return false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    if (std::strncmp(Argv[I], "--", 2) != 0)
      return false;
    Args[Argv[I] + 2] = Argv[I + 1];
  }
  const char *Keys[] = {"workload", "seed",    "seconds",  "trace",
                        "threads",  "readers", "work-dir", "repo-root"};
  for (const char *K : Keys)
    if (!Args.count(K))
      return false;
  if (Args.size() != std::size(Keys))
    return false;
  C.Workload = Args["workload"];
  C.Seed = std::strtoull(Args["seed"].c_str(), nullptr, 10);
  C.Seconds = std::strtod(Args["seconds"].c_str(), nullptr);
  C.Trace = Args["trace"] == "1";
  C.Threads = static_cast<unsigned>(std::strtoul(Args["threads"].c_str(),
                                                 nullptr, 10));
  C.Readers = static_cast<unsigned>(std::strtoul(Args["readers"].c_str(),
                                                 nullptr, 10));
  C.WorkDir = Args["work-dir"];
  C.RepoRoot = Args["repo-root"];
  return C.Seconds > 0 && C.Threads > 0 && C.Readers > 0 &&
         (Args["trace"] == "0" || Args["trace"] == "1");
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  if (!parseArgs(Argc, Argv, C)) {
    std::fprintf(stderr,
                 "usage: slo_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --threads T --readers R --work-dir DIR "
                 "--repo-root DIR\n");
    return 2;
  }
  int (*Run)(const Config &, Report &) =
      C.Workload == "sim_table3"      ? runSimTable3
      : C.Workload == "advise_corpus" ? runAdviseCorpus
      : C.Workload == "serve_mixed"   ? runServeMixed
                                      : nullptr;
  if (!Run) {
    std::fprintf(stderr, "slo_perfbench: unknown workload '%s'\n",
                 C.Workload.c_str());
    return 2;
  }

#ifdef __clang__
  const char *Compiler = "clang " __clang_version__;
#else
  const char *Compiler = "gcc " __VERSION__;
#endif
#ifdef NDEBUG
  const char *Assertions = "off";
#else
  const char *Assertions = "on";
#endif
  say("perfbench %s: seed %llu, %g s, trace %d", C.Workload.c_str(),
      static_cast<unsigned long long>(C.Seed), C.Seconds, C.Trace ? 1 : 0);
  say("machine: nproc %ld, cpu %s", sysconf(_SC_NPROCESSORS_ONLN),
      cpuModel().c_str());
  say("build: %s, %s, assertions %s; engine vm, 1 simulator worker, %u "
      "advice threads, %u readers, 1 writer",
      Compiler, PERFBENCH_BUILD_TYPE, Assertions, C.Threads, C.Readers);

  Report R;
  if (int Rc = Run(C, R))
    return Rc;

  std::vector<Report::Metric> Metrics = C.Trace ? R.layerMetrics() : R.metrics();
  if (!C.Trace)
    Metrics.push_back({"peak_rss_mib", peakRssMib(), "MiB"});
  std::string Json = std::string("{\"correct\": ") +
                     (R.Ops.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Ops.attempted()) +
                     ", \"failed\": " + std::to_string(R.Ops.failed()) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Report::Metric &M = Metrics[I];
    if (C.Trace)
      say("  %-30s %16.6g %s", M.Name.c_str(), M.Value, M.Unit.c_str());
    char Value[40];
    std::snprintf(Value, sizeof Value, "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Json += std::string(I ? ", " : "") + "\"" + M.Name + "\": {\"value\": " +
            Value + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
