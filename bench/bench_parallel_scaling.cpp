//===- bench/bench_parallel_scaling.cpp - Parallel engine scaling ---------===//
//
// Measures the parallel analysis engine: analysis time and speedup vs
// worker count for
//
//  (i)  Bayesian inference, where the parallel win is concurrent
//       transformer precompilation plus the block-parallel dense-matrix
//       kernels (the shared pool), and
//  (ii) ADD-backed Bayesian inference under the parallel per-SCC
//       scheduler, where workers hash-cons in thread-local arena managers
//       and publish results through canonical migration into the shared
//       home manager (the rename-and-merge protocol of
//       domains/AddBiDomain.cpp), and
//  (iii) LEIA under the parallel per-SCC scheduler
//       (IterationStrategy::ParallelScc), where independent strongly
//       connected components of the dependence graph stabilize
//       concurrently, and
//  (iv) the ladder-retention family (LADDER): the hottest ladder-backed
//       LEIA programs (coupon5, eg, eg-tail) under parallel-scc, scored
//       as *retention* — Seconds[jobs=1] / Seconds[jobs=J] — and
//       *asserted*: every jobs>=2 row must retain at least 0.8x of the
//       jobs=1 wall time (equivalently, run within 1.25x of it), i.e. the
//       ladder's sequential win must survive the move to the parallel
//       scheduler. The component->worker affinity keeps the thread-local
//       conversion memos hot, and the sharded L2 conversion cache catches
//       the stolen components; a retention below the floor exits nonzero,
//       so CI can smoke this family alone via `--family=ladder`.
//
// `--family=<bi|addbi|leia|ladder>` restricts the run to one family
// (default: all).
//
// Speedup is reported relative to the same configuration at one job.
// The parallel schedule is deterministic — its fixpoints are
// bit-identical to the sequential ones (tests/SchedulerParityTest.cpp) —
// so the comparison is purely about wall clock. Actual speedup is bounded
// by the hardware thread count of the machine (printed in the header;
// job counts beyond it measure oversubscription overhead only) and by
// how much cross-SCC parallelism the benchmark programs expose.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/AddBiDomain.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>
#include <string_view>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

constexpr unsigned JobCounts[] = {1, 2, 4, 8};

/// The LADDER family's floor: every jobs>=2 row must keep at least this
/// fraction of the jobs=1 ladder wall time (0.8x retention == within
/// 1.25x of the jobs=1 time per fixpoint).
constexpr double MinLadderRetention = 0.8;

/// The ladder-backed LEIA programs the LADDER retention family asserts
/// on — the programs whose sequential ladder win motivated the
/// locality-aware pool in the first place.
constexpr const char *LadderFamilyPrograms[] = {"coupon5", "eg", "eg-tail"};

struct ScalingRow {
  double Seconds[4] = {0, 0, 0, 0};
  SolverStats Stats[4];
};

/// Times one (program, jobs) configuration; the shared pool is resized to
/// match so the matrix kernels see the same parallelism as the solver.
template <typename AnalyzeFn>
ScalingRow measure(AnalyzeFn &&Analyze) {
  ScalingRow Row;
  for (size_t J = 0; J != std::size(JobCounts); ++J) {
    support::setSharedParallelism(JobCounts[J]);
    Row.Stats[J] = Analyze(JobCounts[J]).Stats;
    // 3 runs (median survives the trim): the 4 job counts quadruple the
    // measurement matrix relative to the single-configuration benches.
    Row.Seconds[J] =
        bench::timedTrimmedMean([&] { Analyze(JobCounts[J]); }, 3);
  }
  support::setSharedParallelism(1);
  return Row;
}

void printRow(const char *Family, const char *Name, const ScalingRow &Row,
              bench::JsonEmitter &Json) {
  std::printf("%-6s %-14s", Family, Name);
  for (size_t J = 0; J != std::size(JobCounts); ++J) {
    double Speedup = Row.Seconds[J] > 0.0 && Row.Seconds[0] > 0.0
                         ? Row.Seconds[0] / Row.Seconds[J]
                         : 1.0;
    std::printf(" %9.4f %5.2fx", Row.Seconds[J], Speedup);
    char RecordName[128];
    std::snprintf(RecordName, sizeof(RecordName), "%s/%s/jobs=%u", Family,
                  Name, JobCounts[J]);
    Json.add(bench::solverRecord(RecordName, Row.Seconds[J], Row.Stats[J]));
  }
  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = bench::extractJsonPath(argc, argv);
  std::string Family = bench::extractStringFlag(argc, argv, "--family=");
  auto Want = [&Family](const char *F) {
    return Family.empty() || Family == F;
  };
  if (!Family.empty() && !Want("bi") && !Want("addbi") && !Want("leia") &&
      !Want("ladder")) {
    std::fprintf(stderr,
                 "error: unknown --family=%s (expected bi, addbi, leia, "
                 "or ladder)\n",
                 Family.c_str());
    return 1;
  }
  bench::JsonEmitter Json;

  std::printf("Parallel-engine scaling: analysis time vs --jobs "
              "(%u hardware threads)\n",
              support::ThreadPool::hardwareConcurrency());
  bench::printRule(100);
  std::printf("%-6s %-14s", "family", "program");
  for (unsigned Jobs : JobCounts)
    std::printf("   jobs=%-2u speedup", Jobs);
  std::printf("\n");
  bench::printRule(100);

  // (i) BI: precompilation and the dense kernels parallelize; the
  // WTO-recursive schedule itself stays sequential.
  if (Want("bi"))
    for (const auto &Bench : benchmarks::biPrograms()) {
      auto Prog = lang::parseProgramOrDie(Bench.Source);
      cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
      BoolStateSpace Space(*Prog);
      BiDomain Dom(Space);
      ScalingRow Row = measure([&](unsigned Jobs) {
        SolverOptions Opts;
        Opts.UseWidening = false;
        Opts.Jobs = Jobs;
        BiDomain Copy = Dom;
        return solve(Graph, Copy, Opts);
      });
      printRow("BI", Bench.Name, Row, Json);
    }

  // (ii) ADD-backed BI under the parallel per-SCC scheduler: each run
  // gets a fresh domain (and hence a fresh home manager), so the timing
  // includes the full import/export migration traffic of the arenas.
  if (Want("addbi"))
    for (const auto &Bench : benchmarks::biPrograms()) {
      auto Prog = lang::parseProgramOrDie(Bench.Source);
      cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
      BoolStateSpace Space(*Prog);
      ScalingRow Row = measure([&](unsigned Jobs) {
        AddBiDomain Dom(Space);
        SolverOptions Opts;
        Opts.UseWidening = false;
        Opts.Strategy = IterationStrategy::ParallelScc;
        Opts.Jobs = Jobs;
        return solve(Graph, Dom, Opts);
      });
      printRow("ADDBI", Bench.Name, Row, Json);
    }

  // (iii) LEIA under the parallel per-SCC scheduler: procedures and
  // independent loop nests stabilize concurrently.
  if (Want("leia"))
    for (const auto &Bench : benchmarks::leiaPrograms()) {
      auto Prog = lang::parseProgramOrDie(Bench.Source);
      cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
      ScalingRow Row = measure([&](unsigned Jobs) {
        LeiaDomain Dom(*Prog);
        SolverOptions Opts;
        Opts.Strategy = IterationStrategy::ParallelScc;
        Opts.Jobs = Jobs;
        return solve(Graph, Dom, Opts);
      });
      printRow("LEIA", Bench.Name, Row, Json);
    }

  // (iv) The ladder-retention assertion: the same measurement as (iii) on
  // the hottest ladder programs, but the "speedup" column — which for
  // this family reads as retention, Seconds[jobs=1] / Seconds[J] — is a
  // hard floor. Affinity keeps a component's conversions in its owning
  // worker's thread-local memo, and the sharded L2 backstops steals, so
  // multi-worker rows must stay within 1.25x of the jobs=1 wall time;
  // a colder-than-0.8x row fails the binary.
  unsigned RetentionFailures = 0;
  if (Want("ladder"))
    for (const auto &Bench : benchmarks::leiaPrograms()) {
      if (std::none_of(std::begin(LadderFamilyPrograms),
                       std::end(LadderFamilyPrograms),
                       [&Bench](const char *Name) {
                         return Bench.Name == std::string_view(Name);
                       }))
        continue;
      auto Prog = lang::parseProgramOrDie(Bench.Source);
      cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
      ScalingRow Row = measure([&](unsigned Jobs) {
        LeiaDomain Dom(*Prog);
        SolverOptions Opts;
        Opts.Strategy = IterationStrategy::ParallelScc;
        Opts.Jobs = Jobs;
        return solve(Graph, Dom, Opts);
      });
      printRow("LADDER", Bench.Name, Row, Json);
      for (size_t J = 1; J != std::size(JobCounts); ++J) {
        if (Row.Seconds[0] <= 0.0 || Row.Seconds[J] <= 0.0)
          continue;
        double Retention = Row.Seconds[0] / Row.Seconds[J];
        if (Retention < MinLadderRetention) {
          std::fprintf(stderr,
                       "FAIL: LADDER/%s jobs=%u retains only %.2fx of the "
                       "jobs=1 ladder wall time (floor %.2fx): %.4fs vs "
                       "%.4fs\n",
                       Bench.Name, JobCounts[J], Retention,
                       MinLadderRetention, Row.Seconds[J], Row.Seconds[0]);
          ++RetentionFailures;
        }
      }
    }

  bench::printRule(100);
  std::printf("\n");
  if (!Json.writeTo(JsonPath))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath.c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (RetentionFailures) {
    std::fprintf(stderr,
                 "%u LADDER row(s) below the %.2fx retention floor\n",
                 RetentionFailures, MinLadderRetention);
    return 1;
  }
  return 0;
}
