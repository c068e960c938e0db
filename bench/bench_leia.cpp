//===- bench/bench_leia.cpp - Table 1: expectation-invariant analysis -----===//
//
// Regenerates Table 1 of the paper: for each of the 13 LEIA benchmarks,
// the derived linear expectation invariants, the program size, recursion
// kind, number of call sites, and the 20%-trimmed-mean analysis time.
//
// Flags (beyond google-benchmark's own):
//   --numeric=poly|ladder|zones|intervals  numeric backend (default ladder)
//   --programs=a,b,c                       run only the named benchmarks
//   --json=<path>                          write BENCH_*.json records
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/LeiaDomain.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

#include <type_traits>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

/// Resolved --numeric backend; set once in main.
NumericBackend BenchNumeric = NumericBackend::Ladder;

/// Names from --programs= (empty = run everything).
std::vector<std::string> ProgramFilter;

bool wantProgram(const char *Name) {
  if (ProgramFilter.empty())
    return true;
  for (const std::string &Want : ProgramFilter)
    if (Want == Name)
      return true;
  return false;
}

template <poly::NumericDomain NumV>
AnalysisResult<LeiaValueT<NumV>> analyzeOnce(const cfg::ProgramGraph &Graph,
                                             const lang::Program &Prog) {
  LeiaDomainT<NumV> Dom(Prog);
  SolverOptions Opts;
  Opts.WideningDelay = 2;
  Opts.Numeric = BenchNumeric;
  return solve(Graph, Dom, Opts);
}

/// Calls \p Fn with std::type_identity<NumV> for the selected backend.
template <typename F> decltype(auto) withBackend(F &&Fn) {
  switch (BenchNumeric) {
  case NumericBackend::Poly:
    return Fn(std::type_identity<poly::Polyhedron>{});
  case NumericBackend::Zones:
    return Fn(std::type_identity<poly::Zones>{});
  case NumericBackend::Intervals:
    return Fn(std::type_identity<poly::Intervals>{});
  case NumericBackend::Ladder:
    break;
  }
  return Fn(std::type_identity<poly::LadderValue>{});
}

void registerTimingBenchmarks() {
  for (const auto &Bench : benchmarks::leiaPrograms()) {
    if (!wantProgram(Bench.Name))
      continue;
    benchmark::RegisterBenchmark(
        (std::string("LEIA/") + Bench.Name).c_str(),
        [Source = Bench.Source](benchmark::State &State) {
          auto Prog = lang::parseProgramOrDie(Source);
          cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
          for (auto _ : State)
            withBackend([&]<typename NumV>(std::type_identity<NumV>) {
              benchmark::DoNotOptimize(analyzeOnce<NumV>(Graph, *Prog));
            });
        })
        ->Unit(benchmark::kMillisecond);
  }
}

int runTable(const std::string &JsonPath) {
  bench::JsonEmitter Json;
  std::printf("Table 1: linear expectation-invariant analysis (§5.3)\n");
  std::printf("numeric backend: %s\n", toString(BenchNumeric));
  bench::printRule(78);
  std::printf("%-14s %5s %4s %6s %9s  %s\n", "program", "#loc", "rec",
              "#call", "time(s)", "expectation invariants");
  bench::printRule(78);
  for (const auto &Bench : benchmarks::leiaPrograms()) {
    if (!wantProgram(Bench.Name))
      continue;
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    // Per-program peak counters (generator rows, pack width): the solver
    // reports process-wide peaks, so reset them before the measured run.
    poly::resetNumericPeaks();
    withBackend([&]<typename NumV>(std::type_identity<NumV>) {
      AnalysisResult<LeiaValueT<NumV>> Result =
          analyzeOnce<NumV>(Graph, *Prog);
      double Seconds =
          bench::timedTrimmedMean([&] { analyzeOnce<NumV>(Graph, *Prog); });
      Json.add(bench::solverRecord(Bench.Name, Seconds, Result.Stats,
                                   toString(BenchNumeric)));
      LeiaDomainT<NumV> Dom(*Prog);
      unsigned Entry = Graph.proc(Prog->findProc("main")).Entry;
      std::vector<std::string> Invariants =
          Dom.describeInvariants(Result.Values[Entry]);
      std::printf("%-14s %5u %4c %6u %9.4f  ",
                  Bench.Name, benchmarks::countLoc(Bench.Source),
                  benchmarks::recursionKind(*Prog), Prog->countCalls(),
                  Seconds);
      if (Invariants.empty()) {
        std::printf("(none)\n");
      } else {
        std::printf("%s\n", Invariants[0].c_str());
        for (size_t I = 1; I != Invariants.size(); ++I)
          std::printf("%*s%s\n", 43, "", Invariants[I].c_str());
      }
      if (!Result.Stats.Converged)
        std::printf("%*s(did not converge!)\n", 43, "");
    });
  }
  bench::printRule(78);
  std::printf("\n");
  if (!Json.writeTo(JsonPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = bench::extractJsonPath(argc, argv);
  std::string NumericArg =
      bench::extractStringFlag(argc, argv, "--numeric=");
  if (!NumericArg.empty()) {
    auto Parsed = parseNumericBackend(NumericArg);
    if (!Parsed) {
      std::fprintf(stderr,
                   "error: unknown --numeric backend '%s' "
                   "(expected poly, ladder, zones, or intervals)\n",
                   NumericArg.c_str());
      return 1;
    }
    BenchNumeric = *Parsed;
  }
  std::string ProgramsArg =
      bench::extractStringFlag(argc, argv, "--programs=");
  for (size_t Pos = 0; Pos < ProgramsArg.size();) {
    size_t Comma = ProgramsArg.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = ProgramsArg.size();
    if (Comma > Pos)
      ProgramFilter.push_back(ProgramsArg.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }

  if (int Failed = runTable(JsonPath))
    return Failed;

  registerTimingBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
