//===- bench/bench_iteration_strategy.cpp - Iteration-strategy ablation ---===//
//
// The framework advertises that it supplies "efficient iteration
// strategies with widenings" (§1): the solver follows Bourdoncle's
// recursive strategy over the weak topological order. This ablation
// compares it against the other two schedulers of core/Schedule.h — a
// naive round-robin sweep and the dependency-driven worklist — on the
// benchmark programs, counting node updates in the solver's stats. Same
// fixpoints (tests/SchedulerParityTest.cpp), different work.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

template <PreMarkovAlgebra D>
SolverStats runWith(const cfg::ProgramGraph &Graph, D &Dom,
                    IterationStrategy Strategy, SolverOptions Base) {
  Base.Strategy = Strategy;
  return solve(Graph, Dom, Base).Stats;
}

template <PreMarkovAlgebra D>
void printRow(const char *Program, const char *Domain,
              const cfg::ProgramGraph &Graph, D &Dom,
              const SolverOptions &Opts) {
  SolverStats Wto = runWith(Graph, Dom, IterationStrategy::WtoRecursive, Opts);
  SolverStats RoundRobin =
      runWith(Graph, Dom, IterationStrategy::RoundRobin, Opts);
  SolverStats Worklist = runWith(Graph, Dom, IterationStrategy::Worklist, Opts);
  std::printf("%-18s %-6s | %10llu | %10llu | %10llu | %6.2fx | %6.2fx\n",
              Program, Domain,
              static_cast<unsigned long long>(Wto.NodeUpdates),
              static_cast<unsigned long long>(RoundRobin.NodeUpdates),
              static_cast<unsigned long long>(Worklist.NodeUpdates),
              static_cast<double>(RoundRobin.NodeUpdates) /
                  static_cast<double>(Wto.NodeUpdates),
              static_cast<double>(Worklist.NodeUpdates) /
                  static_cast<double>(Wto.NodeUpdates));
}

} // namespace

int main(int argc, char **argv) {
  std::printf("Iteration-strategy ablation: Bourdoncle WTO-recursive vs "
              "round-robin vs worklist\n");
  bench::printRule(86);
  std::printf("%-18s %-6s | %10s | %10s | %10s | %7s | %7s\n", "program",
              "domain", "WTO upd", "RR upd", "WL upd", "RR/WTO",
              "WL/WTO");
  bench::printRule(86);

  for (const auto &Bench : benchmarks::biPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    BoolStateSpace Space(*Prog);
    BiDomain Dom(Space);
    SolverOptions Opts;
    Opts.UseWidening = false;
    printRow(Bench.Name, "BI", Graph, Dom, Opts);
  }
  for (const auto &Bench : benchmarks::mdpPrograms()) {
    auto Prog = lang::parseProgramOrDie(Bench.Source);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    MdpDomain Dom;
    SolverOptions Opts;
    Opts.WideningDelay = 10000;
    printRow(Bench.Name, "MDP", Graph, Dom, Opts);
  }
  bench::printRule(86);
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
