//===- bench/bench_newton_vs_kleene.cpp - PReMo solver comparison ---------===//
//
// Reproduces the convergence-speed contrast underlying PReMo (the §6.2
// comparison tool): Newton's method vs Kleene iteration on the monotone
// polynomial equation systems of the benchmark models. For each system and
// each target tolerance the series reports the iteration counts of both
// solvers — the "figure" behind recursive-Markov-chain solving (Etessami &
// Yannakakis).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baselines/PolySystem.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

#include <cmath>

using namespace pmaf;
using namespace pmaf::baselines;

namespace {

struct NamedSystem {
  std::string Name;
  PolySystem Sys;
};

std::vector<NamedSystem> buildSystems() {
  std::vector<NamedSystem> Systems;

  // Reward systems of the polynomial-friendly Table 2 MDP models (the
  // ndet-free ones, so Newton applies).
  for (const char *Name : {"binary10", "loop", "quicksort7", "recursive"}) {
    for (const auto &Bench : benchmarks::mdpPrograms()) {
      if (std::string(Bench.Name) != Name)
        continue;
      auto Prog = lang::parseProgramOrDie(Bench.Source);
      cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
      Systems.push_back(
          {std::string("reward/") + Name,
           rewardSystem(Graph, NdetResolution::Max)});
    }
  }

  // Termination probability of the transient branching process
  // x = 1/3 + 2/3 x^2 (lfp 1/2) and of the *critical* process
  // x = 1/2 + 1/2 x^2 (lfp 1), where Kleene degrades to Theta(1/eps)
  // iterations while Newton stays logarithmic.
  {
    PolySystem Sys;
    auto X = Sys.variable(0);
    Sys.addEquation(Sys.add(
        Sys.constant(1.0 / 3),
        Sys.mul(Sys.constant(2.0 / 3), Sys.mul(X, Sys.variable(0)))));
    Systems.push_back({"termination/transient", std::move(Sys)});
  }
  {
    PolySystem Sys;
    auto X = Sys.variable(0);
    Sys.addEquation(Sys.add(
        Sys.constant(0.5),
        Sys.mul(Sys.constant(0.5), Sys.mul(X, Sys.variable(0)))));
    Systems.push_back({"termination/critical", std::move(Sys)});
  }
  return Systems;
}

} // namespace

int main(int argc, char **argv) {
  std::printf("PReMo-style solvers: Newton vs Kleene iterations to reach "
              "tolerance\n");
  bench::printRule(78);
  std::printf("%-24s %10s %12s %12s %14s\n", "system", "tolerance",
              "Kleene-iters", "Newton-iters", "|K - N| value");
  bench::printRule(78);
  for (NamedSystem &Entry : buildSystems()) {
    for (double Tolerance : {1e-3, 1e-6, 1e-9, 1e-12}) {
      PolySystem::Stats KleeneStats, NewtonStats;
      auto K = Entry.Sys.solveKleene(Tolerance, 100000000, &KleeneStats);
      auto N = Entry.Sys.solveNewton(Tolerance, 200, &NewtonStats);
      double MaxDiff = 0.0;
      for (size_t I = 0; I != K.size(); ++I)
        MaxDiff = std::max(MaxDiff, std::fabs(K[I] - N[I]));
      std::printf("%-24s %10.0e %12u %12u %14.2e%s\n", Entry.Name.c_str(),
                  Tolerance, KleeneStats.Iterations, NewtonStats.Iterations,
                  MaxDiff,
                  KleeneStats.Converged ? "" : "  (Kleene capped)");
    }
  }
  bench::printRule(78);
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
