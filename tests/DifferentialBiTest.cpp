//===- tests/DifferentialBiTest.cpp - BI engines × schedulers × jobs ------===//
//
// The differential-testing harness for the parallel ADD-backed Bayesian
// inference path: every program — random programs across workload mixes
// (prob-heavy, ndet-heavy, call-heavy, mixed; tests/RandomProgramGen.h) and
// the full §6.2 BI benchmark suite — is solved under every combination of
//
//     {BiDomain, AddBiDomain} × {wto, parallel-scc} × jobs ∈ {1, 2, 8},
//
// and the posterior at main's entry under a fixed prior must be
//
//  * bit-identical across all six engine combinations within one domain
//    (the parallel determinism claim: per-SCC single-worker replay plus,
//    for the ADD backend, canonical migration through the home manager),
//  * equal to 1e-9 across the two domain representations (dense matrix
//    contraction vs ADD rename/multiply/sum-out accumulate in different
//    orders, so exact equality is not expected across domains).
//
// The harness also pins the engine actually going parallel: ThreadSafe
// domains asked for N jobs must report JobsUsed == N, and the ADD backend
// must show real migration traffic whenever transformers were precompiled
// on the pool.
//
//===----------------------------------------------------------------------===//

#include "RandomProgramGen.h"

#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/AddBiDomain.h"
#include "domains/BiDomain.h"
#include "lang/Ast.h"
#include "lang/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;
using namespace pmaf::lang;

namespace {

struct Combo {
  IterationStrategy Strategy;
  unsigned Jobs;
};

const Combo Combos[] = {
    {IterationStrategy::WtoRecursive, 1},
    {IterationStrategy::WtoRecursive, 2},
    {IterationStrategy::WtoRecursive, 8},
    {IterationStrategy::ParallelScc, 1},
    {IterationStrategy::ParallelScc, 2},
    {IterationStrategy::ParallelScc, 8},
};

std::vector<double> uniformPrior(const BoolStateSpace &Space) {
  return std::vector<double>(Space.numStates(),
                             1.0 / static_cast<double>(Space.numStates()));
}

/// Solves \p Graph over a fresh domain of type D under \p C and returns
/// the posterior at main's entry. Each combination gets its own domain
/// instance, so agreement also covers cross-instance determinism (nothing
/// leaks between runs through manager state).
template <typename D>
std::vector<double> runCombo(const Program &Prog,
                             const cfg::ProgramGraph &Graph,
                             const BoolStateSpace &Space, const Combo &C,
                             const std::string &Label) {
  D Dom(Space);
  SolverOptions Opts;
  Opts.UseWidening = false;
  Opts.Strategy = C.Strategy;
  Opts.Jobs = C.Jobs;
  auto Result = solve(Graph, Dom, Opts);
  EXPECT_TRUE(Result.Stats.Converged) << Label;
  // Both BI domains are ThreadSafeInterpret: asking for N workers must
  // actually deliver N workers (the sequential gate is gone).
  EXPECT_EQ(Result.Stats.JobsUsed, C.Jobs) << Label;
  if constexpr (std::is_same_v<D, AddBiDomain>) {
    if (C.Jobs > 1 && Result.Stats.PrecompiledTransformers > 0) {
      // The pooled precompile ran inside a parallel phase, so diagrams
      // must have crossed the home/arena boundary in both directions.
      EXPECT_GT(Dom.importedNodes(), 0u) << Label;
      EXPECT_GT(Dom.exportedNodes(), 0u) << Label;
      EXPECT_GE(Dom.arenasCreated(), 1u) << Label;
    }
  }
  unsigned Main = Prog.findProc("main");
  EXPECT_NE(Main, ~0u) << Label;
  if (Main == ~0u)
    return {};
  return Dom.posterior(Result.Values[Graph.proc(Main).Entry],
                       uniformPrior(Space));
}

/// The full differential check for one program.
void expectAllCombosAgree(const Program &Prog, const std::string &Name) {
  BoolStateSpace Space(Prog);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);

  std::vector<std::vector<double>> Dense, Compact;
  for (const Combo &C : Combos) {
    std::string Label = Name + " [" + toString(C.Strategy) +
                        ", jobs=" + std::to_string(C.Jobs) + "]";
    Dense.push_back(runCombo<BiDomain>(Prog, Graph, Space, C,
                                       "BiDomain " + Label));
    Compact.push_back(runCombo<AddBiDomain>(Prog, Graph, Space, C,
                                            "AddBiDomain " + Label));
  }

  for (size_t I = 1; I != Dense.size(); ++I)
    for (size_t S = 0; S != Dense[0].size(); ++S) {
      // Bitwise equality within each domain: scheduler and thread count
      // must not perturb the fixpoint at all.
      EXPECT_EQ(Dense[0][S], Dense[I][S])
          << Name << ": BiDomain combo " << I << ", state " << S;
      EXPECT_EQ(Compact[0][S], Compact[I][S])
          << Name << ": AddBiDomain combo " << I << ", state " << S;
    }
  for (size_t S = 0; S != Dense[0].size(); ++S)
    EXPECT_NEAR(Dense[0][S], Compact[0][S], 1e-9)
        << Name << ": dense vs ADD, state " << S;
}

void sweepConfig(const char *ConfigName, testgen::BoolGenConfig Config,
                 uint64_t Seed, int Rounds) {
  Rng R(Seed);
  for (int Round = 0; Round != Rounds; ++Round) {
    auto Prog = testgen::randomBoolProgram(R, Config);
    expectAllCombosAgree(*Prog,
                         std::string(ConfigName) + " round " +
                             std::to_string(Round));
  }
}

} // namespace

TEST(DifferentialBiTest, ProbHeavyRandomPrograms) {
  sweepConfig("prob-heavy", testgen::BoolGenConfig::probHeavy(),
              20260801, 6);
}

TEST(DifferentialBiTest, NdetHeavyRandomPrograms) {
  sweepConfig("ndet-heavy", testgen::BoolGenConfig::ndetHeavy(),
              20260802, 6);
}

TEST(DifferentialBiTest, CallHeavyRandomPrograms) {
  sweepConfig("call-heavy", testgen::BoolGenConfig::callHeavy(),
              20260803, 6);
}

TEST(DifferentialBiTest, MixedRandomPrograms) {
  sweepConfig("mixed", testgen::BoolGenConfig::mixed(), 20260804, 6);
}

TEST(DifferentialBiTest, BiBenchmarkSuite) {
  for (const benchmarks::BenchProgram &B : benchmarks::biPrograms()) {
    auto Prog = parseProgramOrDie(B.Source);
    expectAllCombosAgree(*Prog, B.Name);
  }
}
