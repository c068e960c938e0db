//===- tests/DifferentialBiTest.cpp - BI engines × schedulers -------------===//
//
// The differential-testing harness for the ADD-backed Bayesian inference
// path: every program — random programs across workload mixes
// (prob-heavy, ndet-heavy, call-heavy, mixed; tests/RandomProgramGen.h) and
// the full §6.2 BI benchmark suite — is solved under every combination of
//
//     {BiDomain, AddBiDomain} × {wto, round-robin, worklist},
//
// and the posterior at main's entry under a fixed prior must agree to 1e-9
// across all six combinations: dense matrix contraction and ADD
// rename/multiply/sum-out accumulate in different orders, and so do the
// three iteration orders, so exact equality is not expected.
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

constexpr IterationStrategy Strategies[] = {
    IterationStrategy::WtoRecursive,
    IterationStrategy::RoundRobin,
    IterationStrategy::Worklist,
};

std::vector<double> uniformPrior(const BoolStateSpace &Space) {
  return std::vector<double>(Space.numStates(),
                             1.0 / static_cast<double>(Space.numStates()));
}

/// Solves \p Graph over a fresh domain of type D under \p Strategy and
/// returns the posterior at main's entry. Each combination gets its own
/// domain instance, so agreement also covers cross-instance determinism
/// (nothing leaks between runs through manager state).
template <typename D>
std::vector<double> runCombo(const Program &Prog,
                             const cfg::ProgramGraph &Graph,
                             const BoolStateSpace &Space,
                             IterationStrategy Strategy,
                             const std::string &Label) {
  D Dom(Space);
  SolverOptions Opts;
  Opts.UseWidening = false;
  Opts.Strategy = Strategy;
  auto Result = solve(Graph, Dom, Opts);
  EXPECT_TRUE(Result.Stats.Converged) << Label;
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
  for (IterationStrategy Strategy : Strategies) {
    std::string Label = Name + " [" + toString(Strategy) + "]";
    Dense.push_back(runCombo<BiDomain>(Prog, Graph, Space, Strategy,
                                       "BiDomain " + Label));
    Compact.push_back(runCombo<AddBiDomain>(Prog, Graph, Space, Strategy,
                                            "AddBiDomain " + Label));
  }

  for (size_t I = 0; I != Dense.size(); ++I) {
    ASSERT_EQ(Dense[I].size(), Dense[0].size()) << Name;
    ASSERT_EQ(Compact[I].size(), Dense[0].size()) << Name;
    for (size_t S = 0; S != Dense[0].size(); ++S) {
      EXPECT_NEAR(Dense[0][S], Dense[I][S], 1e-9)
          << Name << ": BiDomain under " << toString(Strategies[I])
          << " vs wto, state " << S;
      EXPECT_NEAR(Dense[I][S], Compact[I][S], 1e-9)
          << Name << ": dense vs ADD under " << toString(Strategies[I])
          << ", state " << S;
    }
  }
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
