//===- bench/bench_hypergraph_ablation.cpp - §2.3 hyper-graph ablation ----===//
//
// Reproduces the motivation of §2.3: treating the CFG as a *hyper-graph*
// lets the analyzer combine the successors of a probabilistic branch with
// the weighted operator p⊕ instead of the join that an ordinary-graph
// formulation would apply at branch nodes. The ablation wraps a domain so
// that probabilistic-choice falls back to nondeterministic-choice (join)
// and measures the lost precision on: (i) the §1 nondeterminism example
// (expected return 1.5 vs an interval), (ii) the Fig 1(b) game invariants,
// and (iii) Fig 1(a) Bayesian inference, where the join (pointwise min)
// collapses the posterior lower bounds to 0.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

/// Wraps a PMA so probabilistic-choice degrades to the join applied at
/// branch nodes of an ordinary CFG formulation (§2.3).
template <typename D> class ProbAsJoinDomain {
public:
  using Value = typename D::Value;

  explicit ProbAsJoinDomain(D &Inner) : Inner(Inner) {}

  Value bottom() const { return Inner.bottom(); }
  Value one() const { return Inner.one(); }
  Value extend(const Value &A, const Value &B) const {
    return Inner.extend(A, B);
  }
  Value condChoice(const lang::Cond &Phi, const Value &A,
                   const Value &B) const {
    return Inner.condChoice(Phi, A, B);
  }
  Value probChoice(const Rational &P, const Value &A, const Value &B) const {
    (void)P; // The ordinary-graph join ignores the branch weight.
    return Inner.ndetChoice(A, B);
  }
  Value ndetChoice(const Value &A, const Value &B) const {
    return Inner.ndetChoice(A, B);
  }
  Value interpret(const lang::Stmt *Act) const { return Inner.interpret(Act); }
  bool leq(const Value &A, const Value &B) const { return Inner.leq(A, B); }
  bool equal(const Value &A, const Value &B) const {
    return Inner.equal(A, B);
  }
  Value widenCond(const Value &A, const Value &B) const {
    return Inner.widenCond(A, B);
  }
  Value widenProb(const Value &A, const Value &B) const {
    return Inner.widenNdet(A, B);
  }
  Value widenNdet(const Value &A, const Value &B) const {
    return Inner.widenNdet(A, B);
  }
  Value widenCall(const Value &A, const Value &B) const {
    return Inner.widenCall(A, B);
  }
  std::string toString(const Value &A) const { return Inner.toString(A); }

private:
  D &Inner;
};

static_assert(core::PreMarkovAlgebra<ProbAsJoinDomain<LeiaDomain>>);

void leiaComparison(const char *Title, const char *Source,
                    const std::vector<Rational> &Objective,
                    const std::vector<Rational> &Pre) {
  auto Prog = lang::parseProgramOrDie(Source);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
  unsigned Entry = Graph.proc(Prog->findProc("main")).Entry;
  SolverOptions Opts;
  Opts.WideningDelay = 2;

  LeiaDomain Hyper(*Prog);
  auto HyperResult = solve(Graph, Hyper, Opts);
  auto [HLo, HHi] =
      Hyper.expectationBounds(HyperResult.Values[Entry], Objective, Pre);

  LeiaDomain Inner(*Prog);
  ProbAsJoinDomain<LeiaDomain> GraphStyle(Inner);
  auto GraphResult = solve(Graph, GraphStyle, Opts);
  auto [GLo, GHi] =
      Inner.expectationBounds(GraphResult.Values[Entry], Objective, Pre);

  auto Fmt = [](const std::optional<Rational> &R, bool Lower) {
    return R ? std::to_string(R->toDouble())
             : std::string(Lower ? "-inf" : "+inf");
  };
  std::printf("%-34s hyper-graph p(+): [%s, %s]\n", Title,
              Fmt(HLo, true).c_str(), Fmt(HHi, false).c_str());
  std::printf("%-34s graph-style join: [%s, %s]\n", "",
              Fmt(GLo, true).c_str(), Fmt(GHi, false).c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::printf("Ablation (§2.3): hyper-graph p⊕ vs ordinary-graph join at "
              "probabilistic branches\n");
  bench::printRule(78);

  // (i) The §1 example: PMAF concludes E[r'] = 1.5 exactly.
  leiaComparison("section-1 example, E[r']:", R"(
    real r;
    proc main() {
      if star {
        if prob(1/2) { r := 1; } else { r := 2; }
      } else {
        if prob(1/2) { r := 1; } else { r := 2; }
      }
    }
  )",
                 {Rational(1)}, {Rational(0)});

  // (ii) Fig 1(b): the exact game invariant E[x'+y'] = x+y+3 needs the
  // weighted loop combination.
  leiaComparison("fig-1b game, E[x'+y'] at (1,2,0):", R"(
    real x, y, z;
    proc main() {
      while prob(3/4) {
        z ~ uniform(0, 2);
        if star { x := x + z; } else { y := y + z; }
      }
    }
  )",
                 {Rational(1), Rational(1), Rational(0)},
                 {Rational(1), Rational(2), Rational(0)});

  // (iii) Fig 1(a) Bayesian inference, written with *control-flow*
  // randomness (prob branches) instead of data randomness — the very
  // distinction §2.3 draws: with the join (pointwise min) in place of the
  // affine combination, the posterior lower bound collapses to 0.
  {
    auto Prog = lang::parseProgramOrDie(R"(
      bool b1, b2;
      proc main() {
        if prob(0.5) { b1 := true; } else { b1 := false; }
        if prob(0.5) { b2 := true; } else { b2 := false; }
        while (!b1 && !b2) {
          if prob(0.5) { b1 := true; } else { b1 := false; }
          if prob(0.5) { b2 := true; } else { b2 := false; }
        }
      }
    )");
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    BoolStateSpace Space(*Prog);
    SolverOptions Opts;
    Opts.UseWidening = false;
    unsigned Entry = Graph.proc(0).Entry;
    std::vector<double> Prior(4, 0.0);
    Prior[0] = 1.0;

    BiDomain Hyper(Space);
    auto HyperResult = solve(Graph, Hyper, Opts);
    std::vector<double> HyperPost =
        Hyper.posterior(HyperResult.Values[Entry], Prior);

    BiDomain Inner(Space);
    ProbAsJoinDomain<BiDomain> GraphStyle(Inner);
    auto GraphResult = solve(Graph, GraphStyle, Opts);
    std::vector<double> GraphPost =
        Inner.posterior(GraphResult.Values[Entry], Prior);

    std::printf("%-34s hyper-graph p(+): P[TT] >= %.6f\n",
                "fig-1a BI, posterior of (T,T):", HyperPost[3]);
    std::printf("%-34s graph-style join: P[TT] >= %.6f\n", "",
                GraphPost[3]);
  }

  bench::printRule(78);
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
