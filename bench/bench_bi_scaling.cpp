//===- bench/bench_bi_scaling.cpp - BI cost vs number of variables --------===//
//
// Reproduces the scaling observation of §6.2 — "The analysis time of
// Bayesian inference grows exponentially with respect to the number of
// program variables. The time cost comes from the explicit matrix
// representation of domain elements. One could use Algebraic Decision
// Diagrams as a compact representation to improve the efficiency." —
// and implements the suggested fix: the same family of programs is
// analyzed with the dense-matrix domain (§5.1) and with the ADD-backed
// domain, reporting time and representation size per variable count.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/AddBiDomain.h"
#include "domains/BiDomain.h"
#include "lang/Parser.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

/// A family of Boolean programs over n variables: sample every variable,
/// then resample the first two until one is true (a Fig 1(a)-style loop
/// embedded in a growing state space).
std::string chainProgram(unsigned N) {
  std::string Decls = "bool";
  for (unsigned I = 0; I != N; ++I) {
    Decls += I ? ", v" : " v";
    Decls += std::to_string(I);
  }
  std::string Body;
  for (unsigned I = 0; I != N; ++I) {
    Body += "v";
    Body += std::to_string(I);
    Body += " ~ bernoulli(0.5);\n";
  }
  Body += "while (!v0 && !v1) {\n"
          "  v0 ~ bernoulli(0.5);\n"
          "  v1 ~ bernoulli(0.5);\n"
          "}\n";
  return Decls + ";\nproc main() {\n" + Body + "}\n";
}

} // namespace

int main(int argc, char **argv) {
  std::printf("Bayesian inference scaling in #vars (§6.2): dense matrices "
              "vs ADDs\n");
  bench::printRule(78);
  std::printf("%5s %14s %14s %16s %12s\n", "#vars", "dense time(s)",
              "ADD time(s)", "dense entries", "ADD nodes");
  bench::printRule(78);
  for (unsigned N = 2; N <= 14; ++N) {
    std::string Source = chainProgram(N);
    auto Prog = lang::parseProgramOrDie(Source);
    BoolStateSpace Space(*Prog);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    SolverOptions Opts;
    Opts.UseWidening = false;
    unsigned Entry = Graph.proc(0).Entry;

    double DenseSeconds = -1.0;
    if (N <= 9) { // The dense representation is 4^n doubles per value.
      BiDomain Dense(Space);
      DenseSeconds = bench::timedTrimmedMean(
          [&] {
            BiDomain Dom(Space);
            solve(Graph, Dom, Opts);
          },
          3);
    }

    AddBiDomain Compact(Space);
    auto CompactResult = solve(Graph, Compact, Opts);
    double AddSeconds = bench::timedTrimmedMean(
        [&] {
          AddBiDomain Dom(Space);
          solve(Graph, Dom, Opts);
        },
        3);
    size_t Nodes = Compact.nodeCount(CompactResult.Values[Entry]);

    char DenseText[32];
    if (DenseSeconds >= 0)
      std::snprintf(DenseText, sizeof(DenseText), "%14.4f", DenseSeconds);
    else
      std::snprintf(DenseText, sizeof(DenseText), "%14s", "(skipped)");
    std::printf("%5u %s %14.4f %16.3g %12zu\n", N, DenseText, AddSeconds,
                static_cast<double>(Space.numStates()) *
                    static_cast<double>(Space.numStates()),
                Nodes);
  }
  bench::printRule(78);
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
