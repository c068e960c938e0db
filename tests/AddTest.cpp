//===- tests/AddTest.cpp - ADD manager and ADD-backed BI tests ------------===//

#include "add/Add.h"
#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/AddBiDomain.h"
#include "domains/BiDomain.h"
#include "lang/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace pmaf;
using namespace pmaf::add;
using namespace pmaf::core;
using namespace pmaf::domains;

//===----------------------------------------------------------------------===//
// AddManager
//===----------------------------------------------------------------------===//

TEST(AddManagerTest, TerminalsAreHashConsed) {
  AddManager Mgr;
  EXPECT_EQ(Mgr.terminal(0.25), Mgr.terminal(0.25));
  EXPECT_NE(Mgr.terminal(0.25), Mgr.terminal(0.5));
  EXPECT_EQ(Mgr.zero(), Mgr.terminal(0.0));
  EXPECT_EQ(Mgr.one(), Mgr.terminal(1.0));
  EXPECT_DOUBLE_EQ(Mgr.terminalValue(Mgr.terminal(3.5)), 3.5);
}

TEST(AddManagerTest, ReductionRule) {
  AddManager Mgr;
  // A node with equal children collapses to the child.
  EXPECT_EQ(Mgr.makeNode(0, Mgr.one(), Mgr.one()), Mgr.one());
  // Identical nodes share structure.
  NodeRef A = Mgr.makeNode(1, Mgr.zero(), Mgr.one());
  NodeRef B = Mgr.makeNode(1, Mgr.zero(), Mgr.one());
  EXPECT_EQ(A, B);
}

TEST(AddManagerTest, ApplyPointwise) {
  AddManager Mgr;
  NodeRef X = Mgr.indicator(0);
  NodeRef Y = Mgr.indicator(1);
  NodeRef Sum = Mgr.apply(Op::Add, X, Y);
  auto At = [&](bool VX, bool VY, NodeRef F) {
    return Mgr.evaluate(F, [&](unsigned Level) {
      return Level == 0 ? VX : VY;
    });
  };
  EXPECT_DOUBLE_EQ(At(false, false, Sum), 0.0);
  EXPECT_DOUBLE_EQ(At(true, false, Sum), 1.0);
  EXPECT_DOUBLE_EQ(At(true, true, Sum), 2.0);
  NodeRef Prod = Mgr.apply(Op::Mul, X, Y);
  EXPECT_DOUBLE_EQ(At(true, false, Prod), 0.0);
  EXPECT_DOUBLE_EQ(At(true, true, Prod), 1.0);
  NodeRef MaxF = Mgr.apply(Op::Max, X, Y);
  EXPECT_DOUBLE_EQ(At(false, true, MaxF), 1.0);
}

TEST(AddManagerTest, AffineAndExtrema) {
  AddManager Mgr;
  NodeRef X = Mgr.indicator(0);
  NodeRef F = Mgr.affine(X, 3.0, 1.0); // 3x + 1 in {1, 4}
  EXPECT_DOUBLE_EQ(Mgr.minTerminal(F), 1.0);
  EXPECT_DOUBLE_EQ(Mgr.maxTerminal(F), 4.0);
  EXPECT_DOUBLE_EQ(Mgr.maxAbsDiff(F, Mgr.one()), 3.0);
}

TEST(AddManagerTest, SumOutHandlesAbsentLevels) {
  AddManager Mgr;
  NodeRef X = Mgr.indicator(0);
  // sum over level 1 (absent): doubles the function.
  NodeRef S1 = Mgr.sumOut(X, {1});
  EXPECT_DOUBLE_EQ(
      Mgr.evaluate(S1, [](unsigned) { return true; }), 2.0);
  // sum over level 0 (present): f(0) + f(1) = 1.
  NodeRef S0 = Mgr.sumOut(X, {0});
  EXPECT_TRUE(Mgr.isTerminal(S0));
  EXPECT_DOUBLE_EQ(Mgr.terminalValue(S0), 1.0);
  // sum over both: 2.
  NodeRef S01 = Mgr.sumOut(X, {0, 1});
  EXPECT_DOUBLE_EQ(Mgr.terminalValue(S01), 2.0);
}

TEST(AddManagerTest, RenameMonotone) {
  AddManager Mgr;
  NodeRef F = Mgr.apply(Op::Add, Mgr.indicator(0),
                        Mgr.scale(Mgr.indicator(2), 2.0));
  NodeRef G = Mgr.rename(F, [](unsigned Level) { return Level + 1; });
  EXPECT_DOUBLE_EQ(Mgr.evaluate(G,
                                [](unsigned Level) { return Level == 1; }),
                   1.0);
  EXPECT_DOUBLE_EQ(Mgr.evaluate(G,
                                [](unsigned Level) { return Level == 3; }),
                   2.0);
}

namespace {

/// Exhaustively compares two functions (possibly owned by different
/// managers) over all assignments to levels [0, NumLevels).
void expectSameFunction(const AddManager &MA, NodeRef A,
                        const AddManager &MB, NodeRef B,
                        unsigned NumLevels,
                        const char *What) {
  for (unsigned Bits = 0; Bits != (1u << NumLevels); ++Bits) {
    auto Asg = [&](unsigned Level) {
      return Level < NumLevels && ((Bits >> Level) & 1u) != 0;
    };
    EXPECT_DOUBLE_EQ(MA.evaluate(A, Asg), MB.evaluate(B, Asg))
        << What << ", assignment bits " << Bits;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// rename regressions: non-monotone permutations
//===----------------------------------------------------------------------===//

// Regression: a permutation swapping two *adjacent* levels must reorder
// the decisions, not just relabel them in place. The structural fast path
// is only sound for maps that preserve the level order on the support;
// the manager has to detect the swap and take the apply-based rebuild.
TEST(AddManagerTest, RenameAdjacentLevelSwap) {
  AddManager Mgr;
  // F = x0 + 2*x1: asymmetric in the two levels, so a silent relabel
  // (keeping the old structure) computes the wrong function.
  NodeRef F = Mgr.apply(Op::Add, Mgr.indicator(0),
                        Mgr.scale(Mgr.indicator(1), 2.0));
  NodeRef G = Mgr.rename(F, [](unsigned Level) { return 1 - Level; });
  // G = x1 + 2*x0, built natively for the canonicity check.
  NodeRef Expected = Mgr.apply(Op::Add, Mgr.indicator(1),
                               Mgr.scale(Mgr.indicator(0), 2.0));
  EXPECT_EQ(G, Expected) << "rename must re-canonicalize, not relabel";
  expectSameFunction(Mgr, G, Mgr, Expected, 2, "adjacent swap");
}

TEST(AddManagerTest, RenameReversePermutation) {
  AddManager Mgr;
  // F = x0 + 2*x1 + 4*x2; reverse all three levels.
  NodeRef F = Mgr.indicator(0);
  F = Mgr.apply(Op::Add, F, Mgr.scale(Mgr.indicator(1), 2.0));
  F = Mgr.apply(Op::Add, F, Mgr.scale(Mgr.indicator(2), 4.0));
  NodeRef G = Mgr.rename(F, [](unsigned Level) { return 2 - Level; });
  NodeRef Expected = Mgr.indicator(2);
  Expected = Mgr.apply(Op::Add, Expected, Mgr.scale(Mgr.indicator(1), 2.0));
  Expected = Mgr.apply(Op::Add, Expected, Mgr.scale(Mgr.indicator(0), 4.0));
  EXPECT_EQ(G, Expected);
  // Spot-check the semantics directly against the defining equation
  // G(asg) = F(level -> asg(Map(level))).
  for (unsigned Bits = 0; Bits != 8; ++Bits) {
    auto Asg = [&](unsigned L) { return ((Bits >> L) & 1u) != 0; };
    EXPECT_DOUBLE_EQ(Mgr.evaluate(G, Asg), Mgr.evaluate(F, [&](unsigned L) {
                       return Asg(2 - L);
                     })) << "bits " << Bits;
  }
}

// Two renames of structurally *shared* subdiagrams through a swapping map:
// memoization across the shared part must not conflate the two contexts.
TEST(AddManagerTest, RenameSwapWithSharedSubgraph) {
  AddManager Mgr;
  NodeRef Shared = Mgr.apply(Op::Add, Mgr.indicator(2),
                             Mgr.scale(Mgr.indicator(3), 2.0));
  // F tests x0 above the shared subgraph and also adds it directly, so
  // Shared appears in two contexts.
  NodeRef F = Mgr.apply(Op::Add, Mgr.apply(Op::Mul, Mgr.indicator(0), Shared),
                        Shared);
  NodeRef G = Mgr.rename(F, [](unsigned Level) {
    // Swap 2 <-> 3, keep 0 in place: non-monotone on the support.
    if (Level == 2)
      return 3u;
    if (Level == 3)
      return 2u;
    return Level;
  });
  for (unsigned Bits = 0; Bits != 16; ++Bits) {
    auto Asg = [&](unsigned L) { return ((Bits >> L) & 1u) != 0; };
    EXPECT_DOUBLE_EQ(Mgr.evaluate(G, Asg), Mgr.evaluate(F, [&](unsigned L) {
                       if (L == 2)
                         return Asg(3);
                       if (L == 3)
                         return Asg(2);
                       return Asg(L);
                     })) << "bits " << Bits;
  }
}

// A map that is non-monotone only on levels *off* the support must still
// be handled (the fast path keys on the support, not the whole domain).
TEST(AddManagerTest, RenameNonMonotoneOffSupport) {
  AddManager Mgr;
  NodeRef F = Mgr.apply(Op::Add, Mgr.indicator(1),
                        Mgr.scale(Mgr.indicator(3), 2.0));
  // On the support {1, 3} the map is monotone (1 -> 2, 3 -> 4); on the
  // untested levels it swaps wildly.
  NodeRef G = Mgr.rename(F, [](unsigned Level) {
    switch (Level) {
    case 0:
      return 5u;
    case 1:
      return 2u;
    case 2:
      return 0u;
    case 3:
      return 4u;
    default:
      return Level;
    }
  });
  NodeRef Expected = Mgr.apply(Op::Add, Mgr.indicator(2),
                               Mgr.scale(Mgr.indicator(4), 2.0));
  EXPECT_EQ(G, Expected);
}

TEST(AddManagerTest, SharingBeatsEnumeration) {
  // The parity-like function sum of 16 indicators has a linear-size ADD.
  AddManager Mgr;
  NodeRef F = Mgr.zero();
  for (unsigned I = 0; I != 16; ++I)
    F = Mgr.apply(Op::Add, F, Mgr.indicator(I));
  EXPECT_LT(Mgr.nodeCount(F), 200u); // Far below 2^16.
  EXPECT_DOUBLE_EQ(Mgr.maxTerminal(F), 16.0);
}

//===----------------------------------------------------------------------===//
// AddBiDomain vs dense BiDomain: structural cross-validation
//===----------------------------------------------------------------------===//

namespace {

/// Runs both BI implementations on a program and checks the main summary
/// matrices agree entrywise.
void expectDenseAddAgreement(const char *Source) {
  auto Prog = lang::parseProgramOrDie(Source);
  BoolStateSpace Space(*Prog);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
  SolverOptions Opts;
  Opts.UseWidening = false;
  unsigned Entry = Graph.proc(Prog->findProc("main")).Entry;

  BiDomain Dense(Space);
  auto DenseResult = solve(Graph, Dense, Opts);

  AddBiDomain Compact(Space);
  auto CompactResult = solve(Graph, Compact, Opts);

  Matrix Expanded = Compact.toMatrix(CompactResult.Values[Entry]);
  EXPECT_LE(Expanded.maxAbsDiff(DenseResult.Values[Entry]), 1e-9)
      << Source;
}

} // namespace

TEST(AddBiDomainTest, KernelsMatchDense) {
  expectDenseAddAgreement("bool a, b; proc main() { a := true; }");
  expectDenseAddAgreement("bool a, b; proc main() { a := b; }");
  expectDenseAddAgreement(
      "bool a, b; proc main() { a ~ bernoulli(0.3); }");
  expectDenseAddAgreement(
      "bool a, b; proc main() { observe(a || b); }");
  expectDenseAddAgreement(
      "bool a, b; proc main() { skip; }");
}

TEST(AddBiDomainTest, ControlFlowMatchesDense) {
  expectDenseAddAgreement(R"(
    bool a, b;
    proc main() {
      a ~ bernoulli(0.5);
      if (a) { b := true; } else { b ~ bernoulli(0.25); }
    }
  )");
  expectDenseAddAgreement(R"(
    bool a, b;
    proc main() {
      if prob(0.7) { a := true; } else { a := false; }
      if star { b := a; } else { b := true; }
    }
  )");
}

TEST(AddBiDomainTest, Figure1aMatchesDense) {
  expectDenseAddAgreement(R"(
    bool b1, b2;
    proc main() {
      b1 ~ bernoulli(0.5);
      b2 ~ bernoulli(0.5);
      while (!b1 && !b2) {
        b1 ~ bernoulli(0.5);
        b2 ~ bernoulli(0.5);
      }
    }
  )");
}

TEST(AddBiDomainTest, RecursionMatchesDense) {
  expectDenseAddAgreement(R"(
    bool b;
    proc main() {
      b ~ bernoulli(0.5);
      if (b) { main(); }
    }
  )");
}

TEST(AddBiDomainTest, PosteriorMatchesDense) {
  auto Prog = lang::parseProgramOrDie(R"(
    bool b1, b2;
    proc main() {
      b1 ~ bernoulli(0.5);
      if prob(0.5) { b2 := b1; } else { b2 ~ bernoulli(0.5); }
      observe(b1 || b2);
    }
  )");
  BoolStateSpace Space(*Prog);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
  SolverOptions Opts;
  Opts.UseWidening = false;
  unsigned Entry = Graph.proc(0).Entry;
  AddBiDomain Compact(Space);
  auto Result = solve(Graph, Compact, Opts);
  std::vector<double> Prior = {1.0, 0.0, 0.0, 0.0};
  std::vector<double> Post =
      Compact.posterior(Result.Values[Entry], Prior);
  EXPECT_NEAR(Post[0], 0.0, 1e-12);
  EXPECT_NEAR(Post[1], 0.125, 1e-12);
  EXPECT_NEAR(Post[2], 0.125, 1e-12);
  EXPECT_NEAR(Post[3], 0.375, 1e-12);
}

TEST(AddBiDomainTest, IndependentVariablesStayCompact) {
  // n independent coin flips: the dense transformer has 4^n entries, the
  // ADD stays linear in n.
  std::string Decls = "bool";
  std::string Body;
  const unsigned N = 10;
  for (unsigned I = 0; I != N; ++I) {
    Decls += I ? ", v" : " v";
    Decls += std::to_string(I);
    Body += "v";
    Body += std::to_string(I);
    Body += " ~ bernoulli(0.5);\n";
  }
  std::string Source = Decls + "; proc main() { " + Body + " }";
  auto Prog = lang::parseProgramOrDie(Source);
  BoolStateSpace Space(*Prog);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
  SolverOptions Opts;
  Opts.UseWidening = false;
  AddBiDomain Compact(Space);
  auto Result = solve(Graph, Compact, Opts);
  size_t Size = Compact.nodeCount(Result.Values[Graph.proc(0).Entry]);
  EXPECT_LT(Size, 64u) << "diagram should be linear in n, not 4^n";
}

TEST(AddBiDomainTest, RandomProgramsMatchDense) {
  // Differential test mirroring RandomProgramTest, dense vs ADD.
  Rng R(808);
  for (int Round = 0; Round != 10; ++Round) {
    std::string Body;
    for (int S = 0; S != 4; ++S) {
      switch (R.below(4)) {
      case 0:
        Body += "a := b;\n";
        break;
      case 1:
        Body += "b ~ bernoulli(" + std::to_string(R.uniform()) + ");\n";
        break;
      case 2:
        Body += "if prob(0.5) { a := true; } else { c := a; }\n";
        break;
      default:
        Body += "while prob(0.5) { c ~ bernoulli(0.5); }\n";
        break;
      }
    }
    std::string Source = "bool a, b, c; proc main() { " + Body + " }";
    expectDenseAddAgreement(Source.c_str());
  }
}
