//===- tests/LintTest.cpp - Semantic lint tests ----------------------------===//
//
// Two halves: the seeded-defect fixtures under examples/bad/ must each
// produce exactly the expected diagnostic codes at the expected positions,
// and every shipped program (the paper's benchmarks, under their natural
// domains) must lint clean.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "benchmarks/Programs.h"
#include "lang/Parser.h"

#include "gtest/gtest.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace pmaf;
using namespace pmaf::analysis;

namespace {

std::string readFixture(const std::string &Name) {
  std::string Path = std::string(PMAF_BAD_EXAMPLES_DIR) + "/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In) << "cannot open fixture " << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Parses + lints \p Source exactly like `pmaf check` does: a parse
/// failure is reported into the engine; a parsed program is linted.
void checkSource(const std::string &Source, DiagnosticEngine &Diags,
                 TargetDomain Domain = TargetDomain::None) {
  lang::ParseResult Parsed = lang::parseProgram(Source, Diags);
  if (!Parsed)
    return;
  LintOptions Opts;
  Opts.Domain = Domain;
  lintProgram(*Parsed.Prog, Diags, Opts);
  Diags.sortByLocation();
}

struct ExpectedDiag {
  const char *Code;
  unsigned Line;
  unsigned Col;
  Severity Sev;
};

void expectFixtureDiags(const std::string &Name,
                        const std::vector<ExpectedDiag> &Expected,
                        TargetDomain Domain = TargetDomain::None) {
  DiagnosticEngine Diags;
  Diags.setSource(Name, readFixture(Name));
  checkSource(readFixture(Name), Diags, Domain);
  ASSERT_EQ(Diags.diagnostics().size(), Expected.size())
      << Name << " diagnostics:\n"
      << Diags.renderAll();
  for (size_t I = 0; I != Expected.size(); ++I) {
    const Diagnostic &D = Diags.diagnostics()[I];
    EXPECT_EQ(D.Code, Expected[I].Code) << Name << " #" << I;
    EXPECT_EQ(D.Loc.Line, Expected[I].Line) << Name << " #" << I;
    EXPECT_EQ(D.Loc.Col, Expected[I].Col) << Name << " #" << I;
    EXPECT_EQ(D.Sev, Expected[I].Sev) << Name << " #" << I;
  }
}

//===----------------------------------------------------------------------===//
// Seeded-defect fixtures
//===----------------------------------------------------------------------===//

TEST(LintFixtureTest, ProbRange) {
  expectFixtureDiags("prob_range.pp",
                     {{"prob-range", 4, 17, Severity::Error}});
}

TEST(LintFixtureTest, BadProbability) {
  expectFixtureDiags("bad_probability.pp",
                     {{"prob-range", 4, 11, Severity::Error}});
}

TEST(LintFixtureTest, DegenerateProb) {
  expectFixtureDiags("degenerate_prob.pp",
                     {{"degenerate-prob", 4, 6, Severity::Warning}});
}

TEST(LintFixtureTest, DivByZero) {
  expectFixtureDiags("div_by_zero.pp",
                     {{"div-by-zero", 4, 13, Severity::Error}});
}

TEST(LintFixtureTest, TypeMismatch) {
  expectFixtureDiags("type_mismatch.pp",
                     {{"type-mismatch", 5, 8, Severity::Error}});
}

TEST(LintFixtureTest, UnreachableStmt) {
  expectFixtureDiags("unreachable.pp",
                     {{"unreachable-stmt", 5, 3, Severity::Warning}});
}

TEST(LintFixtureTest, DivergentLoop) {
  expectFixtureDiags("divergent_loop.pp",
                     {{"unreachable-exit", 4, 6, Severity::Warning},
                      {"divergent-loop", 5, 3, Severity::Warning}});
}

TEST(LintFixtureTest, UndefinedProc) {
  expectFixtureDiags("undefined_proc.pp",
                     {{"undefined-procedure", 3, 3, Severity::Error}});
}

TEST(LintFixtureTest, UndefinedVar) {
  expectFixtureDiags("undefined_var.pp",
                     {{"undefined-variable", 4, 3, Severity::Error}});
}

TEST(LintFixtureTest, ParseError) {
  expectFixtureDiags("parse_error.pp",
                     {{"parse-error", 4, 5, Severity::Error}});
}

TEST(LintFixtureTest, HugeLiteral) {
  expectFixtureDiags("huge_literal.pp",
                     {{"number-out-of-range", 4, 8, Severity::Error}});
}

TEST(LintFixtureTest, DeepNesting) {
  expectFixtureDiags("deep_nesting.pp",
                     {{"nesting-too-deep", 29, 50, Severity::Error}});
}

TEST(LintFixtureTest, SignedVarDomainNeutral) {
  // Without a target domain only the degenerate choice is reported.
  expectFixtureDiags("signed_var.pp",
                     {{"degenerate-prob", 7, 6, Severity::Warning}});
}

TEST(LintFixtureTest, SignedVarUnderLeia) {
  expectFixtureDiags("signed_var.pp",
                     {{"signed-var", 6, 3, Severity::Error},
                      {"degenerate-prob", 7, 6, Severity::Warning},
                      {"signed-var", 8, 5, Severity::Error}},
                     TargetDomain::Leia);
}

TEST(LintFixtureTest, AssertionFixturesLintClean) {
  // The defects in the assertion fixtures are checker-level properties
  // (ChecksTest pins their verdicts); the lint must not flag them.
  expectFixtureDiags("violated_assert_prob.pp", {}, TargetDomain::Bi);
  expectFixtureDiags("unprovable_assert_reward.pp", {}, TargetDomain::Mdp);
}

//===----------------------------------------------------------------------===//
// Additional check coverage on inline sources
//===----------------------------------------------------------------------===//

TEST(LintTest, DomainMismatchBiRejectsRealVars) {
  DiagnosticEngine Diags;
  checkSource("real x;\nproc main() { x := 1; }\n", Diags,
              TargetDomain::Bi);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Code, "domain-mismatch");
  EXPECT_EQ(Diags.diagnostics()[0].Loc.Line, 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Loc.Col, 6u);
}

TEST(LintTest, DomainMismatchBiRejectsTooManyBools) {
  std::string Decl = "bool b0";
  for (int I = 1; I != 21; ++I)
    Decl += ", b" + std::to_string(I);
  DiagnosticEngine Diags;
  checkSource(Decl + ";\nproc main() { skip; }\n", Diags, TargetDomain::Bi);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Code, "domain-mismatch");
}

TEST(LintTest, DomainMismatchLeiaRejectsBools) {
  DiagnosticEngine Diags;
  checkSource("bool b;\nproc main() { skip; }\n", Diags,
              TargetDomain::Leia);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Code, "domain-mismatch");
}

TEST(LintTest, RewardIgnoredUnderNonMdpDomains) {
  const char *Source = "real x;\nproc main() { reward(2); }\n";
  for (TargetDomain D :
       {TargetDomain::Leia, TargetDomain::Bi, TargetDomain::Termination}) {
    DiagnosticEngine Diags;
    checkSource(Source, Diags, D);
    bool HasRewardIgnored = false;
    for (const Diagnostic &Diag : Diags.diagnostics())
      if (Diag.Code == "reward-ignored")
        HasRewardIgnored = true;
    EXPECT_TRUE(HasRewardIgnored) << "domain " << static_cast<int>(D);
  }
  DiagnosticEngine Diags;
  checkSource(Source, Diags, TargetDomain::Mdp);
  for (const Diagnostic &Diag : Diags.diagnostics())
    EXPECT_NE(Diag.Code, "reward-ignored");
}

TEST(LintTest, TerminationDomainSuppressesDivergenceWarnings) {
  const char *Source = "proc main() { while (true) { skip; } }\n";
  DiagnosticEngine Plain;
  checkSource(Source, Plain, TargetDomain::None);
  EXPECT_FALSE(Plain.empty());
  DiagnosticEngine Term;
  checkSource(Source, Term, TargetDomain::Termination);
  EXPECT_TRUE(Term.empty()) << Term.renderAll();
}

TEST(LintTest, DivergencePropagatesThroughCalls) {
  // risky never returns, so main's exit is unreachable too.
  const char *Source = "proc risky() { while (true) { skip; } }\n"
                       "proc main() { risky(); }\n";
  DiagnosticEngine Diags;
  checkSource(Source, Diags);
  unsigned NoExit = 0;
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Code == "unreachable-exit")
      ++NoExit;
  EXPECT_EQ(NoExit, 2u) << Diags.renderAll();
}

TEST(LintTest, BreakMakesLoopNonDivergent) {
  const char *Source =
      "real x;\nproc main() { while (true) { if (x == 1) { break; } else "
      "{ skip; } } }\n";
  DiagnosticEngine Diags;
  checkSource(Source, Diags);
  EXPECT_TRUE(Diags.empty()) << Diags.renderAll();
}

TEST(LintTest, ProgrammaticAstOutOfRangeIndices) {
  // Built without the parser: references to variables and procedures that
  // do not exist must be caught before the lowering would assert.
  auto Prog = std::make_unique<lang::Program>();
  std::vector<lang::Stmt::Ptr> Stmts;
  Stmts.push_back(lang::Stmt::makeAssign(7, lang::Expr::makeNumber(1)));
  auto Call = lang::Stmt::makeCall("ghost");
  Call->setCalleeIndex(9);
  Stmts.push_back(std::move(Call));
  Prog->Procs.push_back(lang::Procedure{
      "main", lang::Stmt::makeBlock(std::move(Stmts)), {}});
  DiagnosticEngine Diags;
  lintProgram(*Prog, Diags);
  ASSERT_EQ(Diags.diagnostics().size(), 2u) << Diags.renderAll();
  EXPECT_EQ(Diags.diagnostics()[0].Code, "undefined-variable");
  EXPECT_EQ(Diags.diagnostics()[1].Code, "undefined-procedure");
}

TEST(LintTest, NumberLiteralBounds) {
  auto CodesOf = [](const std::string &Literal) {
    DiagnosticEngine Diags;
    checkSource("real x;\nproc main() { x := " + Literal + "; }\n", Diags);
    std::vector<std::string> Codes;
    for (const Diagnostic &D : Diags.diagnostics())
      Codes.push_back(D.Code);
    return Codes;
  };
  using Codes = std::vector<std::string>;
  const Codes OutOfRange = {"number-out-of-range"};
  // Exponent and digit count at the bounds are accepted ...
  EXPECT_EQ(CodesOf("1e1000"), Codes{});
  EXPECT_EQ(CodesOf("1e-1000"), Codes{});
  EXPECT_EQ(CodesOf("0." + std::string(999, '1')), Codes{});
  // ... and one past them is a located diagnostic, not a throw or a hang.
  EXPECT_EQ(CodesOf("1e1001"), OutOfRange);
  EXPECT_EQ(CodesOf("1e-1001"), OutOfRange);
  EXPECT_EQ(CodesOf("1e200000"), OutOfRange);
  EXPECT_EQ(CodesOf("1e99999999999999999999"), OutOfRange);
  EXPECT_EQ(CodesOf(std::string(1001, '7')), OutOfRange);
  EXPECT_EQ(CodesOf("0." + std::string(1000, '1')), OutOfRange);
}

TEST(LintTest, NestingDepthBounds) {
  auto CodesOf = [](const std::string &Body) {
    DiagnosticEngine Diags;
    checkSource("real x;\nproc main() {\n" + Body + "\n}\n", Diags);
    std::vector<std::string> Codes;
    for (const Diagnostic &D : Diags.diagnostics())
      Codes.push_back(D.Code);
    return Codes;
  };
  auto Repeat = [](const std::string &Piece, unsigned N) {
    std::string Out;
    for (unsigned I = 0; I != N; ++I)
      Out += Piece;
    return Out;
  };
  auto NestedIfs = [&](unsigned N) {
    return Repeat("if prob(1/2) {", N) + " skip; " + Repeat("}", N);
  };
  auto Parens = [&](unsigned N) {
    return "x := " + Repeat("(", N) + "x" + Repeat(")", N) + ";";
  };
  auto Sum = [&](unsigned Terms) {
    return "x := x" + Repeat(" + x", Terms - 1) + ";";
  };
  auto Negations = [&](unsigned N) {
    return "x := " + Repeat("- ", N) + "x;";
  };
  auto OperandParens = [&](unsigned N) {
    return "if (" + Repeat("(", N) + "x" + Repeat(")", N) + " > 0) { skip; }";
  };
  using Codes = std::vector<std::string>;
  const Codes TooDeep = {"nesting-too-deep"};
  const unsigned Max = lang::MaxNestingDepth;
  // The body block sits at depth 0. The n-th nested if is at 2n - 1 and
  // its block at 2n, so the innermost skip is at 2n + 1. An assignment is
  // at 1 and its expression at 2; every parenthesis, unary minus and
  // further operand of the sum adds a level below that.
  EXPECT_EQ(CodesOf(NestedIfs((Max - 1) / 2)), Codes{});
  EXPECT_EQ(CodesOf(NestedIfs((Max - 1) / 2 + 1)), TooDeep);
  EXPECT_EQ(CodesOf(Parens(Max - 2)), Codes{});
  EXPECT_EQ(CodesOf(Parens(Max - 1)), TooDeep);
  EXPECT_EQ(CodesOf(Sum(Max - 1)), Codes{});
  EXPECT_EQ(CodesOf(Sum(Max)), TooDeep);
  EXPECT_EQ(CodesOf(Negations(Max - 2)), Codes{});
  EXPECT_EQ(CodesOf(Negations(Max - 1)), TooDeep);
  // A parenthesized comparison operand is read as an expression once per
  // level, not once per enclosing level, and parses to the bare operand.
  EXPECT_EQ(CodesOf(OperandParens(Max - 4)), Codes{});
  {
    lang::ParseResult Parsed = lang::parseProgram(
        "real x;\nproc main() {\n" + OperandParens(Max - 4) + "\n}\n");
    ASSERT_TRUE(Parsed) << Parsed.Error;
    const lang::Stmt &If = *Parsed.Prog->Procs[0].Body->stmts()[0];
    ASSERT_EQ(If.kind(), lang::Stmt::Kind::If);
    ASSERT_EQ(If.guard().TheKind, lang::Guard::Kind::Cond);
    const lang::Cond &Phi = *If.guard().Phi;
    ASSERT_EQ(Phi.kind(), lang::Cond::Kind::Cmp);
    EXPECT_EQ(Phi.cmpOp(), lang::CmpOp::Gt);
    ASSERT_EQ(Phi.cmpLhs().kind(), lang::Expr::Kind::Var);
    EXPECT_EQ(Phi.cmpLhs().varIndex(), 0u);
    ASSERT_EQ(Phi.cmpRhs().kind(), lang::Expr::Kind::Number);
    EXPECT_EQ(Phi.cmpRhs().number(), Rational(0));
  }
  // Far past the bound each shape is still one located diagnostic, not a
  // stack overflow in the parser, the lint or the destructors.
  EXPECT_EQ(CodesOf(NestedIfs(10'000)), TooDeep);
  EXPECT_EQ(CodesOf(Parens(20'000)), TooDeep);
  EXPECT_EQ(CodesOf(Sum(50'000)), TooDeep);
  EXPECT_EQ(CodesOf(Negations(200'000)), TooDeep);
}

TEST(LintTest, WerrorPromotesWarnings) {
  DiagnosticEngine Diags;
  Diags.setWarningsAsErrors(true);
  checkSource(readFixture("degenerate_prob.pp"), Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.warningCount(), 0u);
}

//===----------------------------------------------------------------------===//
// The shipped programs lint clean
//===----------------------------------------------------------------------===//

void expectCleanTable(
    const std::vector<benchmarks::BenchProgram> &Table,
    TargetDomain Domain) {
  for (const benchmarks::BenchProgram &Bench : Table) {
    DiagnosticEngine Diags;
    Diags.setSource(Bench.Name, Bench.Source);
    checkSource(Bench.Source, Diags, Domain);
    EXPECT_TRUE(Diags.empty())
        << Bench.Name << ":\n"
        << Diags.renderAll();
  }
}

TEST(LintCleanTest, QuickstartExample) {
  // The program from README.md / examples/quickstart.cpp.
  const char *Source = R"(
    real x, y, z;
    proc main() {
      while prob(3/4) {
        z ~ uniform(0, 2);
        if star { x := x + z; } else { y := y + z; }
      }
    }
  )";
  DiagnosticEngine Diags;
  Diags.setSource("quickstart", Source);
  checkSource(Source, Diags, TargetDomain::Leia);
  EXPECT_TRUE(Diags.empty()) << Diags.renderAll();
}

TEST(LintCleanTest, LeiaBenchmarks) {
  expectCleanTable(benchmarks::leiaPrograms(), TargetDomain::Leia);
}

TEST(LintCleanTest, BiBenchmarks) {
  expectCleanTable(benchmarks::biPrograms(), TargetDomain::Bi);
}

TEST(LintCleanTest, MdpBenchmarks) {
  expectCleanTable(benchmarks::mdpPrograms(), TargetDomain::Mdp);
}

} // namespace
