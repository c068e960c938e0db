//===- tools/pmaf.cpp - Command-line driver for the framework -------------===//
//
// Analyze a probabilistic program from the command line:
//
//   pmaf <file.pp> [--domain=leia|bi|mdp|termination] [--decompose]
//                  [--dot] [--stats] [--werror] [--diag-format=text|json]
//                  [--strategy=wto|round-robin|worklist]
//                  [--numeric=poly|ladder|zones|intervals]
//                  [--widening-delay=<n>] [--max-updates=<n>]
//   pmaf check <file.pp>... [--domain=leia|bi|mdp|termination]
//                  [--decompose] [--werror] [--diag-format=text|json]
//   pmaf verify-corpus <dir|file.pp>... [--jobs=<n>] [--seed=<n>]
//                  [--runs=<n>] [--max-updates=<n>] [--out=<file>]
//                  [--werror]
//   pmaf gen-corpus <dir> [--count=<n>] [--seed=<n>]
//                  [--family=bi|mdp|leia|mixed]
//
// With --domain=leia (default) prints the expectation invariants of every
// procedure summary; bi prints the posterior from the all-false prior;
// mdp prints greatest expected rewards; termination prints lower bounds
// on termination probabilities. --decompose applies the positive-negative
// decomposition (§6.2) first, for programs with signed variables. --dot
// prints the control-flow hyper-graphs in Graphviz syntax.
//
// Every analysis is preceded by the semantic lint (analysis/Lint.h):
// warnings go to stderr and the analysis proceeds; errors (including
// domain-precondition failures) abort with a nonzero exit. --werror
// promotes warnings to errors. `pmaf check` runs only the lint, over any
// number of files, and exits nonzero when any file has errors;
// --diag-format=json renders machine-readable diagnostics.
//
// --numeric (LEIA only) selects the numeric backend of the domain
// (core::NumericBackend): `poly` is the monolithic-polyhedra baseline of
// §5.3, `ladder` (the default) the exact packed/escalating backend of
// poly/Ladder.h, and `zones`/`intervals` are cheap sound
// over-approximations restricted to their fragment.
//
// The solver knobs map onto core::SolverOptions: --strategy selects the
// chaotic-iteration scheduler (core/Schedule.h), --widening-delay the
// number of plain updates before widening kicks in, and --max-updates the
// node-update budget. Every solve runs on the calling thread.
// --stats prints the solver options and then the solve's SolverStats in
// the text rendering of core/Instrumentation.h: iteration, interpret-cache,
// numeric-layer and warm-start counters as key=value lines.
//
// Every solve is followed by the checker layer (checks/Checker.h): each
// `assert_prob` / `assert_reward` / `assert_interval` statement is judged
// against the fixpoint annotation at its node and reported as a structured
// diagnostic with a stable code (assert-*-safe / -unproved / -violated /
// assert-skipped). A violated assertion exits 1; --werror additionally
// fails unproved and skipped assertions.
//
// `pmaf verify-corpus` fans a directory of programs out over --jobs
// threads plus the calling thread (support::parallelFor; at most
// MaxCorpusJobs, 0 = one per hardware thread): per file it parses, lints, auto-detects the domain
// (real variables -> leia, rewards -> mdp, else bi), solves, runs the
// checker, and — for programs whose main starts with a planted
// assertion — spot-checks the verdict against a Monte-Carlo estimate of
// the ground truth (checks/Fuzz.h). Verdicts merge in file order into one
// ChecksDb whose JSON summary goes to --out or stdout, the same bytes at
// every --jobs; any parse failure or soundness violation exits 1.
// `pmaf gen-corpus` writes such a corpus of random programs with planted
// assertions (deterministic in --seed). --jobs is accepted only by
// verify-corpus: every solve runs on one thread.
//
// Exit codes: 0 analysis converged; 1 lint/parse errors or failed checks;
// 2 usage errors; 3 the update budget (--max-updates) ran out before the
// fixpoint — the printed values are a mid-iteration snapshot, not the
// analysis answer.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "cfg/HyperGraph.h"
#include "checks/Checker.h"
#include "checks/Fuzz.h"
#include "core/Instrumentation.h"
#include "core/Schedule.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Parser.h"
#include "lang/PosNegDecompose.h"
#include "server/Daemon.h"
#include "support/NumParse.h"
#include "support/ParallelFor.h"

// The corpus generator reuses the test suite's seeded program generators
// so `gen-corpus` and the differential tests draw from one distribution.
#include "RandomProgramGen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;

namespace {

/// Termination-probability lower bounds (demonic): the custom-domain
/// example promoted into the tool.
class TerminationDomain {
public:
  using Value = double;
  Value bottom() const { return 0.0; }
  Value one() const { return 1.0; }
  Value extend(const Value &A, const Value &B) const { return A * B; }
  Value condChoice(const lang::Cond &, const Value &A,
                   const Value &B) const {
    return std::min(A, B);
  }
  Value probChoice(const Rational &P, const Value &A, const Value &B) const {
    double Prob = P.toDouble();
    return Prob * A + (1.0 - Prob) * B;
  }
  Value ndetChoice(const Value &A, const Value &B) const {
    return std::min(A, B);
  }
  Value interpret(const lang::Stmt *Act) const {
    return Act && Act->kind() == lang::Stmt::Kind::Observe ? 0.0 : 1.0;
  }
  bool leq(const Value &A, const Value &B) const { return A <= B + 1e-12; }
  bool equal(const Value &A, const Value &B) const {
    return std::fabs(A - B) <= 1e-12;
  }
  Value widenCond(const Value &, const Value &New) const { return New; }
  Value widenProb(const Value &, const Value &New) const { return New; }
  Value widenNdet(const Value &, const Value &New) const { return New; }
  Value widenCall(const Value &, const Value &New) const { return New; }
  std::string toString(const Value &A) const { return std::to_string(A); }
};

/// The most threads `verify-corpus --jobs` may ask for; larger values are
/// rejected before any thread starts.
constexpr unsigned MaxCorpusJobs = 1024;

/// Strict parse of one numeric flag payload; on failure prints the
/// structured diagnostic (stable code `invalid-flag-value`) and returns
/// nullopt — the caller exits 2, the usage-error code. `--jobs=abc`,
/// `--jobs=-2`, and `--max-updates=1e9` used to silently become 0/garbage
/// through strtoul; now they are hard usage errors.
std::optional<uint64_t> parseFlagUnsigned(const char *Flag,
                                          const std::string &Value) {
  std::optional<uint64_t> Parsed = support::parseUnsigned(Value);
  if (!Parsed)
    std::fprintf(stderr,
                 "error: %s expects an unsigned integer, got '%s' "
                 "[invalid-flag-value]\n",
                 Flag, Value.c_str());
  return Parsed;
}

std::optional<unsigned> parseFlagUnsigned32(const char *Flag,
                                            const std::string &Value) {
  std::optional<uint64_t> Parsed = parseFlagUnsigned(Flag, Value);
  if (!Parsed)
    return std::nullopt;
  if (*Parsed > 0xffffffffull) {
    std::fprintf(stderr,
                 "error: %s value %s is out of range [invalid-flag-value]\n",
                 Flag, Value.c_str());
    return std::nullopt;
  }
  return static_cast<unsigned>(*Parsed);
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <file.pp | -> [--domain=leia|bi|mdp|termination]"
               " [--decompose] [--dot] [--stats] [--werror]"
               " [--diag-format=text|json]"
               " [--strategy=wto|round-robin|worklist]"
               " [--numeric=poly|ladder|zones|intervals]"
               " [--widening-delay=<n>] [--max-updates=<n>]\n"
               "       %s check <file.pp>..."
               " [--domain=leia|bi|mdp|termination] [--decompose]"
               " [--werror] [--diag-format=text|json]\n"
               "       %s verify-corpus <dir|file.pp>... [--jobs=<n>]"
               " [--seed=<n>] [--runs=<n>] [--max-updates=<n>]"
               " [--out=<file>] [--werror]\n"
               "       %s gen-corpus <dir> [--count=<n>] [--seed=<n>]"
               " [--family=bi|mdp|leia|mixed]\n"
               "       %s serve [--port=<n>]\n",
               Argv0, Argv0, Argv0, Argv0, Argv0);
  return 2;
}

/// Solver knobs shared by every domain path; each path layers them over
/// its own preset (e.g. BI disables widening).
struct CliSolverConfig {
  std::optional<IterationStrategy> Strategy;
  std::optional<unsigned> WideningDelay;
  std::optional<uint64_t> MaxUpdates;
  std::optional<NumericBackend> Numeric;
  bool Stats = false;

  void apply(SolverOptions &Opts) const {
    if (Strategy)
      Opts.Strategy = *Strategy;
    if (WideningDelay)
      Opts.WideningDelay = *WideningDelay;
    if (MaxUpdates)
      Opts.MaxUpdates = *MaxUpdates;
    if (Numeric)
      Opts.Numeric = *Numeric;
  }

  /// Prints the options and stats (under --stats) and maps the solve
  /// outcome to the process exit code: 0 for a converged fixpoint, 3
  /// (with a stderr warning) when the update budget ran out and the
  /// printed values are only a mid-iteration snapshot.
  int finish(const SolverOptions &Opts,
             const core::SolverStats &SolveStats) const {
    if (Stats)
      std::printf("; strategy: %s, widening delay %u, max updates %llu, "
                  "numeric %s\n%s",
                  core::toString(Opts.Strategy), Opts.WideningDelay,
                  static_cast<unsigned long long>(Opts.MaxUpdates),
                  core::toString(Opts.Numeric),
                  core::statsText(SolveStats).c_str());
    if (SolveStats.Converged)
      return 0;
    std::fprintf(stderr,
                 "warning: analysis did not converge: the update budget "
                 "(--max-updates=%llu) was exhausted; the reported values "
                 "are not a post-fixpoint\n",
                 static_cast<unsigned long long>(Opts.MaxUpdates));
    return 3;
  }
};

analysis::TargetDomain domainFromName(const std::string &Name) {
  if (Name == "leia")
    return analysis::TargetDomain::Leia;
  if (Name == "bi")
    return analysis::TargetDomain::Bi;
  if (Name == "mdp")
    return analysis::TargetDomain::Mdp;
  if (Name == "termination")
    return analysis::TargetDomain::Termination;
  return analysis::TargetDomain::None;
}

bool readSource(const std::string &Path, std::string &Source) {
  if (Path == "-") {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    Source = Buffer.str();
    return true;
  }
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Source = Buffer.str();
  return true;
}

/// Parse + decompose + lint one source into \p Diags. \returns the linted
/// program, or null when parsing or decomposition failed (the failure has
/// been reported into \p Diags).
std::unique_ptr<lang::Program>
parseAndLint(const std::string &Path, const std::string &Source,
             DiagnosticEngine &Diags, const std::string &DomainName,
             bool Decompose) {
  Diags.setSource(Path, Source);
  lang::ParseResult Parsed = lang::parseProgram(Source, Diags);
  if (!Parsed)
    return nullptr;
  std::unique_ptr<lang::Program> Prog = std::move(Parsed.Prog);
  if (Decompose) {
    lang::DecomposeResult D = lang::decomposePosNeg(*Prog);
    if (!D) {
      Diags.report(Severity::Error, {}, "decompose-error",
                   "cannot decompose: " + D.Error);
      return nullptr;
    }
    Prog = std::move(D.Prog);
  }
  analysis::LintOptions Opts;
  Opts.Domain = domainFromName(DomainName);
  Opts.Decomposed = Decompose;
  analysis::lintProgram(*Prog, Diags, Opts);
  Diags.sortByLocation();
  return Prog;
}

/// `pmaf check`: lint-only over any number of files; diagnostics go to
/// stdout, exit 1 when any file has errors.
int runCheck(const std::vector<std::string> &Files,
             const std::string &DomainName, bool Decompose, bool Werror,
             bool Json) {
  if (Files.empty()) {
    std::fprintf(stderr, "error: pmaf check requires at least one file\n");
    return 2;
  }
  bool AnyErrors = false;
  for (const std::string &Path : Files) {
    std::string Source;
    if (!readSource(Path, Source)) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      AnyErrors = true;
      continue;
    }
    DiagnosticEngine Diags;
    Diags.setWarningsAsErrors(Werror);
    parseAndLint(Path, Source, Diags, DomainName, Decompose);
    if (Json)
      std::printf("%s\n", Diags.renderJson().c_str());
    else
      std::printf("%s", Diags.renderAll().c_str());
    if (Diags.hasErrors())
      AnyErrors = true;
  }
  return AnyErrors ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// The checker layer
//===----------------------------------------------------------------------===//

/// Reports check verdicts as diagnostics on stdout plus a one-line
/// summary. \returns 1 when the verdicts fail the run (any violated
/// assertion, or unproved/skipped ones under --werror), 0 otherwise.
int reportCheckResults(const checks::ChecksDb &Db, const std::string &Path,
                       const std::string &Source, bool Werror, bool Json) {
  if (Db.total() == 0)
    return 0;
  DiagnosticEngine Diags;
  Diags.setSource(Path, Source);
  Diags.setWarningsAsErrors(Werror);
  checks::reportChecks(Db, Diags);
  Diags.sortByLocation();
  if (Json) {
    // Match the lint path: machine-readable diagnostics go to stderr so
    // stdout stays the (parseable-by-humans) analysis report.
    std::fprintf(stderr, "%s\n", Diags.renderJson().c_str());
  } else {
    std::printf("%s", Diags.renderAll().c_str());
    std::printf("checks: %s\n", Db.summary().c_str());
  }
  return Diags.hasErrors() ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// verify-corpus / gen-corpus
//===----------------------------------------------------------------------===//

bool stmtContainsKind(const lang::Stmt &S, lang::Stmt::Kind K) {
  if (S.kind() == K)
    return true;
  switch (S.kind()) {
  case lang::Stmt::Kind::Block:
    for (const lang::Stmt::Ptr &Child : S.stmts())
      if (stmtContainsKind(*Child, K))
        return true;
    return false;
  case lang::Stmt::Kind::If:
    return stmtContainsKind(S.thenStmt(), K) ||
           (S.elseStmt() && stmtContainsKind(*S.elseStmt(), K));
  case lang::Stmt::Kind::While:
    return stmtContainsKind(S.body(), K);
  default:
    return false;
  }
}

/// Domain auto-detection for corpus files: real variables -> leia, reward
/// statements or reward assertions -> mdp, else bi.
std::string detectDomain(const lang::Program &Prog) {
  for (const lang::VarInfo &V : Prog.Vars)
    if (V.IsReal)
      return "leia";
  for (const lang::Procedure &P : Prog.Procs)
    if (P.Body && stmtContainsKind(*P.Body, lang::Stmt::Kind::Reward))
      return "mdp";
  return "bi";
}

/// The planted assertion of a fuzz-shaped program: the first statement of
/// main when it is an assert, else null (the soundness spot-check only
/// applies to that shape — the all-zero initial state of the concrete runs
/// is then one of the quantified pre-states).
const lang::Stmt *plantedAssertion(const lang::Program &Prog) {
  unsigned Main = Prog.findProc("main");
  if (Main == ~0u)
    Main = 0;
  if (Prog.Procs.empty() || !Prog.Procs[Main].Body)
    return nullptr;
  const lang::Stmt *Body = Prog.Procs[Main].Body.get();
  while (Body->kind() == lang::Stmt::Kind::Block && !Body->stmts().empty())
    Body = Body->stmts().front().get();
  return Body->kind() == lang::Stmt::Kind::Assert ? Body : nullptr;
}

/// Sampling tolerance for the soundness oracle: a few standard errors at
/// the scale of the asserted quantity, plus a floor for float drift.
double soundnessTol(const lang::Stmt &A, unsigned Runs) {
  double Base = 4.0 / std::sqrt(static_cast<double>(Runs ? Runs : 1));
  switch (A.assertKind()) {
  case lang::AssertKind::Prob:
    return 0.5 * Base + 0.01;
  case lang::AssertKind::Reward:
    return Base * (1.0 + std::fabs(A.assertBound().toDouble())) + 0.05;
  case lang::AssertKind::Interval: {
    double Scale = std::max(std::fabs(A.assertLo().toDouble()),
                            std::fabs(A.assertHi().toDouble()));
    return Base * (1.0 + Scale) + 0.05;
  }
  }
  return 0.05;
}

struct CorpusOptions {
  unsigned Jobs = 4;
  uint64_t Seed = 1;
  /// Monte-Carlo runs per soundness spot-check; 0 disables the oracle.
  unsigned Runs = 2000;
  uint64_t MaxUpdates = 200000;
  std::string OutPath;
  bool Werror = false;
};

struct CorpusFileOutcome {
  bool Ok = true;         ///< Parsed, linted, and solved without failure.
  bool Converged = true;  ///< Solver reached the fixpoint.
  checks::ChecksDb Db;
  std::string SoundnessViolation; ///< Nonempty = the oracle fired.
  std::string Error;              ///< Failure description when !Ok.
};

CorpusFileOutcome processCorpusFile(const std::string &Path,
                                    const CorpusOptions &Opts,
                                    uint64_t FileSeed) {
  CorpusFileOutcome Out;
  std::string Source;
  if (!readSource(Path, Source)) {
    Out.Ok = false;
    Out.Error = "cannot open file";
    return Out;
  }
  DiagnosticEngine Diags;
  Diags.setSource(Path, Source);
  lang::ParseResult Parsed = lang::parseProgram(Source, Diags);
  if (!Parsed) {
    Out.Ok = false;
    Out.Error = "parse failed";
    return Out;
  }
  std::unique_ptr<lang::Program> Prog = std::move(Parsed.Prog);
  std::string Domain = detectDomain(*Prog);
  analysis::LintOptions LOpts;
  LOpts.Domain = domainFromName(Domain);
  analysis::lintProgram(*Prog, Diags, LOpts);
  if (Diags.hasErrors()) {
    Out.Ok = false;
    Out.Error = "lint errors (domain " + Domain + ")";
    return Out;
  }
  if (Domain == "bi") {
    unsigned Bools = 0;
    for (const lang::VarInfo &V : Prog->Vars)
      Bools += V.IsReal ? 0 : 1;
    if (Bools > 16) {
      Out.Ok = false;
      Out.Error = "too many Boolean variables for the dense BI domain";
      return Out;
    }
  }

  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
  checks::CheckerOptions COpts;
  if (Domain == "bi") {
    BoolStateSpace Space(*Prog);
    BiDomain Dom(Space);
    SolverOptions SOpts;
    SOpts.UseWidening = false;
    SOpts.MaxUpdates = Opts.MaxUpdates;
    auto Result = solve(Graph, Dom, SOpts);
    Out.Converged = Result.Stats.Converged;
    COpts.Converged = Result.Stats.Converged;
    Out.Db = checks::checkBiSummaries(
        Space, Graph, [&](unsigned N) { return Result.Values[N]; }, COpts);
  } else if (Domain == "mdp") {
    MdpDomain Dom;
    SolverOptions SOpts;
    SOpts.WideningDelay = 10000;
    SOpts.MaxUpdates = Opts.MaxUpdates;
    auto Result = solve(Graph, Dom, SOpts);
    Out.Converged = Result.Stats.Converged;
    COpts.Converged = Result.Stats.Converged;
    Out.Db = checks::checkMdp(Graph, Result.Values, COpts);
  } else {
    // Zones, not the ladder: a rare random loop program can drive the
    // ladder's polyhedra escalation into multi-minute joins, and corpus
    // verification needs bounded per-file cost. Zones stays relational
    // (it keeps the exit identity x' = x that boxes lose) at polynomial
    // cost, and the checker verdict logic is backend-independent.
    LeiaDomainT<poly::Zones> Dom(*Prog);
    SolverOptions SOpts;
    SOpts.MaxUpdates = Opts.MaxUpdates;
    auto Result = solve(Graph, Dom, SOpts);
    Out.Converged = Result.Stats.Converged;
    COpts.Converged = Result.Stats.Converged;
    Out.Db = checks::checkLeia(Dom, Graph, Result.Values, COpts);
  }

  // Soundness spot-check for fuzz-shaped programs. Checker records are in
  // collectAssertions order, so the planted assertion's verdict is at the
  // matching index.
  const lang::Stmt *Planted = plantedAssertion(*Prog);
  if (Planted && Opts.Runs && Out.Converged) {
    auto Asserts = checks::collectAssertions(Graph);
    for (size_t I = 0; I != Asserts.size(); ++I) {
      if (Asserts[I].second != Planted)
        continue;
      checks::fuzz::GroundTruth GT = checks::fuzz::estimateGroundTruth(
          *Prog, *Planted, FileSeed, Opts.Runs);
      Out.SoundnessViolation = checks::fuzz::soundnessViolation(
          *Planted, Out.Db.records()[I].TheVerdict, GT,
          soundnessTol(*Planted, Opts.Runs));
      break;
    }
  }
  return Out;
}

int runVerifyCorpus(const std::vector<std::string> &Paths,
                    const CorpusOptions &Opts) {
  namespace fs = std::filesystem;
  std::vector<std::string> Files;
  for (const std::string &P : Paths) {
    std::error_code Ec;
    // A path that does not exist is a usage error, not a corpus with one
    // unreadable file: surface it with a stable code and exit 2 instead
    // of burying "cannot open file" in the per-file failure list.
    if (P != "-" && !fs::exists(P, Ec)) {
      std::fprintf(stderr,
                   "error: verify-corpus path does not exist: %s "
                   "[corpus-path-missing]\n",
                   P.c_str());
      return 2;
    }
    if (fs::is_directory(P, Ec)) {
      for (const fs::directory_entry &E : fs::directory_iterator(P, Ec))
        if (E.path().extension() == ".pp")
          Files.push_back(E.path().string());
    } else {
      Files.push_back(P);
    }
  }
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    std::fprintf(stderr, "error: verify-corpus found no .pp files to check "
                         "[corpus-empty]\n");
    return 2;
  }

  // One result slot per file, merged in file order after the fan-out, so
  // the report is the same bytes whatever the thread count.
  std::vector<CorpusFileOutcome> Outcomes(Files.size());
  // --jobs=N starts N threads and the calling thread verifies files too,
  // the lane count of the pool this loop replaced.
  const unsigned Threads =
      Opts.Jobs ? Opts.Jobs : std::max(1u, std::thread::hardware_concurrency());
  support::parallelFor(Threads + 1, Files.size(), [&](size_t I) {
    CorpusFileOutcome &Out = Outcomes[I];
    try {
      Out = processCorpusFile(Files[I], Opts,
                              Opts.Seed + I * 0x9e3779b97f4a7c15ull);
    } catch (const std::exception &E) {
      Out.Ok = false;
      Out.Error = std::string("exception: ") + E.what();
    }
    Out.Db.tagFile(Files[I]);
  });
  checks::ChecksDb Global;
  unsigned Failed = 0, NotConverged = 0;
  std::vector<std::string> Violations, Failures;
  for (size_t I = 0; I != Files.size(); ++I) {
    const CorpusFileOutcome &Out = Outcomes[I];
    Global.merge(Out.Db);
    if (!Out.Ok) {
      ++Failed;
      Failures.push_back(Files[I] + ": " + Out.Error);
    }
    if (!Out.Converged)
      ++NotConverged;
    if (!Out.SoundnessViolation.empty())
      Violations.push_back(Files[I] + ": " + Out.SoundnessViolation);
  }

  std::sort(Violations.begin(), Violations.end());
  std::sort(Failures.begin(), Failures.end());
  std::string Json = "{\"files\": " + std::to_string(Files.size());
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"not_converged\": " + std::to_string(NotConverged);
  Json += ", \"soundness_violations\": [";
  for (size_t I = 0; I != Violations.size(); ++I) {
    if (I)
      Json += ", ";
    Json += "\"";
    for (char C : Violations[I])
      C == '"' || C == '\\' ? (Json += '\\', Json += C) : (Json += C);
    Json += "\"";
  }
  Json += "], \"checks\": " + Global.toJson() + "}";
  if (!Opts.OutPath.empty()) {
    std::ofstream OutFile(Opts.OutPath);
    if (!OutFile) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.OutPath.c_str());
      return 1;
    }
    OutFile << Json << "\n";
  } else {
    std::printf("%s\n", Json.c_str());
  }

  for (const std::string &F : Failures)
    std::fprintf(stderr, "error: %s\n", F.c_str());
  for (const std::string &V : Violations)
    std::fprintf(stderr, "error: SOUNDNESS VIOLATION: %s\n", V.c_str());
  std::fprintf(stderr,
               "verify-corpus: %zu files, %u failed, %u not converged, "
               "%zu soundness violations; checks: %s\n",
               Files.size(), Failed, NotConverged, Violations.size(),
               Global.summary().c_str());
  bool WerrorFail =
      Opts.Werror && (Global.count(checks::Verdict::Warning) != 0 ||
                      Global.count(checks::Verdict::Skipped) != 0);
  return (Failed || !Violations.empty() || WerrorFail) ? 1 : 0;
}

int runGenCorpus(const std::string &Dir, unsigned Count, uint64_t Seed,
                 const std::string &Family) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec || !fs::is_directory(Dir, Ec)) {
    std::fprintf(stderr,
                 "error: cannot create corpus directory %s "
                 "[corpus-dir-unwritable]\n",
                 Dir.c_str());
    return 1;
  }
  for (unsigned I = 0; I != Count; ++I) {
    Rng R(Seed + I * 0x9e3779b97f4a7c15ull + 1);
    std::string Kind = Family;
    if (Kind == "mixed")
      Kind = I % 3 == 0 ? "bi" : I % 3 == 1 ? "mdp" : "leia";
    std::unique_ptr<lang::Program> Prog;
    lang::Stmt::Ptr Assertion;
    if (Kind == "leia") {
      Prog = testgen::randomRealProgram(
          R, 2 + static_cast<unsigned>(R.below(2)),
          3 + static_cast<unsigned>(R.below(2)));
      Assertion = checks::fuzz::randomIntervalAssertion(R, *Prog);
    } else {
      testgen::BoolGenConfig C;
      C.NumVars = 2 + static_cast<unsigned>(R.below(2));
      C.NumStmts = 3 + static_cast<unsigned>(R.below(3));
      if (R.below(3) == 0) {
        C.HelperProcs = 2;
        C.CallWeight = 2;
      }
      if (Kind == "mdp") {
        // The MDP domain treats observe as the identity while the concrete
        // semantics rejects the run; keep the fuzz distribution inside the
        // fragment both readings agree on.
        C.ObserveWeight = 0;
        Prog = testgen::randomBoolProgram(R, C);
        checks::fuzz::sprinkleRewards(R, *Prog,
                                      1 + static_cast<unsigned>(R.below(3)));
        Assertion = checks::fuzz::randomRewardAssertion(R);
      } else {
        Prog = testgen::randomBoolProgram(R, C);
        Assertion = checks::fuzz::randomProbAssertion(R, *Prog);
      }
    }
    // Half the corpus gets the decisive shape (assertion, then a constant
    // prologue collapsing all pre-state rows); the other half keeps the
    // raw pre-state dependence, exercising the for-all-pre-states
    // warnings.
    std::vector<lang::Stmt::Ptr> Prologue;
    if (R.below(2) == 0)
      Prologue = checks::fuzz::randomInitPrologue(R, *Prog);
    checks::fuzz::plantAssertion(*Prog, std::move(Assertion),
                                 std::move(Prologue));
    char Name[32];
    std::snprintf(Name, sizeof(Name), "prog_%05u.pp", I);
    std::ofstream OutFile(fs::path(Dir) / Name);
    if (!OutFile) {
      std::fprintf(stderr, "error: cannot write %s/%s\n", Dir.c_str(), Name);
      return 1;
    }
    OutFile << lang::toString(*Prog);
  }
  std::printf("gen-corpus: wrote %u programs to %s\n", Count, Dir.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool CheckMode = argc > 1 && std::strcmp(argv[1], "check") == 0;
  bool CorpusMode = argc > 1 && std::strcmp(argv[1], "verify-corpus") == 0;
  bool GenMode = argc > 1 && std::strcmp(argv[1], "gen-corpus") == 0;
  bool ServeMode = argc > 1 && std::strcmp(argv[1], "serve") == 0;
  std::vector<std::string> Paths;
  std::string Domain = "leia";
  bool DomainExplicit = false;
  bool Decompose = false, EmitDot = false, Werror = false, Json = false;
  uint64_t Seed = 1;
  unsigned Count = 100, Runs = 2000;
  uint16_t Port = 0;
  std::string OutPath, Family = "mixed";
  CliSolverConfig Config;
  std::optional<unsigned> CorpusJobs;
  for (int I = (CheckMode || CorpusMode || GenMode || ServeMode) ? 2 : 1;
       I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--domain=", 0) == 0) {
      Domain = Arg.substr(9);
      DomainExplicit = true;
    } else if (Arg == "--decompose")
      Decompose = true;
    else if (Arg == "--werror")
      Werror = true;
    else if (Arg.rfind("--diag-format=", 0) == 0) {
      std::string Format = Arg.substr(14);
      if (Format == "json")
        Json = true;
      else if (Format != "text")
        return usage(argv[0]);
    } else if (Arg == "--dot")
      EmitDot = true;
    else if (Arg == "--stats")
      Config.Stats = true;
    else if (Arg.rfind("--strategy=", 0) == 0) {
      Config.Strategy = parseIterationStrategy(Arg.substr(11));
      if (!Config.Strategy) {
        std::fprintf(stderr, "error: unknown strategy %s\n",
                     Arg.substr(11).c_str());
        return usage(argv[0]);
      }
    } else if (Arg.rfind("--numeric=", 0) == 0) {
      Config.Numeric = parseNumericBackend(Arg.substr(10));
      if (!Config.Numeric) {
        std::fprintf(stderr, "error: unknown numeric backend %s\n",
                     Arg.substr(10).c_str());
        return usage(argv[0]);
      }
    } else if (Arg.rfind("--widening-delay=", 0) == 0) {
      auto V = parseFlagUnsigned32("--widening-delay", Arg.substr(17));
      if (!V)
        return 2;
      Config.WideningDelay = *V;
    } else if (Arg.rfind("--max-updates=", 0) == 0) {
      auto V = parseFlagUnsigned("--max-updates", Arg.substr(14));
      if (!V)
        return 2;
      Config.MaxUpdates = *V;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      auto V = parseFlagUnsigned32("--jobs", Arg.substr(7));
      if (!V)
        return 2;
      if (!CorpusMode) {
        std::fprintf(stderr,
                     "error: --jobs applies only to verify-corpus; every "
                     "solve is sequential [invalid-flag-value]\n");
        return 2;
      }
      if (*V > MaxCorpusJobs) {
        std::fprintf(stderr,
                     "error: --jobs value %u exceeds the limit of %u "
                     "[invalid-flag-value]\n",
                     *V, MaxCorpusJobs);
        return 2;
      }
      CorpusJobs = *V;
    } else if (Arg.rfind("--seed=", 0) == 0) {
      auto V = parseFlagUnsigned("--seed", Arg.substr(7));
      if (!V)
        return 2;
      Seed = *V;
    } else if (Arg.rfind("--runs=", 0) == 0) {
      auto V = parseFlagUnsigned32("--runs", Arg.substr(7));
      if (!V)
        return 2;
      Runs = *V;
    } else if (Arg.rfind("--count=", 0) == 0) {
      auto V = parseFlagUnsigned32("--count", Arg.substr(8));
      if (!V)
        return 2;
      Count = *V;
    } else if (Arg.rfind("--port=", 0) == 0) {
      auto V = parseFlagUnsigned32("--port", Arg.substr(7));
      if (!V)
        return 2;
      if (*V > 65535) {
        std::fprintf(stderr, "error: --port value %u is out of range "
                             "[invalid-flag-value]\n",
                     *V);
        return 2;
      }
      Port = static_cast<uint16_t>(*V);
    } else if (Arg.rfind("--out=", 0) == 0)
      OutPath = Arg.substr(6);
    else if (Arg.rfind("--family=", 0) == 0) {
      Family = Arg.substr(9);
      if (Family != "bi" && Family != "mdp" && Family != "leia" &&
          Family != "mixed")
        return usage(argv[0]);
    } else if (Arg[0] == '-' && Arg != "-") {
      std::fprintf(stderr, "error: unknown flag %s\n", Arg.c_str());
      return usage(argv[0]);
    }
    else
      Paths.push_back(Arg);
  }

  if (CheckMode)
    return runCheck(Paths, DomainExplicit ? Domain : std::string(),
                    Decompose, Werror, Json);
  if (CorpusMode) {
    CorpusOptions COpts;
    COpts.Jobs = CorpusJobs.value_or(4);
    COpts.Seed = Seed;
    COpts.Runs = Runs;
    if (Config.MaxUpdates)
      COpts.MaxUpdates = *Config.MaxUpdates;
    COpts.OutPath = OutPath;
    COpts.Werror = Werror;
    return runVerifyCorpus(Paths, COpts);
  }
  if (GenMode) {
    if (Paths.size() != 1)
      return usage(argv[0]);
    return runGenCorpus(Paths[0], Count, Seed, Family);
  }
  if (ServeMode) {
    // `pmaf serve` is the in-binary spelling of pmafd: same daemon, same
    // protocol, handy when only the CLI is deployed.
    server::DaemonOptions DOpts;
    DOpts.Port = Port;
    return server::runDaemon(DOpts);
  }

  if (Paths.size() != 1)
    return usage(argv[0]);
  const std::string &Path = Paths[0];

  std::string Source;
  if (!readSource(Path, Source)) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return 1;
  }

  // Pre-analysis lint: warnings are advisory, errors (parse failures,
  // type errors, domain-precondition violations) stop the analysis.
  DiagnosticEngine Diags;
  Diags.setWarningsAsErrors(Werror);
  // Flags that only affect the LEIA path are diagnosed, not silently
  // dropped, when another domain was selected.
  if (Config.Numeric && Domain != "leia")
    Diags.report(Severity::Warning, {}, "option-ignored",
                 "--numeric selects the LEIA numeric backend and has no "
                 "effect with --domain=" +
                     Domain);
  if (Decompose && Domain != "leia")
    Diags.report(Severity::Warning, {}, "option-ignored",
                 "--decompose targets signed variables of LEIA runs; with "
                 "--domain=" +
                     Domain + " it does not change the analysis");
  std::unique_ptr<lang::Program> Prog =
      parseAndLint(Path, Source, Diags, Domain, Decompose);
  if (!Diags.empty()) {
    if (Json)
      std::fprintf(stderr, "%s\n", Diags.renderJson().c_str());
    else
      std::fprintf(stderr, "%s", Diags.renderAll().c_str());
  }
  if (!Prog || Diags.hasErrors())
    return 1;

  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
  if (EmitDot)
    std::printf("%s", Graph.toDot().c_str());

  if (Domain == "leia") {
    SolverOptions Opts;
    Config.apply(Opts);
    // The backend is a template parameter of the domain; dispatch the
    // whole leia path on the runtime choice once, here.
    auto RunLeia = [&]<typename NumV>(std::type_identity<NumV>) -> int {
      LeiaDomainT<NumV> Dom(*Prog);
      auto Result = solve(Graph, Dom, Opts);
      for (unsigned P = 0; P != Graph.numProcs(); ++P) {
        std::printf("%s():\n", Prog->Procs[P].Name.c_str());
        auto Invariants =
            Dom.describeInvariants(Result.Values[Graph.proc(P).Entry]);
        if (Invariants.empty())
          std::printf("  (no expectation invariants)\n");
        for (const std::string &Inv : Invariants)
          std::printf("  %s\n", Inv.c_str());
      }
      checks::CheckerOptions COpts;
      COpts.Converged = Result.Stats.Converged;
      int CheckExit = reportCheckResults(
          checks::checkLeia(Dom, Graph, Result.Values, COpts), Path, Source,
          Werror, Json);
      int Exit = Config.finish(Opts, Result.Stats);
      return CheckExit ? CheckExit : Exit;
    };
    switch (Opts.Numeric) {
    case NumericBackend::Poly:
      return RunLeia(std::type_identity<poly::Polyhedron>{});
    case NumericBackend::Ladder:
      return RunLeia(std::type_identity<poly::LadderValue>{});
    case NumericBackend::Zones:
      return RunLeia(std::type_identity<poly::Zones>{});
    case NumericBackend::Intervals:
      return RunLeia(std::type_identity<poly::Intervals>{});
    }
    return 2;
  }
  if (Domain == "bi") {
    BoolStateSpace Space(*Prog);
    BiDomain Dom(Space);
    SolverOptions Opts;
    Opts.UseWidening = false;
    Config.apply(Opts);
    auto Result = solve(Graph, Dom, Opts);
    std::vector<double> Prior(Space.numStates(), 0.0);
    Prior[0] = 1.0;
    for (unsigned P = 0; P != Graph.numProcs(); ++P) {
      std::printf("%s(): posterior from the all-false prior\n",
                  Prog->Procs[P].Name.c_str());
      std::vector<double> Post = Dom.posterior(
          Result.Values[Graph.proc(P).Entry], Prior);
      double Mass = 0.0;
      for (size_t S = 0; S != Post.size(); ++S) {
        Mass += Post[S];
        if (Post[S] > 1e-12)
          std::printf("  %-30s %.6f\n",
                      Space.stateToString(S).c_str(), Post[S]);
      }
      std::printf("  terminating mass: %.6f\n", Mass);
    }
    checks::CheckerOptions COpts;
    COpts.Converged = Result.Stats.Converged;
    int CheckExit = reportCheckResults(
        checks::checkBiSummaries(
            Space, Graph, [&](unsigned N) { return Result.Values[N]; },
            COpts),
        Path, Source, Werror, Json);
    int Exit = Config.finish(Opts, Result.Stats);
    return CheckExit ? CheckExit : Exit;
  }
  if (Domain == "mdp") {
    MdpDomain Dom;
    SolverOptions Opts;
    Opts.WideningDelay = 10000;
    Config.apply(Opts);
    auto Result = solve(Graph, Dom, Opts);
    for (unsigned P = 0; P != Graph.numProcs(); ++P)
      std::printf("%s(): greatest expected reward = %g\n",
                  Prog->Procs[P].Name.c_str(),
                  Result.Values[Graph.proc(P).Entry]);
    checks::CheckerOptions COpts;
    COpts.Converged = Result.Stats.Converged;
    int CheckExit = reportCheckResults(
        checks::checkMdp(Graph, Result.Values, COpts), Path, Source, Werror,
        Json);
    int Exit = Config.finish(Opts, Result.Stats);
    return CheckExit ? CheckExit : Exit;
  }
  if (Domain == "termination") {
    TerminationDomain Dom;
    SolverOptions Opts;
    Config.apply(Opts);
    auto Result = solve(Graph, Dom, Opts);
    for (unsigned P = 0; P != Graph.numProcs(); ++P)
      std::printf("%s(): P[termination] >= %.6f\n",
                  Prog->Procs[P].Name.c_str(),
                  Result.Values[Graph.proc(P).Entry]);
    int CheckExit = reportCheckResults(
        checks::skipAllChecks(Graph, "the termination analysis has no "
                                     "assertion checker"),
        Path, Source, Werror, Json);
    int Exit = Config.finish(Opts, Result.Stats);
    return CheckExit ? CheckExit : Exit;
  }
  std::fprintf(stderr, "error: unknown domain %s\n", Domain.c_str());
  return usage(argv[0]);
}
