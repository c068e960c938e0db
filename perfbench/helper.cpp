//===- perfbench/helper.cpp - Inputs, references and traced drivers -------===//
//
// The native half of the benchmark (perfbench/run.py is the other half).
// It only calls public headers of the repository:
//
//   perfbench_helper programs <dir>
//       Writes the 25 paper programs (benchmarks::{leia,bi,mdp}Programs())
//       as <dir>/<domain>-<name>.pp.
//   perfbench_helper edits <out.json> --seed=N --sessions=S --variants=V
//       Generates the served-edits inputs: per session a call-heavy BI
//       program with a planted assertion, and V variants that each splice
//       a seed-drawn body into one helper. Each variant carries a reference
//       answer from a cold in-process server::Session, and the planted
//       assertion's verdict is checked against a Monte-Carlo estimate from
//       the concrete interpreter.
//   perfbench_helper leia-reference <dir> <out.json>
//       For the 13 LEIA programs: the cold Session fingerprint (what every
//       pmafd analyze must reproduce) and the invariants of a direct solve
//       (what the expected-answers file is compared against).
//   perfbench_helper cli <file.pp> <domain> [--trace-out=F]
//   perfbench_helper edits-trace <edits.json> --ops=N [--trace-out=F]
//   perfbench_helper leia-trace <dir> --passes=P [--trace-out=F]
//   perfbench_helper corpus-trace <file.pp>... --runs=R [--trace-out=F]
//       The traced drivers. Each replays a fixed amount of one workload's
//       work through the library calls the real surface makes, wrapping
//       every call into a layer in a span. With --trace-out the spans are
//       written as Chrome trace events; without it no span is recorded, so
//       the same command run both ways gives the tracing overhead. The last
//       stdout line is `PERFBENCH <json>` with the layer counters.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "checks/Checker.h"
#include "checks/Fuzz.h"
#include "core/Instrumentation.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Parser.h"
#include "poly/NumericDomain.h"
#include "server/Protocol.h"
#include "server/Session.h"
#include "support/NumParse.h"

#include "RandomProgramGen.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace pmaf;
using namespace pmaf::core;
using namespace pmaf::domains;
using server::Json;

namespace {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

int64_t monotonicNanos() {
  // steady_clock is CLOCK_MONOTONIC, the clock Python's time.monotonic_ns()
  // reads, so spans of the driver and of every helper process line up.
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder; written out once, when the driver ends. A
/// disabled tracer records nothing and reads no clock.
class Tracer {
public:
  struct Record {
    std::string Name;
    uint64_t Id = 0, Parent = 0, Op = 0;
    int64_t Begin = 0, End = 0;
  };

  explicit Tracer(bool Wanted) : Enabled(Wanted), Wanted(Wanted) {}

  /// RAII span: a child of the innermost open span.
  class Span {
  public:
    Span(Tracer &T, const char *Name) : T(T), Active(T.Enabled) {
      if (!Active)
        return;
      Index = T.Records.size();
      Record R;
      R.Name = Name;
      R.Id = (static_cast<uint64_t>(::getpid()) << 24) | ++T.NextId;
      R.Parent = T.Open.empty() ? 0 : T.Records[T.Open.back()].Id;
      R.Op = T.CurrentOp;
      R.Begin = monotonicNanos();
      T.Records.push_back(std::move(R));
      T.Open.push_back(Index);
    }
    ~Span() {
      if (!Active)
        return;
      T.Records[Index].End = monotonicNanos();
      T.Open.pop_back();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &T;
    bool Active;
    size_t Index = 0;
  };

  void setOp(uint64_t Op) { CurrentOp = Op; }
  void pause(bool Paused) { Enabled = !Paused && Wanted; }

  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    Out << "[";
    for (size_t I = 0; I != Records.size(); ++I) {
      const Record &R = Records[I];
      std::string Name;
      server::appendJsonString(Name, R.Name);
      char Buf[512];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n{\"name\": %s, \"ph\": \"X\", \"ts\": %.3f, "
                    "\"dur\": %.3f, \"pid\": %d, \"tid\": 0, \"args\": "
                    "{\"id\": %llu, \"parent\": %llu, \"op\": %llu}}",
                    I ? "," : "", Name.c_str(), R.Begin / 1e3,
                    (R.End - R.Begin) / 1e3, static_cast<int>(::getpid()),
                    static_cast<unsigned long long>(R.Id),
                    static_cast<unsigned long long>(R.Parent),
                    static_cast<unsigned long long>(R.Op));
      Out << Buf;
    }
    Out << "\n]\n";
    return static_cast<bool>(Out);
  }

private:
  bool Enabled;
  bool Wanted;
  uint64_t NextId = 0;
  uint64_t CurrentOp = 0;
  std::vector<Record> Records;
  std::vector<size_t> Open;
};

//===----------------------------------------------------------------------===//
// Layer counters
//===----------------------------------------------------------------------===//

/// Counters reported on the PERFBENCH line: the solver's (through a
/// SolverObserver or the SolverStats of a reply) and the numeric layer's
/// (process-wide numericCounters() deltas).
struct LayerCounters {
  uint64_t CfgNodes = 0;
  uint64_t NodeUpdates = 0, Widenings = 0;
  uint64_t InterpretCalls = 0, InterpretCacheHits = 0;
  uint64_t Chernikova = 0, ConvHits = 0, ConvMisses = 0, SharedL2Hits = 0;
  uint64_t Escalations = 0;
  unsigned PeakGeneratorRows = 0;

  void addSolver(const SolverInstrumentation &I) {
    NodeUpdates += I.NodeUpdates.load();
    Widenings += I.WideningApplications.load();
    InterpretCalls += I.InterpretCalls.load();
    InterpretCacheHits += I.InterpretCacheHits.load();
  }
  void addStats(const SolverStats &S) {
    NodeUpdates += S.NodeUpdates;
    Widenings += S.WideningApplications;
    InterpretCalls += S.InterpretCalls;
    InterpretCacheHits += S.InterpretCacheHits;
  }

  void toJson(Json &J) const {
    J.set("cfg_nodes", Json::number(CfgNodes));
    J.set("node_updates", Json::number(NodeUpdates));
    J.set("widenings", Json::number(Widenings));
    J.set("interpret_calls", Json::number(InterpretCalls));
    J.set("interpret_cache_hits", Json::number(InterpretCacheHits));
    J.set("chernikova_calls", Json::number(Chernikova));
    J.set("conv_cache_hits", Json::number(ConvHits));
    J.set("conv_cache_misses", Json::number(ConvMisses));
    J.set("shared_l2_hits", Json::number(SharedL2Hits));
    J.set("ladder_escalations", Json::number(Escalations));
    J.set("peak_generator_rows", Json::number(uint64_t(PeakGeneratorRows)));
  }
};

/// Snapshot of the process-wide numeric counters; deltas between two
/// snapshots attribute numeric work to the section between them.
struct NumericSnapshot {
  uint64_t Chernikova, Hits, Misses, Shared, Escalations;
  static NumericSnapshot take() {
    poly::NumericCounters &C = poly::numericCounters();
    return {C.MinimizationCalls.load(), C.ConversionCacheHits.load(),
            C.ConversionCacheMisses.load(), C.SharedCacheHits.load(),
            C.LadderEscalations.load()};
  }
  void addDeltaTo(LayerCounters &L) const {
    NumericSnapshot Now = take();
    L.Chernikova += Now.Chernikova - Chernikova;
    L.ConvHits += Now.Hits - Hits;
    L.ConvMisses += Now.Misses - Misses;
    L.SharedL2Hits += Now.Shared - Shared;
    L.Escalations += Now.Escalations - Escalations;
    L.PeakGeneratorRows =
        std::max(L.PeakGeneratorRows,
                 poly::numericCounters().PeakGeneratorRows.load());
  }
};

void printSummary(Json &J) { std::printf("PERFBENCH %s\n", J.dump().c_str()); }

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  return static_cast<bool>(Out);
}

analysis::TargetDomain targetDomain(const std::string &Name) {
  if (Name == "leia")
    return analysis::TargetDomain::Leia;
  if (Name == "bi")
    return analysis::TargetDomain::Bi;
  if (Name == "mdp")
    return analysis::TargetDomain::Mdp;
  return analysis::TargetDomain::None;
}

/// `--name=value` lookup over argv[From..].
std::optional<std::string> flag(int argc, char **argv, int From,
                                const char *Name) {
  std::string Prefix = std::string("--") + Name + "=";
  for (int I = From; I < argc; ++I)
    if (std::strncmp(argv[I], Prefix.c_str(), Prefix.size()) == 0)
      return std::string(argv[I] + Prefix.size());
  return std::nullopt;
}

uint64_t flagUnsigned(int argc, char **argv, int From, const char *Name,
                      uint64_t Default) {
  std::optional<std::string> V = flag(argc, argv, From, Name);
  if (!V)
    return Default;
  std::optional<uint64_t> Parsed = support::parseUnsigned(*V);
  if (!Parsed) {
    std::fprintf(stderr, "error: --%s expects an unsigned integer\n", Name);
    std::exit(2);
  }
  return *Parsed;
}

std::vector<std::string> positional(int argc, char **argv, int From) {
  std::vector<std::string> Out;
  for (int I = From; I < argc; ++I)
    if (std::strncmp(argv[I], "--", 2) != 0)
      Out.push_back(argv[I]);
  return Out;
}

/// The planted assertion of a fuzz-shaped program (first statement of
/// main), as `pmaf verify-corpus` finds it.
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

/// verify-corpus's sampling tolerance for the soundness oracle.
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

constexpr unsigned GroundTruthRuns = 2000;

//===----------------------------------------------------------------------===//
// programs
//===----------------------------------------------------------------------===//

int runPrograms(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  const std::pair<const char *, const std::vector<benchmarks::BenchProgram> *>
      Tables[] = {{"leia", &benchmarks::leiaPrograms()},
                  {"bi", &benchmarks::biPrograms()},
                  {"mdp", &benchmarks::mdpPrograms()}};
  for (const auto &[Domain, Programs] : Tables)
    for (const benchmarks::BenchProgram &P : *Programs)
      if (!writeFile(Dir + "/" + Domain + "-" + P.Name + ".pp", P.Source)) {
        std::fprintf(stderr, "error: cannot write into %s\n", Dir.c_str());
        return 1;
      }
  return 0;
}

//===----------------------------------------------------------------------===//
// cli: the `pmaf <file> --domain=<d>` path, traced
//===----------------------------------------------------------------------===//

/// Mirrors tools/pmaf.cpp's analyze path with default flags and prints
/// the same report, so the answer checker reads both alike.
int runCli(const std::string &Path, const std::string &Domain, Tracer &T) {
  LayerCounters L;
  NumericSnapshot Before = NumericSnapshot::take();
  int Exit = 0;
  {
    Tracer::Span Root(T, "cli.analyze");
    std::string Source;
    if (!readFile(Path, Source)) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      return 1;
    }
    DiagnosticEngine Diags;
    Diags.setSource(Path, Source);
    std::unique_ptr<lang::Program> Prog;
    {
      Tracer::Span S(T, "lang.parse");
      lang::ParseResult Parsed = lang::parseProgram(Source, Diags);
      Prog = std::move(Parsed.Prog);
    }
    if (!Prog) {
      std::fprintf(stderr, "%s", Diags.renderAll().c_str());
      return 1;
    }
    {
      Tracer::Span S(T, "analysis.lint");
      analysis::LintOptions Opts;
      Opts.Domain = targetDomain(Domain);
      analysis::lintProgram(*Prog, Diags, Opts);
      Diags.sortByLocation();
    }
    if (Diags.hasErrors()) {
      std::fprintf(stderr, "%s", Diags.renderAll().c_str());
      return 1;
    }
    std::optional<cfg::ProgramGraph> Graph;
    {
      Tracer::Span S(T, "cfg.build");
      Graph.emplace(cfg::ProgramGraph::build(*Prog));
    }
    L.CfgNodes = Graph->numNodes();
    SolverInstrumentation Counters;
    checks::ChecksDb Db;
    std::string Report;
    if (Domain == "leia") {
      SolverOptions Opts;
      auto RunLeia = [&]<typename NumV>(std::type_identity<NumV>) {
        LeiaDomainT<NumV> Dom(*Prog);
        std::optional<AnalysisResult<typename LeiaDomainT<NumV>::Value>>
            Result;
        {
          Tracer::Span S(T, "core.solve");
          Result.emplace(solve(*Graph, Dom, Opts, &Counters));
        }
        {
          Tracer::Span S(T, "domains.render");
          for (unsigned P = 0; P != Graph->numProcs(); ++P) {
            Report += Prog->Procs[P].Name + "():\n";
            auto Invariants =
                Dom.describeInvariants(Result->Values[Graph->proc(P).Entry]);
            if (Invariants.empty())
              Report += "  (no expectation invariants)\n";
            for (const std::string &Inv : Invariants)
              Report += "  " + Inv + "\n";
          }
        }
        Tracer::Span S(T, "checks.check");
        checks::CheckerOptions COpts;
        COpts.Converged = Result->Stats.Converged;
        Db = checks::checkLeia(Dom, *Graph, Result->Values, COpts);
      };
      switch (Opts.Numeric) {
      case NumericBackend::Poly:
        RunLeia(std::type_identity<poly::Polyhedron>{});
        break;
      case NumericBackend::Ladder:
        RunLeia(std::type_identity<poly::LadderValue>{});
        break;
      case NumericBackend::Zones:
        RunLeia(std::type_identity<poly::Zones>{});
        break;
      case NumericBackend::Intervals:
        RunLeia(std::type_identity<poly::Intervals>{});
        break;
      }
    } else if (Domain == "bi") {
      BoolStateSpace Space(*Prog);
      BiDomain Dom(Space);
      SolverOptions Opts;
      Opts.UseWidening = false;
      std::optional<AnalysisResult<BiDomain::Value>> Result;
      {
        Tracer::Span S(T, "core.solve");
        Result.emplace(solve(*Graph, Dom, Opts, &Counters));
      }
      {
        Tracer::Span S(T, "domains.render");
        std::vector<double> Prior(Space.numStates(), 0.0);
        Prior[0] = 1.0;
        char Buf[128];
        for (unsigned P = 0; P != Graph->numProcs(); ++P) {
          Report += Prog->Procs[P].Name + "(): posterior from the all-false "
                                          "prior\n";
          std::vector<double> Post =
              Dom.posterior(Result->Values[Graph->proc(P).Entry], Prior);
          double Mass = 0.0;
          for (size_t St = 0; St != Post.size(); ++St) {
            Mass += Post[St];
            if (Post[St] > 1e-12) {
              std::snprintf(Buf, sizeof(Buf), "  %-30s %.6f\n",
                            Space.stateToString(St).c_str(), Post[St]);
              Report += Buf;
            }
          }
          std::snprintf(Buf, sizeof(Buf), "  terminating mass: %.6f\n", Mass);
          Report += Buf;
        }
      }
      Tracer::Span S(T, "checks.check");
      checks::CheckerOptions COpts;
      COpts.Converged = Result->Stats.Converged;
      Db = checks::checkBiSummaries(
          Space, *Graph, [&](unsigned N) { return Result->Values[N]; },
          COpts);
    } else if (Domain == "mdp") {
      MdpDomain Dom;
      SolverOptions Opts;
      Opts.WideningDelay = 10000;
      std::optional<AnalysisResult<double>> Result;
      {
        Tracer::Span S(T, "core.solve");
        Result.emplace(solve(*Graph, Dom, Opts, &Counters));
      }
      {
        Tracer::Span S(T, "domains.render");
        char Buf[256];
        for (unsigned P = 0; P != Graph->numProcs(); ++P) {
          std::snprintf(Buf, sizeof(Buf),
                        "%s(): greatest expected reward = %g\n",
                        Prog->Procs[P].Name.c_str(),
                        Result->Values[Graph->proc(P).Entry]);
          Report += Buf;
        }
      }
      Tracer::Span S(T, "checks.check");
      checks::CheckerOptions COpts;
      COpts.Converged = Result->Stats.Converged;
      Db = checks::checkMdp(*Graph, Result->Values, COpts);
    } else {
      std::fprintf(stderr, "error: unknown domain %s\n", Domain.c_str());
      return 2;
    }
    std::fputs(Report.c_str(), stdout);
    L.addSolver(Counters);
    Exit = Db.count(checks::Verdict::Error) ? 1
           : Counters.LastConverged         ? 0
                                            : 3;
  }
  Before.addDeltaTo(L);
  Json Summary = Json::object();
  L.toJson(Summary);
  Summary.set("exit", Json::number(Exit));
  printSummary(Summary);
  return 0;
}

//===----------------------------------------------------------------------===//
// edits: the served-edits inputs and their reference answers
//===----------------------------------------------------------------------===//

/// The served-edits program shape: BoolGenConfig::callHeavy() scaled to
/// 7 Boolean variables and 5 helpers.
testgen::BoolGenConfig editConfig() {
  testgen::BoolGenConfig C = testgen::BoolGenConfig::callHeavy();
  C.NumVars = 7;
  C.HelperProcs = 5;
  // Without observe the only lost mass is divergence, so the planted
  // assertion's mass bounds are tight and its verdict decided: the
  // assertion is there to check answers, and corpus-verify measures
  // precision.
  C.ObserveWeight = 0;
  return C;
}

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  return Seed * 0x9e3779b97f4a7c15ull + Stream * 0xbf58476d1ce4e5b9ull + 1;
}

/// Session \p S's base program: a call-heavy program whose main starts
/// with a planted `assert_prob` and a constant prologue (the decisive
/// corpus shape, so the assertion's verdict depends on the helpers).
///
/// The base programs do not depend on the workload seed: an edit's cost
/// is mostly its session program's, so with seeded bases eight programs
/// set a run's figures and they moved by a quarter from seed to seed.
/// The seed draws the edit stream: which helper, and its new body.
std::unique_ptr<lang::Program> editBase(unsigned S) {
  constexpr uint64_t BaseSeed = 1;
  Rng R(mixSeed(BaseSeed, S));
  std::unique_ptr<lang::Program> Prog =
      testgen::randomBoolProgram(R, editConfig());
  lang::Stmt::Ptr Assertion = checks::fuzz::randomProbAssertion(R, *Prog);
  checks::fuzz::plantAssertion(*Prog, std::move(Assertion),
                               checks::fuzz::randomInitPrologue(R, *Prog));
  return Prog;
}

/// Cold reference answer of one source through an in-process Session:
/// the same code path pmafd runs, without the incremental machinery.
struct Reference {
  bool Ok = false;
  std::string Fingerprint;
  int Exit = 0;
  uint64_t ChecksTotal = 0, ChecksDecided = 0;
  std::string Violation; ///< Non-empty when the verdict contradicts the
                         ///< concrete interpreter's estimate.
};

Reference referenceFor(const std::string &Source, uint64_t GtSeed) {
  Reference Ref;
  server::Session S;
  server::LoadReply LR = S.load(Source, "bi", NumericBackend::Ladder);
  if (!LR.Ok) {
    Ref.Violation = "load failed: " + LR.Error;
    return Ref;
  }
  server::AnalyzeRequest Req;
  Req.Affinity = true;
  server::AnalyzeReply AR = S.analyze(Req);
  if (!AR.Ok || !AR.Converged) {
    Ref.Violation = "cold analyze failed: " + AR.Error;
    return Ref;
  }
  Ref.Ok = true;
  Ref.Fingerprint = AR.Fingerprint;
  Ref.Exit = AR.Exit;
  Ref.ChecksTotal = AR.Checks.total();
  Ref.ChecksDecided = AR.Checks.count(checks::Verdict::Safe) +
                      AR.Checks.count(checks::Verdict::Error);
  // The planted assertion is the program's only one; judge its verdict
  // against the concrete semantics.
  lang::ParseResult Parsed = lang::parseProgram(Source);
  const lang::Stmt *Planted = Parsed ? plantedAssertion(*Parsed.Prog) : nullptr;
  if (!Planted || AR.Checks.total() != 1) {
    Ref.Violation = "expected exactly one planted assertion";
    return Ref;
  }
  checks::fuzz::GroundTruth GT = checks::fuzz::estimateGroundTruth(
      *Parsed.Prog, *Planted, GtSeed, GroundTruthRuns);
  Ref.Violation = checks::fuzz::soundnessViolation(
      *Planted, AR.Checks.records()[0].TheVerdict, GT,
      soundnessTol(*Planted, GroundTruthRuns));
  return Ref;
}

/// One served-edits session: its base program and \p Variants edits,
/// each with its reference answer.
Json editSession(uint64_t Seed, unsigned S, unsigned Variants) {
  const testgen::BoolGenConfig C = editConfig();
  std::string BaseSource = lang::toString(*editBase(S));
  Reference BaseRef = referenceFor(BaseSource, mixSeed(Seed, 1000 + S));
  Json Sess = Json::object();
  Sess.set("base", Json::string(BaseSource));
  Sess.set("base_fingerprint", Json::string(BaseRef.Fingerprint));
  Json VarList = Json::array();
  Rng Pick(mixSeed(Seed, 2000 + S));
  for (unsigned V = 0; V != Variants; ++V) {
    // A donor program of the same shape supplies helper K's new body;
    // its callees are helpers after K or K itself, exactly as the
    // generator draws them, so the call DAG stays intact.
    unsigned K = 1 + static_cast<unsigned>(Pick.below(C.HelperProcs));
    Rng DonorRng(mixSeed(Seed, 100000 + S * 1000 + V));
    std::unique_ptr<lang::Program> Donor =
        testgen::randomBoolProgram(DonorRng, C);
    std::unique_ptr<lang::Program> Variant = editBase(S);
    Variant->Procs[K].Body = std::move(Donor->Procs[K].Body);
    std::string Source = lang::toString(*Variant);
    Reference Ref = referenceFor(Source, mixSeed(Seed, 3000 + S * 1000 + V));
    Json VarJ = Json::object();
    VarJ.set("helper", Json::string(Variant->Procs[K].Name));
    VarJ.set("source", Json::string(Source));
    VarJ.set("ok", Json::boolean(Ref.Ok));
    VarJ.set("fingerprint", Json::string(Ref.Fingerprint));
    VarJ.set("exit", Json::number(Ref.Exit));
    VarJ.set("checks_total", Json::number(Ref.ChecksTotal));
    VarJ.set("checks_decided", Json::number(Ref.ChecksDecided));
    VarJ.set("violation", Json::string(Ref.Violation));
    VarList.push(std::move(VarJ));
  }
  Sess.set("variants", std::move(VarList));
  return Sess;
}

int runEdits(const std::string &OutPath, uint64_t Seed, unsigned Sessions,
             unsigned Variants) {
  // Sessions share nothing, so up to 4 threads build them; this is input
  // preparation, outside every timed section.
  std::vector<Json> Built(Sessions);
  {
    const unsigned Threads = std::min(Sessions, 4u);
    std::vector<std::jthread> Workers;
    for (unsigned W = 0; W != Threads; ++W)
      Workers.emplace_back([&Built, Seed, Sessions, Variants, Threads, W] {
        for (unsigned S = W; S < Sessions; S += Threads)
          Built[S] = editSession(Seed, S, Variants);
      });
  }
  Json Root = Json::object();
  Root.set("seed", Json::number(Seed));
  Json SessionList = Json::array();
  for (Json &Sess : Built)
    SessionList.push(std::move(Sess));
  Root.set("sessions", std::move(SessionList));
  if (!writeFile(OutPath, Root.dump() + "\n")) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// edits-trace: the served-edits operation through server::Session
//===----------------------------------------------------------------------===//

struct ServerTimes {
  double Solve = 0.0;
  uint64_t TransformersReused = 0, TransformersTotal = 0;
  uint64_t NodesReused = 0, NodesTotal = 0;
};

void addReply(const server::AnalyzeReply &AR, ServerTimes &St,
              LayerCounters &L) {
  St.Solve += AR.SolveSeconds;
  St.TransformersReused += AR.Reuse.TransformersReused;
  St.TransformersTotal += AR.Reuse.TransformersTotal;
  St.NodesReused += AR.Reuse.NodesReused;
  St.NodesTotal += AR.Reuse.NodesTotal;
  L.addStats(AR.Stats);
}

void serverJson(const ServerTimes &St, Json &J) {
  J.set("server_solve_s", Json::number(St.Solve));
  J.set("transformers_reused", Json::number(St.TransformersReused));
  J.set("transformers_total", Json::number(St.TransformersTotal));
  J.set("nodes_reused", Json::number(St.NodesReused));
  J.set("nodes_total", Json::number(St.NodesTotal));
}

/// BI front end + solve + checker on one source, outside the Session, so
/// the layers Session hides (parse, lint, lowering, checks) get spans.
void biPipeline(const std::string &Source, Tracer &T, LayerCounters &L) {
  std::unique_ptr<lang::Program> Prog;
  {
    Tracer::Span S(T, "lang.parse");
    Prog = lang::parseProgram(Source).Prog;
  }
  if (!Prog)
    return;
  {
    Tracer::Span S(T, "analysis.lint");
    DiagnosticEngine Diags;
    analysis::LintOptions Opts;
    Opts.Domain = analysis::TargetDomain::Bi;
    analysis::lintProgram(*Prog, Diags, Opts);
  }
  std::optional<cfg::ProgramGraph> Graph;
  {
    Tracer::Span S(T, "cfg.build");
    Graph.emplace(cfg::ProgramGraph::build(*Prog));
  }
  L.CfgNodes += Graph->numNodes();
  BoolStateSpace Space(*Prog);
  BiDomain Dom(Space);
  SolverOptions Opts;
  Opts.UseWidening = false;
  SolverInstrumentation Counters;
  std::optional<AnalysisResult<BiDomain::Value>> Result;
  {
    // A cold solve, unlike the session's warm one: its own span name keeps
    // it out of core.solve.
    Tracer::Span S(T, "core.solve.shadow");
    Result.emplace(solve(*Graph, Dom, Opts, &Counters));
  }
  Tracer::Span S(T, "checks.check");
  checks::CheckerOptions COpts;
  COpts.Converged = Result->Stats.Converged;
  checks::checkBiSummaries(
      Space, *Graph, [&](unsigned N) { return Result->Values[N]; }, COpts);
}

int runEditsTrace(const std::string &EditsPath, unsigned Ops, Tracer &T) {
  std::string Text;
  std::optional<Json> Edits;
  if (!readFile(EditsPath, Text) || !(Edits = Json::parse(Text))) {
    std::fprintf(stderr, "error: cannot read %s\n", EditsPath.c_str());
    return 1;
  }
  const std::vector<Json> &Sessions = Edits->get("sessions")->items();
  std::vector<std::unique_ptr<server::Session>> Live;
  T.pause(true);
  for (const Json &Sess : Sessions) {
    Live.push_back(std::make_unique<server::Session>());
    Live.back()->load(Sess.get("base")->asString(), "bi",
                      NumericBackend::Ladder);
    server::AnalyzeRequest Req;
    Req.Affinity = true;
    Live.back()->analyze(Req);
  }
  T.pause(false);

  NumericSnapshot Before = NumericSnapshot::take();
  LayerCounters L, Shadow;
  ServerTimes St;
  uint64_t Mismatches = 0;
  for (unsigned Op = 0; Op != Ops; ++Op) {
    // Sessions take turns, as the two pmafd clients' requests interleave.
    unsigned S = Op % Sessions.size();
    const std::vector<Json> &Vars = Sessions[S].get("variants")->items();
    const Json &Var = Vars[(Op / Sessions.size()) % Vars.size()];
    const std::string &Source = Var.get("source")->asString();
    T.setOp(Op + 1);
    Tracer::Span Root(T, "served.edit_analyze");
    {
      Tracer::Span Sp(T, "server.edit");
      Live[S]->edit(Source);
    }
    server::AnalyzeReply AR;
    {
      Tracer::Span Sp(T, "server.analyze");
      server::AnalyzeRequest Req;
      Req.Affinity = true;
      AR = Live[S]->analyze(Req);
    }
    addReply(AR, St, L);
    if (!AR.Ok || AR.Fingerprint != Var.get("fingerprint")->asString())
      ++Mismatches;
    Tracer::Span Sp(T, "served.shadow_pipeline");
    biPipeline(Source, T, Shadow);
  }
  Before.addDeltaTo(L);
  Json Summary = Json::object();
  L.CfgNodes = Shadow.CfgNodes;
  L.toJson(Summary);
  serverJson(St, Summary);
  Summary.set("ops", Json::number(uint64_t(Ops)));
  Summary.set("mismatches", Json::number(Mismatches));
  printSummary(Summary);
  return 0;
}

//===----------------------------------------------------------------------===//
// leia-reference / leia-trace: the 13 LEIA programs as resident sessions
//===----------------------------------------------------------------------===//

std::vector<std::pair<std::string, std::string>>
leiaSources(const std::string &Dir) {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const benchmarks::BenchProgram &P : benchmarks::leiaPrograms()) {
    std::string Source;
    if (!readFile(Dir + "/leia-" + P.Name + ".pp", Source)) {
      std::fprintf(stderr, "error: missing %s/leia-%s.pp\n", Dir.c_str(),
                   P.Name);
      std::exit(1);
    }
    Out.emplace_back(P.Name, std::move(Source));
  }
  return Out;
}

int runLeiaReference(const std::string &Dir, const std::string &OutPath) {
  Json Root = Json::object();
  for (const auto &[Name, Source] : leiaSources(Dir)) {
    Json Entry = Json::object();
    server::Session S;
    server::LoadReply LR = S.load(Source, "leia", NumericBackend::Ladder);
    server::AnalyzeRequest Req;
    Req.Affinity = true;
    server::AnalyzeReply AR;
    if (LR.Ok)
      AR = S.analyze(Req);
    Entry.set("ok", Json::boolean(LR.Ok && AR.Ok && AR.Converged));
    Entry.set("fingerprint", Json::string(AR.Fingerprint));
    Entry.set("exit", Json::number(AR.Exit));
    // The invariants of the same program, solved directly with the
    // session's (and the CLI's) default backend.
    std::unique_ptr<lang::Program> Prog = lang::parseProgram(Source).Prog;
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    LeiaDomainT<poly::LadderValue> Dom(*Prog);
    auto Result = solve(Graph, Dom, SolverOptions{});
    Json Procs = Json::object();
    for (unsigned P = 0; P != Graph.numProcs(); ++P) {
      Json Invs = Json::array();
      for (const std::string &Inv :
           Dom.describeInvariants(Result.Values[Graph.proc(P).Entry]))
        Invs.push(Json::string(Inv));
      Procs.set(Prog->Procs[P].Name, std::move(Invs));
    }
    Entry.set("invariants", std::move(Procs));
    Root.set(Name, std::move(Entry));
  }
  if (!writeFile(OutPath, Root.dump() + "\n")) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  return 0;
}

int runLeiaTrace(const std::string &Dir, unsigned Passes, Tracer &T) {
  auto Sources = leiaSources(Dir);
  std::vector<std::unique_ptr<server::Session>> Live;
  // Loads and the cold first pass are the workload's set-up; the traced
  // section is the warm regime the measured operations run in.
  T.pause(true);
  for (const auto &[Name, Source] : Sources) {
    Live.push_back(std::make_unique<server::Session>());
    Live.back()->load(Source, "leia", NumericBackend::Ladder);
    server::AnalyzeRequest Req;
    Req.Affinity = true;
    Live.back()->analyze(Req);
  }
  T.pause(false);
  poly::resetNumericPeaks();
  NumericSnapshot Before = NumericSnapshot::take();
  LayerCounters L;
  ServerTimes St;
  Json Fingerprints = Json::object();
  uint64_t Op = 0;
  for (unsigned Pass = 0; Pass != Passes; ++Pass)
    for (size_t I = 0; I != Live.size(); ++I) {
      T.setOp(++Op);
      Tracer::Span Root(T, "served.analyze");
      server::AnalyzeReply AR;
      {
        Tracer::Span Sp(T, "server.analyze");
        server::AnalyzeRequest Req;
        Req.Affinity = true;
        Req.Cold = true;
        AR = Live[I]->analyze(Req);
      }
      addReply(AR, St, L);
      Fingerprints.set(Sources[I].first + "#" + std::to_string(Pass),
                       Json::string(AR.Ok ? AR.Fingerprint : "error"));
    }
  Before.addDeltaTo(L);
  Json Summary = Json::object();
  L.toJson(Summary);
  serverJson(St, Summary);
  Summary.set("ops", Json::number(Op));
  Summary.set("fingerprints", std::move(Fingerprints));
  printSummary(Summary);
  return 0;
}

//===----------------------------------------------------------------------===//
// corpus-trace: verify-corpus's per-file pipeline, sequential
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

/// verify-corpus's domain auto-detection.
std::string detectDomain(const lang::Program &Prog) {
  for (const lang::VarInfo &V : Prog.Vars)
    if (V.IsReal)
      return "leia";
  for (const lang::Procedure &P : Prog.Procs)
    if (P.Body && stmtContainsKind(*P.Body, lang::Stmt::Kind::Reward))
      return "mdp";
  return "bi";
}

int runCorpusTrace(const std::vector<std::string> &Files, unsigned Runs,
                   Tracer &T) {
  LayerCounters L;
  NumericSnapshot Before = NumericSnapshot::take();
  uint64_t Violations = 0, Failed = 0;
  // verify-corpus's default --seed is 1; file I's oracle seed follows it.
  const uint64_t CorpusSeed = 1;
  for (size_t I = 0; I != Files.size(); ++I) {
    T.setOp(I + 1);
    Tracer::Span Root(T, "corpus.file");
    std::string Source;
    if (!readFile(Files[I], Source)) {
      ++Failed;
      continue;
    }
    DiagnosticEngine Diags;
    std::unique_ptr<lang::Program> Prog;
    {
      Tracer::Span S(T, "lang.parse");
      Prog = lang::parseProgram(Source, Diags).Prog;
    }
    if (!Prog) {
      ++Failed;
      continue;
    }
    std::string Domain = detectDomain(*Prog);
    {
      Tracer::Span S(T, "analysis.lint");
      analysis::LintOptions Opts;
      Opts.Domain = targetDomain(Domain);
      analysis::lintProgram(*Prog, Diags, Opts);
    }
    if (Diags.hasErrors()) {
      ++Failed;
      continue;
    }
    std::optional<cfg::ProgramGraph> Graph;
    {
      Tracer::Span S(T, "cfg.build");
      Graph.emplace(cfg::ProgramGraph::build(*Prog));
    }
    L.CfgNodes += Graph->numNodes();
    SolverInstrumentation Counters;
    checks::ChecksDb Db;
    bool Converged = true;
    SolverOptions SOpts;
    SOpts.Jobs = 1;
    SOpts.MaxUpdates = 200000;
    if (Domain == "bi") {
      BoolStateSpace Space(*Prog);
      BiDomain Dom(Space);
      SOpts.UseWidening = false;
      std::optional<AnalysisResult<BiDomain::Value>> Result;
      {
        Tracer::Span S(T, "core.solve");
        Result.emplace(solve(*Graph, Dom, SOpts, &Counters));
      }
      Converged = Result->Stats.Converged;
      Tracer::Span S(T, "checks.check");
      checks::CheckerOptions COpts;
      COpts.Converged = Converged;
      Db = checks::checkBiSummaries(
          Space, *Graph, [&](unsigned N) { return Result->Values[N]; },
          COpts);
    } else if (Domain == "mdp") {
      MdpDomain Dom;
      SOpts.WideningDelay = 10000;
      std::optional<AnalysisResult<double>> Result;
      {
        Tracer::Span S(T, "core.solve");
        Result.emplace(solve(*Graph, Dom, SOpts, &Counters));
      }
      Converged = Result->Stats.Converged;
      Tracer::Span S(T, "checks.check");
      checks::CheckerOptions COpts;
      COpts.Converged = Converged;
      Db = checks::checkMdp(*Graph, Result->Values, COpts);
    } else {
      // verify-corpus analyzes LEIA corpus files over zones.
      LeiaDomainT<poly::Zones> Dom(*Prog);
      std::optional<AnalysisResult<LeiaDomainT<poly::Zones>::Value>> Result;
      {
        Tracer::Span S(T, "core.solve");
        Result.emplace(solve(*Graph, Dom, SOpts, &Counters));
      }
      Converged = Result->Stats.Converged;
      Tracer::Span S(T, "checks.check");
      checks::CheckerOptions COpts;
      COpts.Converged = Converged;
      Db = checks::checkLeia(Dom, *Graph, Result->Values, COpts);
    }
    L.addSolver(Counters);
    const lang::Stmt *Planted = plantedAssertion(*Prog);
    if (!Planted || !Converged)
      continue;
    auto Asserts = checks::collectAssertions(*Graph);
    for (size_t A = 0; A != Asserts.size(); ++A) {
      if (Asserts[A].second != Planted)
        continue;
      checks::fuzz::GroundTruth GT;
      {
        Tracer::Span S(T, "concrete.ground_truth");
        GT = checks::fuzz::estimateGroundTruth(
            *Prog, *Planted, CorpusSeed + I * 0x9e3779b97f4a7c15ull, Runs);
      }
      if (!checks::fuzz::soundnessViolation(
               *Planted, Db.records()[A].TheVerdict, GT,
               soundnessTol(*Planted, Runs))
               .empty())
        ++Violations;
      break;
    }
  }
  Before.addDeltaTo(L);
  Json Summary = Json::object();
  L.toJson(Summary);
  Summary.set("ops", Json::number(uint64_t(Files.size())));
  Summary.set("failed", Json::number(Failed));
  Summary.set("soundness_violations", Json::number(Violations));
  printSummary(Summary);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_helper programs <dir>\n"
               "       perfbench_helper edits <out.json> --seed=N "
               "--sessions=S --variants=V\n"
               "       perfbench_helper leia-reference <dir> <out.json>\n"
               "       perfbench_helper cli <file.pp> <domain> "
               "[--trace-out=F]\n"
               "       perfbench_helper edits-trace <edits.json> --ops=N "
               "[--trace-out=F]\n"
               "       perfbench_helper leia-trace <dir> --passes=P "
               "[--trace-out=F]\n"
               "       perfbench_helper corpus-trace <file.pp>... --runs=R "
               "[--trace-out=F]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  const std::string Cmd = argv[1];
  const std::vector<std::string> Args = positional(argc, argv, 2);
  std::optional<std::string> TraceOut = flag(argc, argv, 2, "trace-out");
  Tracer T(TraceOut.has_value());

  int Rc = 2;
  if (Cmd == "programs" && Args.size() == 1)
    return runPrograms(Args[0]);
  if (Cmd == "edits" && Args.size() == 1)
    return runEdits(Args[0], flagUnsigned(argc, argv, 2, "seed", 1),
                    flagUnsigned(argc, argv, 2, "sessions", 2),
                    flagUnsigned(argc, argv, 2, "variants", 16));
  if (Cmd == "leia-reference" && Args.size() == 2)
    return runLeiaReference(Args[0], Args[1]);
  if (Cmd == "cli" && Args.size() == 2)
    Rc = runCli(Args[0], Args[1], T);
  else if (Cmd == "edits-trace" && Args.size() == 1)
    Rc = runEditsTrace(Args[0], flagUnsigned(argc, argv, 2, "ops", 20), T);
  else if (Cmd == "leia-trace" && Args.size() == 1)
    Rc = runLeiaTrace(Args[0], flagUnsigned(argc, argv, 2, "passes", 2), T);
  else if (Cmd == "corpus-trace" && !Args.empty())
    Rc = runCorpusTrace(Args, flagUnsigned(argc, argv, 2, "runs", 2000), T);
  else
    return usage();
  if (TraceOut && !T.write(*TraceOut)) {
    std::fprintf(stderr, "error: cannot write %s\n", TraceOut->c_str());
    return 1;
  }
  return Rc;
}
