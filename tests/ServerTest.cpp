//===- tests/ServerTest.cpp - Daemon, sessions, incremental solving -------===//
//
// Part of the PMAF reproduction. MIT license.
//
// Three layers of coverage for the pmafd stack:
//
//  1. Solver warm-starts (core::WarmStart): for every procedure of
//     multi-procedure programs — the paper benchmarks and the random
//     program families — re-solving with that procedure's dependence
//     closure dirty must reproduce the cold fixpoint bit-for-bit.
//
//  2. Sessions: editing each procedure body in turn, the incremental
//     analyze must report the same fingerprint and the same checker
//     verdicts as a from-scratch session over the edited source, and
//     report reuse only when it warm-started (zero on cold solves).
//
//  3. The wire protocol: JSON value semantics (strict unsigned reads,
//     escaping, round-trips) and a live socket conversation against an
//     in-process Daemon, including the stable error codes.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Programs.h"
#include "cfg/HyperGraph.h"
#include "cfg/Wto.h"
#include "core/CompiledProgram.h"
#include "core/Instrumentation.h"
#include "core/Solver.h"
#include "domains/BiDomain.h"
#include "domains/LeiaDomain.h"
#include "domains/MdpDomain.h"
#include "lang/Ast.h"
#include "lang/Parser.h"
#include "server/Daemon.h"
#include "server/Protocol.h"
#include "server/Session.h"
#include "support/Diagnostics.h"

#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <regex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace pmaf;
using namespace pmaf::testgen;

namespace {

std::unique_ptr<lang::Program> parseOrDie(const std::string &Source) {
  DiagnosticEngine Diags;
  lang::ParseResult Parsed = lang::parseProgram(Source, Diags);
  EXPECT_TRUE(Parsed) << Diags.renderAll();
  return std::move(Parsed.Prog);
}

/// Nodes of procedure \p P — the seed set of an edit to its body.
std::vector<unsigned> nodesOfProc(const cfg::ProgramGraph &Graph,
                                  unsigned P) {
  std::vector<unsigned> Nodes;
  for (unsigned V = 0; V != Graph.numNodes(); ++V)
    if (Graph.procOf(V) == P)
      Nodes.push_back(V);
  return Nodes;
}

/// Cold-solves \p Graph, then for every procedure re-solves warm with that
/// procedure's dependence closure dirty and demands value-identical
/// fixpoints. \p Configure applies the domain's solver preset.
template <typename D, typename ConfigureFn>
void expectWarmMatchesCold(D &Dom, const cfg::ProgramGraph &Graph,
                           ConfigureFn Configure) {
  core::CompiledProgram<D> Compiled(Graph, Dom);
  core::SolverOptions Opts;
  Configure(Opts);
  auto Cold = core::solve(Compiled, Opts);
  ASSERT_TRUE(Cold.Stats.Converged);
  for (unsigned P = 0; P != Graph.numProcs(); ++P) {
    core::WarmStart<typename D::Value> Warm;
    Warm.Values = Cold.Values;
    Warm.Dirty =
        cfg::reachableFrom(Compiled.dependents(), nodesOfProc(Graph, P));
    auto WarmRes = core::solve(Compiled, Opts, nullptr, &Warm);
    ASSERT_TRUE(WarmRes.Stats.Converged);
    ASSERT_EQ(WarmRes.Values.size(), Cold.Values.size());
    for (unsigned V = 0; V != Graph.numNodes(); ++V)
      EXPECT_TRUE(Dom.equal(WarmRes.Values[V], Cold.Values[V]))
          << "proc " << P << " node " << V;
    uint64_t CleanNodes = 0;
    for (char Dirty : Warm.Dirty)
      CleanNodes += Dirty == 0;
    EXPECT_EQ(WarmRes.Stats.NodesReused, CleanNodes);
  }
}

void expectBiWarmMatchesCold(const lang::Program &Prog) {
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(Prog);
  domains::BoolStateSpace Space(Prog);
  domains::BiDomain Dom(Space);
  expectWarmMatchesCold(Dom, Graph, [](core::SolverOptions &O) {
    O.UseWidening = false;
  });
}

} // namespace

//===----------------------------------------------------------------------===//
// 1. Solver warm-starts
//===----------------------------------------------------------------------===//

TEST(ServerSolverTest, BiWarmStartBitIdenticalOnBenchmarks) {
  for (const benchmarks::BenchProgram &BP : benchmarks::biPrograms()) {
    auto Prog = parseOrDie(BP.Source);
    ASSERT_TRUE(Prog) << BP.Name;
    expectBiWarmMatchesCold(*Prog);
  }
}

TEST(ServerSolverTest, BiWarmStartBitIdenticalOnRandomFamilies) {
  for (const BoolGenConfig &Config :
       {BoolGenConfig::callHeavy(), BoolGenConfig::mixed()}) {
    for (uint64_t Seed : {11u, 23u, 47u}) {
      Rng R(Seed);
      auto Prog = randomBoolProgram(R, Config);
      ASSERT_GT(Prog->Procs.size(), 1u);
      expectBiWarmMatchesCold(*Prog);
    }
  }
}

TEST(ServerSolverTest, MdpWarmStartBitIdenticalOnBenchmarks) {
  for (const benchmarks::BenchProgram &BP : benchmarks::mdpPrograms()) {
    auto Prog = parseOrDie(BP.Source);
    ASSERT_TRUE(Prog) << BP.Name;
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    domains::MdpDomain Dom;
    expectWarmMatchesCold(Dom, Graph, [](core::SolverOptions &O) {
      O.WideningDelay = 10000;
    });
  }
}

TEST(ServerSolverTest, LeiaWarmStartBitIdenticalOnRandomPrograms) {
  for (uint64_t Seed : {5u, 19u}) {
    Rng R(Seed);
    auto Prog = randomRealProgram(R, 3, 4);
    cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
    domains::LeiaDomainT<poly::LadderValue> Dom(*Prog);
    expectWarmMatchesCold(Dom, Graph, [](core::SolverOptions &) {});
  }
}

//===----------------------------------------------------------------------===//
// 2. Sessions: incremental edits vs from-scratch
//===----------------------------------------------------------------------===//

namespace {

/// Edits procedure \p P of the seeded program \p SeedA by splicing in the
/// same procedure's body from the differently-seeded sibling \p SeedB
/// (same generator config, so the variable table and procedure skeleton
/// are unchanged and the edit stays body-only).
std::string splicedEdit(const BoolGenConfig &Config, uint64_t SeedA,
                        uint64_t SeedB, unsigned P) {
  Rng RA(SeedA);
  auto A = randomBoolProgram(RA, Config);
  Rng RB(SeedB);
  auto B = randomBoolProgram(RB, Config);
  A->Procs[P].Body = std::move(B->Procs[P].Body);
  return lang::toString(*A);
}

/// The WTO components of \p Source's graph (components nested in
/// components included): what a warm start splits into skipped and
/// re-resolved ones.
uint64_t countComponents(const std::string &Source) {
  auto Prog = parseOrDie(Source);
  cfg::ProgramGraph Graph = cfg::ProgramGraph::build(*Prog);
  domains::BoolStateSpace Space(*Prog);
  domains::BiDomain Dom(Space);
  core::CompiledProgram<domains::BiDomain> Compiled(Graph, Dom);
  auto Count = [](const auto &Self, const cfg::WtoElement &E) -> uint64_t {
    uint64_t N = E.IsComponent;
    for (const cfg::WtoElement &Child : E.Body)
      N += Self(Self, Child);
    return N;
  };
  uint64_t N = 0;
  for (const cfg::WtoElement &E : Compiled.wto().Elements)
    N += Count(Count, E);
  return N;
}

/// A cold solve reuses nothing.
void expectNoReuse(const server::AnalyzeReply &R) {
  EXPECT_FALSE(R.Reuse.Incremental);
  EXPECT_EQ(R.Reuse.NodesReused, 0u);
  EXPECT_EQ(R.Reuse.SccsSkipped, 0u);
  EXPECT_EQ(R.Reuse.SccsResolved, 0u);
}

void expectSessionEditBitIdentical(const BoolGenConfig &Config,
                                   uint64_t SeedA, uint64_t SeedB) {
  Rng RA(SeedA);
  auto A = randomBoolProgram(RA, Config);
  const std::string SourceA = lang::toString(*A);
  const unsigned NumProcs = static_cast<unsigned>(A->Procs.size());
  for (unsigned P = 0; P != NumProcs; ++P) {
    const std::string Edited = splicedEdit(Config, SeedA, SeedB, P);

    server::Session Warm;
    server::LoadReply LR =
        Warm.load(SourceA, "bi", core::NumericBackend::Ladder);
    ASSERT_TRUE(LR.Ok) << LR.Error;
    server::AnalyzeRequest Req;
    server::AnalyzeReply First = Warm.analyze(Req);
    ASSERT_TRUE(First.Ok) << First.Error;
    ASSERT_TRUE(First.Converged);
    expectNoReuse(First);
    server::EditReply ER = Warm.edit(Edited);
    ASSERT_TRUE(ER.Ok) << ER.Error;
    EXPECT_FALSE(ER.FullRebuild);
    server::AnalyzeReply Incremental = Warm.analyze(Req);
    ASSERT_TRUE(Incremental.Ok) << Incremental.Error;
    ASSERT_TRUE(Incremental.Converged);

    server::Session Cold;
    ASSERT_TRUE(Cold.load(Edited, "bi", core::NumericBackend::Ladder).Ok);
    server::AnalyzeReply FromScratch = Cold.analyze(Req);
    ASSERT_TRUE(FromScratch.Ok) << FromScratch.Error;
    ASSERT_TRUE(FromScratch.Converged);
    expectNoReuse(FromScratch);

    // The incremental fixpoint, its checker verdicts, and the exit code
    // must be indistinguishable from a from-scratch solve.
    EXPECT_EQ(Incremental.Fingerprint, FromScratch.Fingerprint)
        << "config proc " << P;
    EXPECT_EQ(Incremental.ChecksJson, FromScratch.ChecksJson);
    EXPECT_EQ(Incremental.Exit, FromScratch.Exit);
    if (!ER.ChangedProcs.empty()) {
      EXPECT_TRUE(Incremental.Reuse.Incremental);
      if (ER.DirtyNodes < ER.TotalNodes) {
        EXPECT_GT(Incremental.Reuse.NodesReused, 0u);
      }
    }
    if (Incremental.Reuse.Incremental) {
      EXPECT_EQ(Incremental.Reuse.SccsSkipped + Incremental.Reuse.SccsResolved,
                countComponents(Edited))
          << "config proc " << P;
    }
  }
}

} // namespace

TEST(ServerSessionTest, EditEachProcedureBitIdenticalCallHeavy) {
  expectSessionEditBitIdentical(BoolGenConfig::callHeavy(), 101, 202);
}

TEST(ServerSessionTest, EditEachProcedureBitIdenticalMixed) {
  expectSessionEditBitIdentical(BoolGenConfig::mixed(), 303, 404);
}

TEST(ServerSessionTest, HelperEditReusesMostTransformerSlots) {
  // A small helper next to a large main: editing the helper must keep at
  // least half the transformer slots (the ISSUE's SERVED acceptance bar).
  const std::string Source = R"(
    bool a, b, c;
    proc helper() { c ~ bernoulli(1/4); }
    proc main() {
      a ~ bernoulli(1/2);
      b ~ bernoulli(1/3);
      helper();
      a := b;
      b := c;
      c := a;
      a := b;
    }
  )";
  const std::string Edited = R"(
    bool a, b, c;
    proc helper() { c ~ bernoulli(3/4); }
    proc main() {
      a ~ bernoulli(1/2);
      b ~ bernoulli(1/3);
      helper();
      a := b;
      b := c;
      c := a;
      a := b;
    }
  )";
  server::Session S;
  ASSERT_TRUE(S.load(Source, "bi", core::NumericBackend::Ladder).Ok);
  ASSERT_TRUE(S.analyze({}).Ok);
  server::EditReply ER = S.edit(Edited);
  ASSERT_TRUE(ER.Ok) << ER.Error;
  ASSERT_EQ(ER.ChangedProcs, std::vector<std::string>{"helper"});
  server::AnalyzeReply AR = S.analyze({});
  ASSERT_TRUE(AR.Ok);
  EXPECT_TRUE(AR.Reuse.Incremental);
  ASSERT_GT(AR.Reuse.TransformersTotal, 0u);
  EXPECT_GE(AR.Reuse.TransformersReused * 2, AR.Reuse.TransformersTotal)
      << AR.Reuse.TransformersReused << "/" << AR.Reuse.TransformersTotal;
}

TEST(ServerSessionTest, ShapeChangesFallBackToFullRebuild) {
  server::Session S;
  ASSERT_TRUE(S.load("bool a; proc main() { a := true; }", "bi",
                     core::NumericBackend::Ladder)
                  .Ok);
  ASSERT_TRUE(S.analyze({}).Ok);
  // New variable: the state space changed, values cannot map across.
  server::EditReply ER =
      S.edit("bool a, b; proc main() { a := true; b := a; }");
  ASSERT_TRUE(ER.Ok) << ER.Error;
  EXPECT_TRUE(ER.FullRebuild);
  server::AnalyzeReply AR = S.analyze({});
  ASSERT_TRUE(AR.Ok);
  EXPECT_FALSE(AR.Reuse.Incremental);
  EXPECT_EQ(S.counters().FullRebuilds, 1u);
}

TEST(ServerSessionTest, BadEditsKeepThePriorProgramResident) {
  server::Session S;
  ASSERT_TRUE(S.load("bool a; proc main() { a := true; }", "bi",
                     core::NumericBackend::Ladder)
                  .Ok);
  server::AnalyzeReply Before = S.analyze({});
  ASSERT_TRUE(Before.Ok);
  server::EditReply Broken = S.edit("bool a; proc main() { a := }");
  EXPECT_FALSE(Broken.Ok);
  EXPECT_EQ(Broken.ErrorCode, "parse-error");
  // The session still answers with the old program, bit-identically.
  server::AnalyzeReply After = S.analyze({});
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(After.Fingerprint, Before.Fingerprint);
}

TEST(ServerSessionTest, AnalyzeBeforeLoadFails) {
  server::Session S;
  server::AnalyzeReply AR = S.analyze({});
  EXPECT_FALSE(AR.Ok);
  EXPECT_EQ(AR.ErrorCode, "no-program");
}

//===----------------------------------------------------------------------===//
// 3. Protocol: JSON semantics and the live daemon
//===----------------------------------------------------------------------===//

TEST(ProtocolJsonTest, RoundTripAndStrictUnsigned) {
  std::string Error;
  auto J = server::Json::parse(
      R"({"a": 7, "b": [1, 2.5, "x"], "c": {"d": true, "e": null}})",
      &Error);
  ASSERT_TRUE(J) << Error;
  ASSERT_TRUE(J->isObject());
  ASSERT_NE(J->get("a"), nullptr);
  EXPECT_EQ(J->get("a")->asUnsigned(), std::optional<uint64_t>(7));
  EXPECT_EQ(J->get("b")->items().size(), 3u);
  // Strictness: fractions, signs, and overflow never coerce.
  EXPECT_FALSE(server::Json::parse("1.5")->asUnsigned().has_value());
  EXPECT_FALSE(server::Json::parse("-2")->asUnsigned().has_value());
  EXPECT_FALSE(
      server::Json::parse("18446744073709551616")->asUnsigned().has_value());
  EXPECT_EQ(server::Json::parse("18446744073709551615")->asUnsigned(),
            std::optional<uint64_t>(UINT64_MAX));
  // Dump/parse round trip preserves structure and escapes.
  server::Json Obj = server::Json::object();
  Obj.set("s", server::Json::string("a\"b\\c\n\t"));
  Obj.set("n", server::Json::number(uint64_t(123456789012345ull)));
  auto Back = server::Json::parse(Obj.dump(), &Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_EQ(Back->get("s")->asString(), "a\"b\\c\n\t");
  EXPECT_EQ(Back->get("n")->asUnsigned(),
            std::optional<uint64_t>(123456789012345ull));
}

TEST(ProtocolJsonTest, ParseErrorsAreReported) {
  std::string Error;
  EXPECT_FALSE(server::Json::parse("{\"a\":}", &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(server::Json::parse("[1, 2", &Error));
  EXPECT_FALSE(server::Json::parse("{} trailing", &Error));
}

namespace {

/// A blocking protocol client for the in-process daemon.
class TestClient {
public:
  explicit TestClient(uint16_t Port) { open(Port); }
  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  server::Json request(const std::string &Payload) {
    EXPECT_TRUE(server::writeFrame(Fd, Payload));
    std::string Reply, Error;
    EXPECT_TRUE(server::readFrame(Fd, Reply, Error)) << Error;
    std::string ParseError;
    auto J = server::Json::parse(Reply, &ParseError);
    EXPECT_TRUE(J) << ParseError;
    return J ? *J : server::Json();
  }

private:
  void open(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    ASSERT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr), 0)
        << std::strerror(errno);
  }

  int Fd = -1;
};

std::string fieldString(const server::Json &J, const char *Key) {
  const server::Json *F = J.get(Key);
  return F ? F->asString() : std::string();
}

} // namespace

TEST(DaemonTest, LoadAnalyzeEditAnalyzeOverTheWire) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    server::Json Load = C.request(
        R"({"cmd":"load","source":"bool x; proc helper() { x ~ bernoulli(3/4); } proc main() { assert_prob(x) >= 1/2; helper(); }"})");
    EXPECT_TRUE(Load.get("ok") && Load.get("ok")->asBool());
    server::Json First = C.request(R"({"cmd":"analyze"})");
    ASSERT_TRUE(First.get("ok") && First.get("ok")->asBool());
    const std::string FirstFp = fieldString(First, "fingerprint");
    EXPECT_FALSE(FirstFp.empty());

    server::Json Edit = C.request(
        R"({"cmd":"edit","source":"bool x; proc helper() { x ~ bernoulli(7/8); } proc main() { assert_prob(x) >= 1/2; helper(); }"})");
    ASSERT_TRUE(Edit.get("ok") && Edit.get("ok")->asBool());
    server::Json Incr = C.request(R"({"cmd":"analyze"})");
    ASSERT_TRUE(Incr.get("ok") && Incr.get("ok")->asBool());
    const server::Json *Reuse = Incr.get("reuse");
    ASSERT_NE(Reuse, nullptr);
    EXPECT_TRUE(Reuse->get("incremental")->asBool());

    server::Json ColdAgain = C.request(R"({"cmd":"analyze","cold":true})");
    ASSERT_TRUE(ColdAgain.get("ok") && ColdAgain.get("ok")->asBool());
    EXPECT_EQ(fieldString(Incr, "fingerprint"),
              fieldString(ColdAgain, "fingerprint"));
    EXPECT_NE(fieldString(Incr, "fingerprint"), FirstFp);

    server::Json Stats = C.request(R"({"cmd":"stats"})");
    EXPECT_TRUE(Stats.get("ok") && Stats.get("ok")->asBool());
    EXPECT_EQ(Stats.get("solves")->asUnsigned(),
              std::optional<uint64_t>(3));
  }
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, AnalyzeReplyStatsAreTheRenderedRecord) {
  // The reply's "stats" is core::statsJson of the solve. The same cold
  // solve on a local Session must render identically, up to the
  // wall-clock *_seconds values.
  const std::string Source = "bool a, b; proc helper() { b ~ "
                             "bernoulli(1/4); } proc main() { a ~ "
                             "bernoulli(1/2); helper(); while (b) { b ~ "
                             "bernoulli(1/2); } }";
  auto Normalized = [](const std::string &Json) {
    std::optional<server::Json> J = server::Json::parse(Json);
    EXPECT_TRUE(J) << Json;
    static const std::regex Seconds("(\"[a-z_]*seconds\":)[^,}]*");
    return std::regex_replace(J ? J->dump() : "", Seconds, "$1S");
  };
  server::Session Local;
  ASSERT_TRUE(Local.load(Source, "bi", core::NumericBackend::Ladder).Ok);
  server::AnalyzeReply AR = Local.analyze({});
  ASSERT_TRUE(AR.Ok);
  ASSERT_GT(AR.Stats.NodeUpdates, 0u);

  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    server::Json Load = C.request(
        R"({"cmd":"load","domain":"bi","source":")" + Source + R"("})");
    ASSERT_TRUE(Load.get("ok") && Load.get("ok")->asBool());
    server::Json Reply = C.request(R"({"cmd":"analyze"})");
    ASSERT_TRUE(Reply.get("ok") && Reply.get("ok")->asBool());
    const server::Json *Stats = Reply.get("stats");
    ASSERT_NE(Stats, nullptr);
    EXPECT_EQ(Normalized(Stats->dump()),
              Normalized(core::statsJson(AR.Stats)));
  }
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, StableErrorCodes) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    EXPECT_EQ(fieldString(C.request("{\"cmd\":\"frobnicate\"}"), "code"),
              "unknown-command");
    EXPECT_EQ(fieldString(C.request("not json"), "code"), "protocol-error");
    EXPECT_EQ(fieldString(C.request("{\"cmd\":\"analyze\"}"), "code"),
              "unknown-session");
    EXPECT_EQ(
        fieldString(C.request("{\"cmd\":\"load\",\"source\":\"bool\"}"),
                    "code"),
        "parse-error");
    EXPECT_EQ(fieldString(C.request("{\"cmd\":\"load\"}"), "code"),
              "protocol-error");
    C.request(
        R"({"cmd":"load","source":"bool x; proc main() { x := true; }"})");
    EXPECT_EQ(
        fieldString(C.request(R"({"cmd":"analyze","jobs":1.5})"), "code"),
        "invalid-flag-value");
    EXPECT_EQ(
        fieldString(C.request(R"({"cmd":"analyze","strategy":"warp"})"),
                    "code"),
        "invalid-flag-value");
    // The parallel strategies are gone; their old spellings are unknown
    // strategies like any other.
    for (const char *Removed : {"parallel-intra", "parallel-scc"})
      EXPECT_EQ(fieldString(C.request(std::string(
                                R"({"cmd":"analyze","strategy":")") +
                                Removed + "\"}"),
                            "code"),
                "invalid-flag-value")
          << Removed;
    // Every solve is sequential: the thread-count and affinity keys are
    // refused, and the pool-sizing command no longer exists.
    EXPECT_EQ(fieldString(C.request(R"({"cmd":"analyze","jobs":2})"), "code"),
              "invalid-flag-value");
    EXPECT_EQ(
        fieldString(C.request(R"({"cmd":"analyze","affinity":true})"), "code"),
        "invalid-flag-value");
    EXPECT_EQ(fieldString(C.request(R"({"cmd":"configure","jobs":2})"),
                          "code"),
              "unknown-command");
  }
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, OversizedLiteralLoadKeepsTheDaemonServing) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    server::Json Bad = C.request(
        R"({"cmd":"load","source":"real x; proc main() { x := 1e99999999999999999999; }"})");
    EXPECT_FALSE(Bad.get("ok") && Bad.get("ok")->asBool());
    EXPECT_EQ(fieldString(Bad, "code"), "parse-error");
    EXPECT_NE(Bad.dump().find("number-out-of-range"), std::string::npos)
        << Bad.dump();
    server::Json Load = C.request(
        R"({"cmd":"load","source":"bool x; proc main() { x ~ bernoulli(1/2); }"})");
    EXPECT_TRUE(Load.get("ok") && Load.get("ok")->asBool()) << Load.dump();
    server::Json Analyze = C.request(R"({"cmd":"analyze"})");
    EXPECT_TRUE(Analyze.get("ok") && Analyze.get("ok")->asBool())
        << Analyze.dump();
  }
  // A second connection reaches the same daemon.
  TestClient Again(D.port());
  server::Json Stats = Again.request(R"({"cmd":"stats"})");
  EXPECT_TRUE(Stats.get("ok") && Stats.get("ok")->asBool()) << Stats.dump();
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, TooDeepLoadKeepsTheDaemonServing) {
  auto Repeat = [](const std::string &Piece, unsigned N) {
    std::string Out;
    for (unsigned I = 0; I != N; ++I)
      Out += Piece;
    return Out;
  };
  auto Main = [](const std::string &Body) {
    return "real x; proc main() { " + Body + " }";
  };
  auto Load = [](const std::string &Source) {
    return R"({"cmd":"load","session":"deep","source":")" + Source +
           R"("})";
  };
  const unsigned Max = lang::MaxNestingDepth;
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  {
    TestClient C(D.port());
    server::Json Bad =
        C.request(Load(Main("x := x" + Repeat(" + x", 49'999) + ";")));
    EXPECT_FALSE(Bad.get("ok") && Bad.get("ok")->asBool());
    EXPECT_EQ(fieldString(Bad, "code"), "parse-error");
    EXPECT_NE(Bad.dump().find("nesting-too-deep"), std::string::npos)
        << Bad.dump().substr(0, 400);
    // Each shape at the bound (see LintTest.NestingDepthBounds) parses,
    // lints, lowers, analyzes and is torn down on this connection thread.
    for (const std::string &Body :
         {Repeat("if prob(1/2) {", (Max - 1) / 2) + " skip; " +
              Repeat("}", (Max - 1) / 2),
          "x := " + Repeat("(", Max - 2) + "x" + Repeat(")", Max - 2) + ";",
          "x := x" + Repeat(" + x", Max - 2) + ";",
          "x := " + Repeat("- ", Max - 2) + "x;"}) {
      server::Json AtBound = C.request(Load(Main(Body)));
      EXPECT_TRUE(AtBound.get("ok") && AtBound.get("ok")->asBool())
          << AtBound.dump().substr(0, 400);
      server::Json Analyze =
          C.request(R"({"cmd":"analyze","session":"deep"})");
      EXPECT_TRUE(Analyze.get("ok") && Analyze.get("ok")->asBool())
          << Analyze.dump();
    }
    server::Json Small = C.request(
        R"({"cmd":"load","source":"bool x; proc main() { x ~ bernoulli(1/2); }"})");
    EXPECT_TRUE(Small.get("ok") && Small.get("ok")->asBool())
        << Small.dump();
    server::Json Again = C.request(R"({"cmd":"analyze"})");
    EXPECT_TRUE(Again.get("ok") && Again.get("ok")->asBool())
        << Again.dump();
    server::Json Stats = C.request(R"({"cmd":"stats"})");
    EXPECT_TRUE(Stats.get("ok") && Stats.get("ok")->asBool())
        << Stats.dump();
  }
  D.requestStop();
  D.wait();
}

TEST(DaemonTest, ConcurrentClientsOnDistinctSessions) {
  server::Daemon D;
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  std::vector<std::thread> Clients;
  std::atomic<unsigned> Failures{0};
  for (int I = 0; I != 4; ++I)
    Clients.emplace_back([&D, &Failures, I] {
      TestClient C(D.port());
      std::string Session = "s";
      Session += std::to_string(I);
      server::Json Load = C.request(
          "{\"cmd\":\"load\",\"session\":\"" + Session +
          "\",\"source\":\"bool a, b; proc main() { a ~ bernoulli(1/2); "
          "b := a; }\"}");
      if (!Load.get("ok") || !Load.get("ok")->asBool())
        Failures.fetch_add(1);
      for (int Round = 0; Round != 5; ++Round) {
        server::Json R = C.request("{\"cmd\":\"analyze\",\"session\":\"" +
                                   Session + "\"}");
        if (!R.get("ok") || !R.get("ok")->asBool())
          Failures.fetch_add(1);
      }
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  D.requestStop();
  D.wait();
}
