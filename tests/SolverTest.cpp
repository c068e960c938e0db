//===- tests/SolverTest.cpp - Generic solver behavior tests ---------------===//
//
// Exercises the interprocedural chaotic-iteration solver of §4.3-4.4
// through a deliberately simple hand-rolled domain, independent of the
// paper's three instantiations.
//
//===----------------------------------------------------------------------===//

#include "cfg/HyperGraph.h"
#include "core/Solver.h"
#include "domains/LeiaDomain.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <regex>
#include <set>
#include <sstream>
#include <string>

using namespace pmaf;
using namespace pmaf::core;

namespace {

/// A termination-probability-style test domain over [0, 1]: the value at a
/// node is the minimal probability of reaching the exit. This is an
/// under-approximation analysis (iterates up from 0, no widening needed for
/// convergence within tolerance) and makes solver behavior easy to predict.
class ReachDomain {
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
    return Prob * A + (1 - Prob) * B;
  }
  Value ndetChoice(const Value &A, const Value &B) const {
    return std::min(A, B);
  }
  Value interpret(const lang::Stmt *) const { return 1.0; }
  bool leq(const Value &A, const Value &B) const { return A <= B + 1e-12; }
  bool equal(const Value &A, const Value &B) const {
    return std::fabs(A - B) <= 1e-12;
  }
  Value widenCond(const Value &, const Value &New) const { return New; }
  Value widenProb(const Value &, const Value &New) const { return New; }
  Value widenNdet(const Value &, const Value &New) const { return New; }
  Value widenCall(const Value &, const Value &New) const { return New; }
  std::string toString(const Value &A) const { return std::to_string(A); }
  /// Stateless over scalar doubles: safe from any thread.
  static constexpr bool ThreadSafeInterpret = true;
};

static_assert(PreMarkovAlgebra<ReachDomain>);
static_assert(threadSafeInterpret<ReachDomain>());

double mainReach(const char *Source, SolverStats *StatsOut = nullptr) {
  auto Prog = lang::parseProgramOrDie(Source);
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  auto Result = solve(G, Dom);
  if (StatsOut)
    *StatsOut = Result.Stats;
  EXPECT_TRUE(Result.Stats.Converged);
  return Result.Values[G.proc(Prog->findProc("main")).Entry];
}

} // namespace

TEST(SolverTest, ExitNodeIsPinnedAtOne) {
  auto Prog = lang::parseProgramOrDie("proc main() { skip; }");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  auto Result = solve(G, Dom);
  EXPECT_DOUBLE_EQ(Result.Values[G.proc(0).Exit], 1.0);
  EXPECT_DOUBLE_EQ(Result.Values[G.proc(0).Entry], 1.0);
}

TEST(SolverTest, GeometricTerminationProbability) {
  // while prob(1/2) skip: terminates almost surely -> reach = 1.
  EXPECT_NEAR(mainReach(R"(
    proc main() { while prob(1/2) { skip; } }
  )"),
              1.0, 1e-6);
}

TEST(SolverTest, InfiniteLoopHasReachZero) {
  EXPECT_NEAR(mainReach(R"(
    proc main() { while (true) { skip; } }
  )"),
              0.0, 1e-9);
}

TEST(SolverTest, DemonicNdetTakesWorstBranch) {
  // The adversary can enter the infinite loop: min-reach 0.
  EXPECT_NEAR(mainReach(R"(
    proc main() { if star { while (true) { skip; } } else { skip; } }
  )"),
              0.0, 1e-9);
}

TEST(SolverTest, RecursiveOneHalfTermination) {
  // f terminates with prob p where p = 1/2 + 1/2 p^2 (two sequential
  // recursive calls) => p = 1: but float iteration converges slowly toward
  // 1; accept the known iterate band. Use single call: p = 1/2 + 1/2 p
  // => p = 1.
  EXPECT_NEAR(mainReach(R"(
    proc main() { if prob(1/2) { main(); } }
  )"),
              1.0, 1e-5);
}

TEST(SolverTest, TransientCriticalBranchingProcess) {
  // p = 1/3 + 2/3 p^2 has least fixpoint 1/2 (subcritical-to-transient
  // branching): two sequential recursive calls with prob 2/3.
  EXPECT_NEAR(mainReach(R"(
    proc main() { if prob(2/3) { main(); main(); } }
  )"),
              0.5, 1e-4);
}

TEST(SolverTest, StatsAreReported) {
  SolverStats Stats;
  mainReach(R"(
    proc main() { while prob(1/2) { skip; } }
  )",
            &Stats);
  EXPECT_GT(Stats.NodeUpdates, 0u);
  EXPECT_TRUE(Stats.Converged);
}

TEST(SolverTest, MaxUpdatesSafetyValve) {
  // Exhausting the update budget must (a) report Converged = false under
  // every scheduler, and (b) account honestly: a refused update hands its
  // provisional increment back, so the reported NodeUpdates equals the
  // budget exactly instead of overshooting by one refusal per retry.
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() { while prob(1/2) { skip; } }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  for (IterationStrategy Strategy :
       {IterationStrategy::WtoRecursive, IterationStrategy::RoundRobin,
        IterationStrategy::Worklist, IterationStrategy::ParallelScc}) {
    ReachDomain Dom;
    SolverOptions Opts;
    Opts.Strategy = Strategy;
    Opts.MaxUpdates = 3;
    auto Result = solve(G, Dom, Opts);
    EXPECT_FALSE(Result.Stats.Converged) << toString(Strategy);
    EXPECT_EQ(Result.Stats.NodeUpdates, 3u) << toString(Strategy);
  }
}

TEST(SolverTest, CallComposesSummaries) {
  // helper reaches exit with prob 1/2 (adversary may diverge); main calls
  // it twice -> 1/4.
  EXPECT_NEAR(mainReach(R"(
    proc helper() {
      if prob(1/2) { while (true) { skip; } }
    }
    proc main() { helper(); helper(); }
  )"),
              0.25, 1e-9);
}

TEST(SolverTest, InterpretCacheCallsOncePerSeqEdge) {
  // Two seq edges inside a loop: the old solver re-interpreted them on
  // every pass; the compiled-program layer must interpret each exactly
  // once and serve cache hits afterwards.
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() { while prob(1/2) { skip; skip; } }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  unsigned SeqEdges = 0;
  for (const cfg::HyperEdge &E : G.edges())
    SeqEdges += E.Ctrl.TheKind == cfg::ControlAction::Kind::Seq;
  ReachDomain Dom;
  auto Result = solve(G, Dom);
  EXPECT_TRUE(Result.Stats.Converged);
  EXPECT_LE(Result.Stats.InterpretCalls, SeqEdges);
  EXPECT_GT(Result.Stats.InterpretCacheHits, 0u);
}

TEST(SolverTest, CompiledProgramReuseSkipsReinterpretation) {
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() { while prob(1/2) { skip; } }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  CompiledProgram<ReachDomain> Compiled(G, Dom);
  auto First = solve(Compiled);
  EXPECT_GT(First.Stats.InterpretCalls, 0u);
  auto Second = solve(Compiled);
  EXPECT_EQ(Second.Stats.InterpretCalls, 0u); // All transformers cached.
  EXPECT_EQ(Second.Values.size(), First.Values.size());
  for (unsigned V = 0; V != First.Values.size(); ++V)
    EXPECT_TRUE(Dom.equal(First.Values[V], Second.Values[V]));
}

TEST(SolverTest, CountersAccumulateEachSolvesStats) {
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() { while prob(1/2) { skip; } }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  SolverInstrumentation Counters;
  auto Result = solve(G, Dom, SolverOptions{}, &Counters);
  EXPECT_EQ(Counters.Solves.load(), 1u);
  EXPECT_TRUE(Counters.LastConverged.load());
  EXPECT_EQ(Counters.NodeUpdates.load(), Result.Stats.NodeUpdates);
  EXPECT_EQ(Counters.WideningApplications.load(),
            Result.Stats.WideningApplications);
  EXPECT_EQ(Counters.InterpretCalls.load(), Result.Stats.InterpretCalls);
  EXPECT_EQ(Counters.InterpretCacheHits.load(),
            Result.Stats.InterpretCacheHits);
  EXPECT_GT(Result.Stats.ValueChanges, 0u);
  EXPECT_GT(Result.Stats.ComponentStabilizations, 0u); // The while loop.
  EXPECT_GE(Result.Stats.SolveSeconds, 0.0);
  EXPECT_FALSE(statsText(Result.Stats).empty());
}

namespace {

/// The keys a stats rendering names, split into the record's own fields
/// and the per-worker ones (prefixed "worker.").
std::set<std::string> textKeys(const std::string &Text) {
  std::set<std::string> Keys;
  std::istringstream Lines(Text);
  for (std::string Line; std::getline(Lines, Line);) {
    std::string Prefix = Line.rfind("; worker ", 0) == 0 ? "worker." : "";
    std::istringstream Words(Line);
    for (std::string Word; Words >> Word;)
      if (size_t Eq = Word.find('='); Eq != std::string::npos)
        Keys.insert(Prefix + Word.substr(0, Eq));
  }
  return Keys;
}

std::set<std::string> jsonKeys(const std::string &Json) {
  std::set<std::string> Keys;
  const std::regex Key("\"([a-z0-9_]+)\": ");
  const size_t Workers = Json.find("\"pool_workers\": [");
  // The "pool_workers" array itself is the text's `; worker <i>:` lines.
  for (std::sregex_iterator It(Json.begin(), Json.end(), Key), End;
       It != End; ++It)
    if (size_t(It->position()) != Workers)
      Keys.insert((size_t(It->position()) > Workers ? "worker." : "") +
                  (*It)[1].str());
  return Keys;
}

} // namespace

TEST(SolverTest, TextAndJsonRenderTheSameFields) {
  // Polyhedra under the parallel scheduler, so the numeric-layer and the
  // pool counters are live, not zero placeholders.
  auto Prog = lang::parseProgramOrDie(R"(
    real x, y;
    proc main() {
      while prob(3/4) { x := x + 1; y := y + x; }
    }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  domains::LeiaDomainT<poly::Polyhedron> Dom(*Prog);
  SolverOptions Opts;
  Opts.Strategy = IterationStrategy::ParallelScc;
  Opts.Jobs = 2;
  const SolverStats S = solve(G, Dom, Opts).Stats;
  ASSERT_TRUE(S.Converged);
  ASSERT_EQ(S.PoolWorkers.size(), 2u);
  EXPECT_GT(S.Numeric.MinimizationCalls, 0u);
  EXPECT_GT(S.Numeric.ConversionCacheMisses, 0u);
  uint64_t TasksRun = 0;
  for (const auto &W : S.PoolWorkers)
    TasksRun += W.TasksRun;
  EXPECT_GT(TasksRun, 0u);

  const std::string Text = statsText(S), Json = statsJson(S);
  const std::set<std::string> Keys = textKeys(Text);
  EXPECT_EQ(Keys, jsonKeys(Json)) << Text << Json;
  // Every counter the CLI report, the pmafd reply or the bench records
  // ever printed.
  for (const char *Old :
       {"converged", "node_updates", "value_changes", "widenings",
        "components_stabilized", "solve_seconds", "interpret_calls",
        "interpret_cache_hits", "precompiled_transformers",
        "precompile_seconds", "jobs_used", "max_parallel_sccs",
        "pool_tasks_run", "pool_steals", "pool_affinity_hits",
        "thread_busy_seconds", "chernikova_calls", "peak_generator_rows",
        "conversion_cache_hits", "conversion_cache_misses", "shared_l2_hits",
        "cache_evictions", "escalations", "max_pack_width",
        "worker.tasks_run", "worker.steals", "worker.affinity_hits",
        "worker.busy_seconds"})
    EXPECT_TRUE(Keys.count(Old)) << Old;
  // Both renderings carry the record's values.
  const std::string Updates = std::to_string(S.NodeUpdates);
  const std::string Calls = std::to_string(S.Numeric.MinimizationCalls);
  const std::string Tasks = std::to_string(TasksRun);
  EXPECT_NE(Text.find(" node_updates=" + Updates + " "), std::string::npos);
  EXPECT_NE(Json.find("\"node_updates\": " + Updates + ","),
            std::string::npos);
  EXPECT_NE(Text.find(" chernikova_calls=" + Calls + " "), std::string::npos);
  EXPECT_NE(Json.find("\"chernikova_calls\": " + Calls + ","),
            std::string::npos);
  EXPECT_NE(Text.find(" pool_tasks_run=" + Tasks + " "), std::string::npos);
  EXPECT_NE(Json.find("\"pool_tasks_run\": " + Tasks + ","),
            std::string::npos);
}

TEST(SolverTest, WorklistSchedulerMatchesRecursiveOnRecursion) {
  const char *Source = R"(
    proc helper() { if prob(1/2) { helper(); } }
    proc main() { helper(); helper(); }
  )";
  auto Prog = lang::parseProgramOrDie(Source);
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  SolverOptions Wto;
  auto Reference = solve(G, Dom, Wto);
  SolverOptions Wl;
  Wl.Strategy = IterationStrategy::Worklist;
  auto Result = solve(G, Dom, Wl);
  EXPECT_TRUE(Result.Stats.Converged);
  for (unsigned V = 0; V != Reference.Values.size(); ++V)
    EXPECT_TRUE(Dom.equal(Reference.Values[V], Result.Values[V]));
  // Dirty-node tracking should not do more work than a full-sweep
  // round-robin on the same system.
  SolverOptions Rr;
  Rr.Strategy = IterationStrategy::RoundRobin;
  auto RoundRobin = solve(G, Dom, Rr);
  EXPECT_LE(Result.Stats.NodeUpdates, RoundRobin.Stats.NodeUpdates);
}

TEST(SolverTest, UnreachableProcedureStillAnalyzed) {
  auto Prog = lang::parseProgramOrDie(R"(
    proc dead() { while (true) { skip; } }
    proc main() { skip; }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;
  auto Result = solve(G, Dom);
  EXPECT_NEAR(Result.Values[G.proc(Prog->findProc("dead")).Entry], 0.0,
              1e-9);
  EXPECT_NEAR(Result.Values[G.proc(Prog->findProc("main")).Entry], 1.0,
              1e-9);
}

TEST(SolverTest, ConcurrentPrecompileRacesLazyTransformer) {
  // The per-slot once_flag contract: a parallel precompile racing ad-hoc
  // transformer() calls still interprets each seq edge exactly once, and
  // every requester observes the cached value.
  auto Prog = lang::parseProgramOrDie(R"(
    proc main() {
      skip; skip; skip; skip;
      while prob(1/2) { skip; skip; skip; skip; }
      skip; skip; skip; skip;
    }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  std::vector<unsigned> SeqEdges;
  for (unsigned E = 0; E != G.edges().size(); ++E)
    if (G.edges()[E].Ctrl.TheKind == cfg::ControlAction::Kind::Seq)
      SeqEdges.push_back(E);
  ASSERT_GE(SeqEdges.size(), 12u);

  for (int Round = 0; Round != 16; ++Round) {
    ReachDomain Dom;
    CompiledProgram<ReachDomain> Compiled(G, Dom);
    support::ThreadPool Pool(4);
    // Precompilation fans out on the pool while this thread requests the
    // same transformers lazily, in reverse order.
    auto Precompiled =
        Pool.submit([&] { return Compiled.precompile(&Pool); });
    for (size_t I = SeqEdges.size(); I != 0; --I)
      EXPECT_DOUBLE_EQ(Compiled.transformer(SeqEdges[I - 1]), 1.0);
    EXPECT_EQ(Precompiled.get(), SeqEdges.size());
    EXPECT_EQ(Compiled.interpretCalls(), SeqEdges.size())
        << "each seq edge must be interpreted exactly once";
    EXPECT_GE(Compiled.interpretCacheHits(), SeqEdges.size())
        << "the lazy requests must all be served from the cache";
  }
}

TEST(SolverTest, ParallelSolveReportsEngineStats) {
  auto Prog = lang::parseProgramOrDie(R"(
    proc helper() { if prob(1/2) { helper(); } }
    proc main() { skip; helper(); while prob(1/3) { skip; } helper(); }
  )");
  cfg::ProgramGraph G = cfg::ProgramGraph::build(*Prog);
  ReachDomain Dom;

  auto Sequential = solve(G, Dom);
  ASSERT_TRUE(Sequential.Stats.Converged);
  EXPECT_EQ(Sequential.Stats.JobsUsed, 1u);
  EXPECT_EQ(Sequential.Stats.PrecompiledTransformers, 0u); // Lazy path.

  SolverOptions Opts;
  Opts.Strategy = IterationStrategy::ParallelScc;
  Opts.Jobs = 4;
  auto Parallel = solve(G, Dom, Opts);
  ASSERT_TRUE(Parallel.Stats.Converged);
  EXPECT_EQ(Parallel.Stats.JobsUsed, 4u);
  EXPECT_GT(Parallel.Stats.PrecompiledTransformers, 0u);
  EXPECT_GE(Parallel.Stats.PrecompileSeconds, 0.0);
  ASSERT_EQ(Parallel.Values.size(), Sequential.Values.size());
  for (unsigned V = 0; V != Sequential.Values.size(); ++V)
    EXPECT_EQ(Parallel.Values[V], Sequential.Values[V])
        << "parallel fixpoint must be bit-identical at node " << V;
}
