//===- core/Solver.h - Interprocedural chaotic-iteration solver -*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic analysis algorithm of §4.3–§4.4: given a hyper-graph program
/// and an interpretation (a pre-Markov algebra), compute the least
/// (prefixed-point) solution of the inequality system
///
///   S(v) ⊒ ⟦act⟧ ⊗ S(u1)              (seq[act] edge <v,u1>)
///   S(v) ⊒ S(u1) phi^ S(u2)            (cond[phi] edge <v,u1,u2>)
///   S(v) ⊒ S(u1) p⊕ S(u2)              (prob[p] edge <v,u1,u2>)
///   S(v) ⊒ S(u1) ⋓ S(u2)               (ndet edge <v,u1,u2>)
///   S(v) ⊒ S(entry_i) ⊗ S(u1)          (call[i] edge <v,u1>)
///   S(v) ⊒ 1                           (v an exit node)
///
/// by chaotic iteration. solve() is a thin facade over the three layers of
/// the analysis engine:
///
///   * core/CompiledProgram.h — the invariant per-analysis artifact:
///     cached `seq`-edge transformers (one Dom.interpret per edge),
///     right-hand-side evaluation, dependence structure;
///   * core/Schedule.h — pluggable iteration strategies (WTO-recursive,
///     round-robin, dependency-driven worklist) behind a domain-free
///     Scheduler interface;
///   * core/Instrumentation.h — the per-solve stats record (SolverStats)
///     and its text and JSON renderings.
///
/// The facade itself owns what is neither program structure nor iteration
/// order: the value vector, widening (at widening points the operator is
/// chosen by the control-action kinds present in the node's component,
/// under the precedence ndet ▷ prob ▷ cond — see
/// CompiledProgram::wideningKinds — which maintains the invariant of
/// Obs 4.9: old ⊑ new at every `old ∇ new`), convergence accounting, and
/// the update budget. Every solve runs on the calling thread.
///
/// The value computed at a procedure's entry node is that procedure's
/// summary (§2.3).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CORE_SOLVER_H
#define PMAF_CORE_SOLVER_H

#include "cfg/HyperGraph.h"
#include "cfg/Wto.h"
#include "core/CompiledProgram.h"
#include "core/Domain.h"
#include "core/Instrumentation.h"
#include "core/Schedule.h"

#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace pmaf {
namespace core {

/// The numeric backend of the polyhedra-based domains (the LEIA ladder,
/// Issue 6). The solver itself is domain-generic; this enum travels in
/// SolverOptions so harnesses (tools/pmaf, bench_leia) can carry one
/// backend choice through to the domain instantiation they dispatch on.
enum class NumericBackend {
  Poly,      ///< Monolithic polyhedra (the §5.3 baseline).
  Ladder,    ///< Packed intervals→zones→polyhedra escalation; exact.
  Zones,     ///< Difference bounds only; sound over-approximation.
  Intervals, ///< Per-variable bounds only; sound over-approximation.
};

inline const char *toString(NumericBackend Backend) {
  switch (Backend) {
  case NumericBackend::Poly:
    return "poly";
  case NumericBackend::Ladder:
    return "ladder";
  case NumericBackend::Zones:
    return "zones";
  case NumericBackend::Intervals:
    return "intervals";
  }
  return "?";
}

inline std::optional<NumericBackend>
parseNumericBackend(std::string_view Name) {
  if (Name == "poly")
    return NumericBackend::Poly;
  if (Name == "ladder")
    return NumericBackend::Ladder;
  if (Name == "zones")
    return NumericBackend::Zones;
  if (Name == "intervals")
    return NumericBackend::Intervals;
  return std::nullopt;
}

/// Tuning knobs for the solver.
struct SolverOptions {
  /// Number of plain updates of a widening point before widening kicks in.
  unsigned WideningDelay = 2;

  IterationStrategy Strategy = IterationStrategy::WtoRecursive;

  /// Disable widening altogether (sound for under-abstractions iterated
  /// from bottom, such as the Bayesian-inference domain of §5.1).
  bool UseWidening = true;

  /// Ablation (§4.4): use widenNdet at every widening point instead of
  /// selecting the operator by the loop's control action.
  bool UnifiedWidening = false;

  /// Safety valve: abort (Converged=false) after this many node updates.
  uint64_t MaxUpdates = 5'000'000;

  /// Read by nothing (every solve is sequential); kept only because the
  /// benchmark harness (perfbench/helper.cpp) still assigns it.
  unsigned Jobs = 1;

  /// Numeric backend for polyhedra-based domains. Consumed by the
  /// harnesses when they construct the domain (the solver template never
  /// reads it — the backend is baked into the domain type).
  NumericBackend Numeric = NumericBackend::Ladder;
};

/// A prior fixpoint to warm-start an incremental re-solve from. Nodes
/// with Dirty[v] == 0 are *frozen*: the solver keeps Values[v] verbatim
/// and never evaluates their right-hand side. Soundness requires the
/// dirty set to be closed under the dependence relation — every node
/// whose equation (transitively) reads a changed node must be dirty
/// (cfg::reachableFrom over CompiledProgram::dependents() computes
/// exactly that closure). Then each clean node's right-hand side reads
/// only clean nodes whose equations are unchanged, so the prior values
/// remain the least solution there, and dirty nodes restart from bottom
/// with fresh widening counts — the same iteration history a from-scratch
/// solve would give them once their (identical) clean inputs stabilized.
/// Under the stabilization discipline every scheduler follows, the warm
/// fixpoint is therefore bit-identical to the cold one.
template <typename ValueT> struct WarmStart {
  /// Prior per-node values, indexed by the *current* graph's node ids
  /// (the caller maps old ids to new ones). Dirty slots may hold
  /// anything — the solver resets them to bottom.
  std::vector<ValueT> Values;
  /// Dirty[v] != 0: re-solve v from bottom. Must be dependence-closed.
  std::vector<char> Dirty;
};

/// The solution of the inequality system plus iteration statistics.
template <typename ValueT> struct AnalysisResult {
  /// Per-node transformer-to-exit; index with hyper-graph node ids.
  std::vector<ValueT> Values;
  SolverStats Stats;
};

/// Solves the inequality system for an already-compiled program. The
/// compiled program's transformer cache survives the call, so repeated
/// solves (e.g. timed re-analyses) interpret each `seq` edge exactly once
/// overall. \p Counters, when non-null, accumulates the solve's stats
/// once it finishes. \p Warm, when non-null and sized for the graph,
/// warm-starts the solve from a prior fixpoint: clean nodes keep their
/// values untouched, only the dirty (dependence-closed) region iterates —
/// see WarmStart.
template <PreMarkovAlgebra D>
AnalysisResult<typename D::Value>
solve(CompiledProgram<D> &Compiled, const SolverOptions &Opts = {},
      SolverInstrumentation *Counters = nullptr,
      const WarmStart<typename D::Value> *Warm = nullptr) {
  using Value = typename D::Value;
  const auto SolveStart = std::chrono::steady_clock::now();

  const cfg::ProgramGraph &Graph = Compiled.graph();
  D &Dom = Compiled.domain();
  const unsigned NumNodes = Graph.numNodes();

  const uint64_t InterpretCallsBefore = Compiled.interpretCalls();
  const uint64_t InterpretHitsBefore = Compiled.interpretCacheHits();
  NumericLayerStats NumericBefore;
  if constexpr (ReportsNumericStats<D>)
    NumericBefore = D::numericStats();

  AnalysisResult<Value> Result;
  SolverStats &Stats = Result.Stats;
  // Warm start: adopt the prior fixpoint wholesale, then reset the dirty
  // region to bottom so it re-iterates exactly as a cold solve would.
  // Clean nodes are frozen — Update() below never touches them.
  const std::vector<char> *DirtyMask = nullptr;
  if (Warm && Warm->Values.size() == NumNodes &&
      Warm->Dirty.size() == NumNodes) {
    DirtyMask = &Warm->Dirty;
    Result.Values = Warm->Values;
    for (unsigned V = 0; V != NumNodes; ++V)
      if ((*DirtyMask)[V])
        Result.Values[V] = Dom.bottom();
  } else {
    Result.Values.assign(NumNodes, Dom.bottom());
  }

  // Exit nodes hold the constant 1 (line 6 of the system in §4.3).
  for (unsigned P = 0; P != Graph.numProcs(); ++P)
    Result.Values[Graph.proc(P).Exit] = Dom.one();

  // Iteration order: the WTO cached on the compiled program (invariant
  // across solves; rooted at the exits so values flow leaf-to-root, §2.3).
  const cfg::Wto &Order = Compiled.wto();

  std::vector<unsigned> UpdateCount(NumNodes, 0);

  // Updates node V; returns true if its value changed.
  auto Update = [&](unsigned V) -> bool {
    // Frozen under warm start: the prior fixpoint value stands, no
    // domain operation and no budget charge. Clean SCCs thus stabilize
    // in one trivial pass under every scheduler.
    if (DirtyMask && !(*DirtyMask)[V])
      return false;
    if (!Graph.outgoing(V))
      return false; // Exit nodes are pinned at 1.
    if (Stats.NodeUpdates >= Opts.MaxUpdates) {
      // The budget is spent: the tally stays exactly at it.
      Stats.Converged = false;
      return false;
    }
    ++Stats.NodeUpdates;
    Value New = Compiled.evalRhs(V, Result.Values);
    bool Widen = Opts.UseWidening && Order.WideningPoint[V] &&
                 UpdateCount[V] >= Opts.WideningDelay;
    ++UpdateCount[V];
    if (Widen) {
      ++Stats.WideningApplications;
      const Value &Old = Result.Values[V];
      if (Opts.UnifiedWidening) {
        New = Dom.widenNdet(Old, New);
      } else {
        // The operator is a function of the component, not of V's own
        // outgoing edge: a head can close loops guarded by several kinds
        // at once, and which guard contributes the head's edge is an
        // accident of DFS order (CompiledProgram::wideningKinds applies
        // the precedence ndet ▷ prob ▷ cond over the component's guard
        // edges — branches leading both back into and out of the loop).
        switch (Compiled.wideningKinds()[V]) {
        case cfg::ControlAction::Kind::Cond:
          New = Dom.widenCond(Old, New);
          break;
        case cfg::ControlAction::Kind::Prob:
          New = Dom.widenProb(Old, New);
          break;
        case cfg::ControlAction::Kind::Ndet:
          New = Dom.widenNdet(Old, New);
          break;
        case cfg::ControlAction::Kind::Seq:
        case cfg::ControlAction::Kind::Call:
          // A component with only seq/call edges is the cut of a
          // recursion cycle; domains may use a dedicated operator here —
          // rebuilding pessimistically as for ndet loops is sound but
          // can destroy all relational information a recursive summary
          // needs.
          New = Dom.widenCall(Old, New);
          break;
        }
      }
    }
    if (Dom.equal(Result.Values[V], New))
      return false;
    ++Stats.ValueChanges;
    Result.Values[V] = std::move(New);
    return true;
  };

  // The worklist scheduler's priority key, hoisted here so it is computed
  // once per solve rather than once per scheduler run.
  std::vector<unsigned> Positions = Order.positions();

  ScheduleContext Ctx;
  Ctx.NumNodes = NumNodes;
  Ctx.Order = &Order;
  Ctx.Dependents = &Compiled.dependents();
  Ctx.Positions = &Positions;
  Ctx.Update = Update;
  Ctx.Exhausted = [&Stats] { return !Stats.Converged; };
  Ctx.ComponentStabilizations = &Stats.ComponentStabilizations;
  makeScheduler(Opts.Strategy)->run(Ctx);

  // Warm-start reuse accounting, only under a warm start (cold solves
  // report zero): frozen nodes, and the split of the WTO's components
  // into all-clean (skipped) and dirty (re-resolved) ones.
  if (DirtyMask) {
    for (unsigned V = 0; V != NumNodes; ++V)
      Stats.NodesReused += (*DirtyMask)[V] ? 0 : 1;
    auto Visit = [&](auto &&Self, const cfg::WtoElement &E) -> bool {
      bool AllClean = !(*DirtyMask)[E.Node];
      for (const cfg::WtoElement &Child : E.Body)
        AllClean &= Self(Self, Child);
      if (E.IsComponent)
        ++(AllClean ? Stats.SccsSkipped : Stats.SccsResolved);
      return AllClean;
    };
    for (const cfg::WtoElement &E : Order.Elements)
      Visit(Visit, E);
  }
  Stats.InterpretCalls =
      Compiled.interpretCalls() - InterpretCallsBefore;
  Stats.InterpretCacheHits =
      Compiled.interpretCacheHits() - InterpretHitsBefore;
  if constexpr (ReportsNumericStats<D>) {
    NumericLayerStats Now = D::numericStats();
    Stats.Numeric.MinimizationCalls =
        Now.MinimizationCalls - NumericBefore.MinimizationCalls;
    Stats.Numeric.ConversionCacheHits =
        Now.ConversionCacheHits - NumericBefore.ConversionCacheHits;
    Stats.Numeric.ConversionCacheMisses =
        Now.ConversionCacheMisses - NumericBefore.ConversionCacheMisses;
    Stats.Numeric.SharedCacheHits =
        Now.SharedCacheHits - NumericBefore.SharedCacheHits;
    Stats.Numeric.CacheEvictions =
        Now.CacheEvictions - NumericBefore.CacheEvictions;
    Stats.Numeric.Escalations =
        Now.Escalations - NumericBefore.Escalations;
    Stats.Numeric.PeakGeneratorRows = Now.PeakGeneratorRows;
    Stats.Numeric.MaxPackWidth = Now.MaxPackWidth;
  }
  Stats.SolveSeconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  SolveStart)
                                  .count();
  if (Counters)
    Counters->add(Stats);
  return Result;
}

/// Solves the interprocedural equation system for \p Graph over \p Dom
/// (compiles the program first; use the CompiledProgram overload to reuse
/// the transformer cache across solves).
template <PreMarkovAlgebra D>
AnalysisResult<typename D::Value> solve(const cfg::ProgramGraph &Graph,
                                        D &Dom,
                                        const SolverOptions &Opts = {},
                                        SolverInstrumentation *Counters =
                                            nullptr) {
  CompiledProgram<D> Compiled(Graph, Dom);
  return solve(Compiled, Opts, Counters);
}

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_SOLVER_H
