//===- core/Instrumentation.h - Solver observation layer --------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation layer of the analysis engine: an observer interface
/// for the events the solver and its sibling layers emit (node updates,
/// widening applications, component stabilizations, interpret-cache
/// traffic), plus a stock timing/counter implementation.
///
/// Observation is strictly passive — observers cannot influence the
/// fixpoint computation — so any number of measurement harnesses (the CLI's
/// `--stats`, the bench binaries' JSON emitters, future tracing backends)
/// can share the single hook without touching the solver or the domains.
///
/// **Concurrency.** When the solver runs with a thread pool (Jobs > 1),
/// per-node and per-edge callbacks — onNodeUpdate, onWidening,
/// onComponentStabilized, onInterpret — may arrive concurrently from
/// worker threads; observers must make those handlers data-race free.
/// Begin/end bracket events (onSolveBegin, onPrecompileEnd, onSolveEnd)
/// always come from the coordinating thread, before workers start or
/// after they quiesce. The stock SolverInstrumentation below is safe.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CORE_INSTRUMENTATION_H
#define PMAF_CORE_INSTRUMENTATION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

namespace pmaf {
namespace core {

/// Counters of the numeric-domain layer under an abstract domain built on
/// the poly backends (Polyhedron, Zones, Intervals, LadderValue). Solvers
/// over domains that report them (ReportsNumericStats, core/Domain.h)
/// deliver per-solve deltas of the monotone counters and current
/// high-water marks for the peaks.
struct NumericLayerStats {
  /// Chernikova (double-description) minimization passes — the
  /// conversion cost the ladder exists to avoid.
  uint64_t MinimizationCalls = 0;
  /// Constraint⇄generator conversion memo traffic inside Polyhedron.
  uint64_t ConversionCacheHits = 0;
  uint64_t ConversionCacheMisses = 0;
  /// The subset of ConversionCacheHits served by the process-wide sharded
  /// L2 (the thread-local L1 missed: a stolen component, a fresh pool
  /// worker, or conversions inherited from an earlier solve).
  uint64_t SharedCacheHits = 0;
  /// Memo entries the bounded caches dropped at their caps.
  uint64_t CacheEvictions = 0;
  /// Times a ladder block climbed a rung (box → zone → poly).
  uint64_t Escalations = 0;
  /// Widest intermediate generator matrix any minimization built.
  unsigned PeakGeneratorRows = 0;
  /// Widest variable pack a ladder operation coupled.
  unsigned MaxPackWidth = 0;
};

/// Receiver for solver events. All callbacks default to no-ops so an
/// observer only overrides what it measures. Node ids index the program
/// hyper-graph; edge ids index ProgramGraph::edges().
class SolverObserver {
public:
  virtual ~SolverObserver() = default;

  /// An analysis over \p NumNodes nodes is starting.
  virtual void onSolveBegin(unsigned NumNodes) { (void)NumNodes; }

  /// The analysis finished; \p Converged is false iff the update budget
  /// (SolverOptions::MaxUpdates) was exhausted first.
  virtual void onSolveEnd(bool Converged) { (void)Converged; }

  /// Node \p Node was re-evaluated; \p Changed iff its value moved.
  virtual void onNodeUpdate(unsigned Node, bool Changed) {
    (void)Node;
    (void)Changed;
  }

  /// A widening operator was applied at widening point \p Node.
  virtual void onWidening(unsigned Node) { (void)Node; }

  /// The WTO component headed by \p Head stabilized after \p Passes
  /// passes over its body (recursive scheduler only).
  virtual void onComponentStabilized(unsigned Head, unsigned Passes) {
    (void)Head;
    (void)Passes;
  }

  /// The transformer of `seq` edge \p EdgeIndex was requested; \p CacheHit
  /// is false exactly when Dom.interpret ran (at most once per edge per
  /// compiled program — the interpret-cache invariant). May fire from a
  /// pool worker during parallel precompilation or a parallel solve.
  virtual void onInterpret(unsigned EdgeIndex, bool CacheHit) {
    (void)EdgeIndex;
    (void)CacheHit;
  }

  /// The up-front transformer precompilation pass finished: the cache now
  /// covers all \p Transformers `seq` edges, after \p Seconds of wall
  /// clock. Emitted (from the coordinating thread, before iteration
  /// begins) only when the solve requested precompilation (Jobs > 1).
  virtual void onPrecompileEnd(unsigned Transformers, double Seconds) {
    (void)Transformers;
    (void)Seconds;
  }

  /// The solve finished over a domain that reports numeric-layer counters
  /// (core/Domain.h); \p Stats holds this solve's deltas (peaks are
  /// high-water marks since the harness last reset them). Emitted from
  /// the coordinating thread, right before onSolveEnd.
  virtual void onNumericLayer(const NumericLayerStats &Stats) {
    (void)Stats;
  }

  /// The solve's pool queueing totals: \p TasksRun tasks executed across
  /// the per-solve pool's workers, of which \p Steals were taken from
  /// another worker's deque and \p AffinityHits were pinned tasks run by
  /// their owner. One aggregate event per parallel solve, emitted from
  /// the coordinating thread after the pool quiesces — deliberately not a
  /// per-steal callback, which would put an observer virtual call on the
  /// stealing fast path.
  virtual void onPoolQueue(uint64_t TasksRun, uint64_t Steals,
                           uint64_t AffinityHits) {
    (void)TasksRun;
    (void)Steals;
    (void)AffinityHits;
  }
};

/// The stock timing/counter observer: tallies every event and the
/// wall-clock time between onSolveBegin and onSolveEnd. Counters
/// accumulate across solves; reset() starts a fresh measurement.
///
/// The per-event tallies are atomics (relaxed increments — they are
/// independent counters, not synchronization), so this observer may be
/// handed to a parallel solve as-is. The timing fields stay plain: they
/// are only touched by the bracket events, which the solver emits from
/// the coordinating thread.
class SolverInstrumentation : public SolverObserver {
public:
  std::atomic<uint64_t> Solves{0};
  std::atomic<uint64_t> NodeUpdates{0};
  std::atomic<uint64_t> ValueChanges{0};
  std::atomic<uint64_t> WideningApplications{0};
  std::atomic<uint64_t> ComponentStabilizations{0};
  std::atomic<uint64_t> InterpretCalls{0};
  std::atomic<uint64_t> InterpretCacheHits{0};
  double SolveSeconds = 0.0;
  /// Wall clock and coverage of the up-front precompilation passes
  /// (zero unless some solve ran with Jobs > 1).
  double PrecompileSeconds = 0.0;
  uint64_t PrecompiledTransformers = 0;
  bool LastConverged = true;
  /// Numeric-layer counters summed over observed solves (peaks take the
  /// max); all-zero unless some solve's domain reports them.
  NumericLayerStats Numeric;
  /// Pool queueing aggregates summed over parallel solves (onPoolQueue);
  /// all-zero for sequential runs.
  std::atomic<uint64_t> PoolTasksRun{0};
  std::atomic<uint64_t> PoolSteals{0};
  std::atomic<uint64_t> PoolAffinityHits{0};

  SolverInstrumentation() = default;
  /// Copyable despite the atomics (snapshot semantics) so harnesses can
  /// return instrumentation by value; take the snapshot only while no
  /// solve is running.
  SolverInstrumentation(const SolverInstrumentation &Other)
      : SolverObserver(Other) {
    copyFrom(Other);
  }
  SolverInstrumentation &operator=(const SolverInstrumentation &Other) {
    copyFrom(Other);
    return *this;
  }

  void onSolveBegin(unsigned) override {
    Start = std::chrono::steady_clock::now();
  }
  void onSolveEnd(bool Converged) override {
    SolveSeconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
    Solves.fetch_add(1, std::memory_order_relaxed);
    LastConverged = Converged;
  }
  void onNodeUpdate(unsigned, bool Changed) override {
    NodeUpdates.fetch_add(1, std::memory_order_relaxed);
    if (Changed)
      ValueChanges.fetch_add(1, std::memory_order_relaxed);
  }
  void onWidening(unsigned) override {
    WideningApplications.fetch_add(1, std::memory_order_relaxed);
  }
  void onComponentStabilized(unsigned, unsigned) override {
    ComponentStabilizations.fetch_add(1, std::memory_order_relaxed);
  }
  void onInterpret(unsigned, bool CacheHit) override {
    if (CacheHit)
      InterpretCacheHits.fetch_add(1, std::memory_order_relaxed);
    else
      InterpretCalls.fetch_add(1, std::memory_order_relaxed);
  }
  void onPrecompileEnd(unsigned Transformers, double Seconds) override {
    PrecompiledTransformers += Transformers;
    PrecompileSeconds += Seconds;
  }
  void onNumericLayer(const NumericLayerStats &Stats) override {
    // Coordinating-thread event (like the other brackets), so plain
    // read-modify-write is fine.
    Numeric.MinimizationCalls += Stats.MinimizationCalls;
    Numeric.ConversionCacheHits += Stats.ConversionCacheHits;
    Numeric.ConversionCacheMisses += Stats.ConversionCacheMisses;
    Numeric.SharedCacheHits += Stats.SharedCacheHits;
    Numeric.CacheEvictions += Stats.CacheEvictions;
    Numeric.Escalations += Stats.Escalations;
    if (Stats.PeakGeneratorRows > Numeric.PeakGeneratorRows)
      Numeric.PeakGeneratorRows = Stats.PeakGeneratorRows;
    if (Stats.MaxPackWidth > Numeric.MaxPackWidth)
      Numeric.MaxPackWidth = Stats.MaxPackWidth;
  }
  void onPoolQueue(uint64_t TasksRun, uint64_t Steals,
                   uint64_t AffinityHits) override {
    PoolTasksRun.fetch_add(TasksRun, std::memory_order_relaxed);
    PoolSteals.fetch_add(Steals, std::memory_order_relaxed);
    PoolAffinityHits.fetch_add(AffinityHits, std::memory_order_relaxed);
  }

  void reset() { *this = SolverInstrumentation(); }

  /// Multi-line human-readable dump (the CLI's `--stats` body).
  std::string report() const {
    char Buffer[640];
    std::snprintf(
        Buffer, sizeof(Buffer),
        "; solver: %llu updates (%llu changed), %llu widenings, "
        "%llu components stabilized, converged=%s\n"
        "; interpret cache: %llu misses (= distinct seq edges evaluated), "
        "%llu hits\n"
        "; wall clock: %.6f s over %llu solve(s)\n",
        static_cast<unsigned long long>(NodeUpdates.load()),
        static_cast<unsigned long long>(ValueChanges.load()),
        static_cast<unsigned long long>(WideningApplications.load()),
        static_cast<unsigned long long>(ComponentStabilizations.load()),
        LastConverged ? "yes" : "NO",
        static_cast<unsigned long long>(InterpretCalls.load()),
        static_cast<unsigned long long>(InterpretCacheHits.load()),
        SolveSeconds, static_cast<unsigned long long>(Solves.load()));
    std::string Out = Buffer;
    if (PrecompiledTransformers > 0) {
      std::snprintf(Buffer, sizeof(Buffer),
                    "; precompile: %llu transformers in %.6f s\n",
                    static_cast<unsigned long long>(PrecompiledTransformers),
                    PrecompileSeconds);
      Out += Buffer;
    }
    if (uint64_t Tasks = PoolTasksRun.load()) {
      std::snprintf(
          Buffer, sizeof(Buffer),
          "; pool queue: %llu tasks run, %llu steals, %llu affinity "
          "hits\n",
          static_cast<unsigned long long>(Tasks),
          static_cast<unsigned long long>(PoolSteals.load()),
          static_cast<unsigned long long>(PoolAffinityHits.load()));
      Out += Buffer;
    }
    if (Numeric.MinimizationCalls > 0 || Numeric.ConversionCacheHits > 0) {
      std::snprintf(
          Buffer, sizeof(Buffer),
          "; numeric layer: %llu Chernikova minimizations (peak %u "
          "generator rows), conversion cache %llu hits / %llu misses "
          "(%llu shared-L2 hits, %llu evictions)\n"
          "; ladder: %llu escalations, max pack width %u\n",
          static_cast<unsigned long long>(Numeric.MinimizationCalls),
          Numeric.PeakGeneratorRows,
          static_cast<unsigned long long>(Numeric.ConversionCacheHits),
          static_cast<unsigned long long>(Numeric.ConversionCacheMisses),
          static_cast<unsigned long long>(Numeric.SharedCacheHits),
          static_cast<unsigned long long>(Numeric.CacheEvictions),
          static_cast<unsigned long long>(Numeric.Escalations),
          Numeric.MaxPackWidth);
      Out += Buffer;
    }
    return Out;
  }

private:
  void copyFrom(const SolverInstrumentation &Other) {
    Solves.store(Other.Solves.load());
    NodeUpdates.store(Other.NodeUpdates.load());
    ValueChanges.store(Other.ValueChanges.load());
    WideningApplications.store(Other.WideningApplications.load());
    ComponentStabilizations.store(Other.ComponentStabilizations.load());
    InterpretCalls.store(Other.InterpretCalls.load());
    InterpretCacheHits.store(Other.InterpretCacheHits.load());
    SolveSeconds = Other.SolveSeconds;
    PrecompileSeconds = Other.PrecompileSeconds;
    PrecompiledTransformers = Other.PrecompiledTransformers;
    LastConverged = Other.LastConverged;
    PoolTasksRun.store(Other.PoolTasksRun.load());
    PoolSteals.store(Other.PoolSteals.load());
    PoolAffinityHits.store(Other.PoolAffinityHits.load());
    Numeric = Other.Numeric;
    Start = Other.Start;
  }

  std::chrono::steady_clock::time_point Start;
};

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_INSTRUMENTATION_H
