//===- core/Schedule.h - Pluggable chaotic-iteration schedulers -*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduler layer of the analysis engine: a chaotic-iteration
/// *scheduler* decides in which order node inequalities are re-evaluated
/// until the system stabilizes; it never touches domain values. The seam
/// is deliberately domain-free — a scheduler sees nodes, the WTO, the
/// dependence structure, and an opaque `Update` callback — so new
/// strategies (and, later, parallel per-SCC drivers) plug in without
/// touching the solver template or any domain.
///
/// Four schedulers ship:
///  * WtoRecursiveScheduler — Bourdoncle's recursive strategy (§4.4, the
///    paper's choice): stabilize each WTO component innermost-first.
///  * RoundRobinScheduler — naive full sweeps until a sweep changes
///    nothing (ablation baseline).
///  * WorklistScheduler — dependency-driven: a node is re-evaluated only
///    when one of the nodes its right-hand side reads actually changed,
///    dirty nodes ordered by WTO position.
///  * ParallelSccScheduler — the parallel per-SCC driver the seam was cut
///    for: the top-level WTO elements are exactly the SCCs of the
///    dependence graph in topological order (the WTO builder is a Tarjan
///    variant), so independent SCCs at the same dependency frontier are
///    stabilized concurrently on a thread pool, each by the WTO-recursive
///    logic on a single worker. Values are partitioned by SCC — a node is
///    written only by its SCC's worker, and cross-SCC reads touch only
///    SCCs that already reached their fixpoint — so no locking guards the
///    value vector, widening stays inside one worker per SCC, and the
///    result is bit-identical to the sequential recursive strategy.
///
/// All four drive the same Update callback, so widening, convergence
/// bookkeeping, and instrumentation behave identically; they reach the
/// same fixpoint (tests/SchedulerParityTest.cpp) with different amounts
/// of work (and wall clock).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CORE_SCHEDULE_H
#define PMAF_CORE_SCHEDULE_H

#include "cfg/Wto.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string_view>
#include <vector>

namespace pmaf {
namespace core {

/// Chaotic-iteration strategies (one per scheduler type below).
enum class IterationStrategy {
  /// Bourdoncle's recursive strategy over the WTO (the paper's choice:
  /// "efficient iteration strategies with widenings").
  WtoRecursive,
  /// Naive round-robin sweeps over all nodes until stable (ablation
  /// baseline; widening points still come from the WTO so termination is
  /// unaffected).
  RoundRobin,
  /// Dependency-driven worklist with dirty-node tracking, ordered by WTO
  /// position: a node is re-evaluated only when a node it reads changed.
  Worklist,
  /// Parallel per-SCC driver: stabilize independent SCCs of the
  /// dependence-graph condensation concurrently (WTO-recursive within
  /// each SCC). Falls back to sequential topological execution when the
  /// context carries no pool or the domain is not thread-safe.
  ParallelScc,
};

/// Everything a scheduler may consult. Domain-free by construction: the
/// solver owns values, widening, and convergence accounting inside the
/// Update callback.
struct ScheduleContext {
  unsigned NumNodes = 0;
  /// WTO of the dependence graph (iteration order + widening points).
  const cfg::Wto *Order = nullptr;
  /// Dependence successors: Dependents[u] = nodes whose right-hand side
  /// reads u (CompiledProgram::dependents()).
  const std::vector<std::vector<unsigned>> *Dependents = nullptr;
  /// Re-evaluates one node's inequality; returns true iff the node's
  /// value changed. Exit nodes are no-ops.
  std::function<bool(unsigned)> Update;
  /// True once the update budget is exhausted; schedulers must stop.
  std::function<bool()> Exhausted;
  /// WTO linearization positions (Order->positions()), computed once per
  /// solve by the facade so position-keyed schedulers need not recompute
  /// the O(n) flattening on every run.
  const std::vector<unsigned> *Positions = nullptr;
  /// Worker pool for the parallel scheduler (null → sequential fallback).
  support::ThreadPool *Pool = nullptr;
  /// True when concurrent Update calls on *distinct nodes* are safe: the
  /// domain's operations are thread-safe and the solver's accounting is
  /// atomic. The facade sets this; schedulers must not parallelize
  /// without it.
  bool ParallelSafe = false;
  /// Component→worker affinity (SolverOptions::Affinity): the parallel
  /// scheduler pins an SCC's stabilization to a fixed pool worker
  /// (postTo), so that worker's thread-local conversion memos stay hot
  /// across dispatches. Pinned work is still stolen when the owner
  /// saturates, and the fixpoint is unaffected either way (determinism
  /// comes from the per-SCC single-writer discipline, not from which
  /// worker runs what). Off → the pre-affinity shared-FIFO dispatch, kept
  /// for A/B measurement and the parity sweep.
  bool Affinity = true;
  /// Optional out-param: the parallel scheduler CAS-maxes the number of
  /// simultaneously in-flight SCC stabilizations into it (the facade
  /// reports it as SolverStats::MaxParallelSccs). Ignored by sequential
  /// schedulers.
  std::atomic<unsigned> *MaxParallelSccs = nullptr;
  /// Optional out-param: stabilizeElement counts each stabilized WTO
  /// component into it (SolverStats::ComponentStabilizations).
  std::atomic<uint64_t> *ComponentStabilizations = nullptr;
};

/// Interface all chaotic-iteration schedulers implement.
class Scheduler {
public:
  virtual ~Scheduler() = default;

  /// Runs updates until every inequality is satisfied (or the budget is
  /// exhausted). Postcondition on natural exit: Update would return false
  /// for every node.
  virtual void run(const ScheduleContext &Ctx) = 0;
};

/// Stabilizes one WTO element with Bourdoncle's recursive discipline: a
/// component is re-iterated until a full pass over it changes nothing,
/// nested components stabilized within each pass. Shared by the
/// sequential recursive scheduler and the per-SCC workers of the parallel
/// scheduler (one call = one element = one thread).
inline void stabilizeElement(const ScheduleContext &Ctx,
                             const cfg::WtoElement &Element) {
  if (!Element.IsComponent) {
    Ctx.Update(Element.Node);
    return;
  }
  while (!Ctx.Exhausted()) {
    bool Changed = Ctx.Update(Element.Node);
    for (const cfg::WtoElement &Child : Element.Body)
      stabilizeElement(Ctx, Child);
    // All intra-component cycles pass through the head (or through
    // nested components, which stabilizeElement() settled); once an extra
    // head update is a no-op after a no-op pass, every inequality in the
    // component is satisfied.
    if (!Changed && !Ctx.Update(Element.Node))
      break;
  }
  if (Ctx.ComponentStabilizations)
    Ctx.ComponentStabilizations->fetch_add(1, std::memory_order_relaxed);
}

/// Bourdoncle's recursive iteration strategy: stabilize the top-level
/// elements left to right.
class WtoRecursiveScheduler final : public Scheduler {
public:
  void run(const ScheduleContext &Ctx) override {
    for (const cfg::WtoElement &Element : Ctx.Order->Elements)
      stabilizeElement(Ctx, Element);
  }
};

/// Naive round-robin: sweep all nodes repeatedly until a full sweep is a
/// no-op.
class RoundRobinScheduler final : public Scheduler {
public:
  void run(const ScheduleContext &Ctx) override {
    while (!Ctx.Exhausted()) {
      bool Changed = false;
      for (unsigned V = 0; V != Ctx.NumNodes; ++V)
        Changed |= Ctx.Update(V);
      if (!Changed)
        break;
    }
  }
};

/// Dependency-driven worklist: every node starts dirty; popping always
/// takes the dirty node earliest in the WTO linearization, and a change
/// at u re-dirties exactly the nodes whose right-hand side reads u.
class WorklistScheduler final : public Scheduler {
public:
  void run(const ScheduleContext &Ctx) override {
    // Positions are hoisted into the context (one flattening per solve,
    // not per run); fall back for contexts built by hand.
    std::vector<unsigned> Computed;
    if (!Ctx.Positions)
      Computed = Ctx.Order->positions();
    const std::vector<unsigned> &Position =
        Ctx.Positions ? *Ctx.Positions : Computed;
    using Entry = std::pair<unsigned, unsigned>; // (position, node)
    std::vector<Entry> Storage;
    Storage.reserve(Ctx.NumNodes); // Dirty never outgrows the node count.
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        Dirty(std::greater<Entry>(), std::move(Storage));
    std::vector<bool> InQueue(Ctx.NumNodes, true);
    for (unsigned V = 0; V != Ctx.NumNodes; ++V)
      Dirty.push({Position[V], V});
    while (!Dirty.empty() && !Ctx.Exhausted()) {
      unsigned V = Dirty.top().second;
      Dirty.pop();
      InQueue[V] = false;
      if (!Ctx.Update(V))
        continue;
      for (unsigned W : (*Ctx.Dependents)[V])
        if (!InQueue[W]) {
          InQueue[W] = true;
          Dirty.push({Position[W], W});
        }
    }
  }
};

/// Parallel per-SCC driver. The dependence-graph condensation comes for
/// free from the WTO: the builder is a Tarjan variant, so each top-level
/// WtoElement is exactly one SCC (a plain vertex for trivial SCCs, a
/// component for cyclic ones) and the element list is a topological order
/// of the condensation. Scheduling is therefore: count, per SCC, the
/// dependence arcs arriving from other SCCs; stabilize every in-degree-0
/// SCC concurrently on the pool; when an SCC reaches its fixpoint, release
/// its outgoing arcs, and any SCC whose count hits zero joins the frontier.
///
/// Determinism: a node's right-hand side reads only nodes of its own SCC
/// and of upstream SCCs. Upstream SCCs are final before the SCC starts
/// (the release edge on the atomic in-degree publishes their values), and
/// inside an SCC the single worker replays exactly the sequential
/// WTO-recursive update sequence — so the fixpoint is bit-identical to
/// WtoRecursiveScheduler's, whatever the thread count or interleaving.
class ParallelSccScheduler final : public Scheduler {
public:
  void run(const ScheduleContext &Ctx) override {
    const std::vector<cfg::WtoElement> &Sccs = Ctx.Order->Elements;
    const unsigned NumSccs = static_cast<unsigned>(Sccs.size());
    if (!Ctx.Pool || !Ctx.ParallelSafe || Ctx.Pool->size() <= 1 ||
        NumSccs <= 1) {
      // Sequential fallback — same topological order, same fixpoint.
      for (const cfg::WtoElement &Element : Sccs)
        stabilizeElement(Ctx, Element);
      return;
    }

    // Node -> owning SCC, and the member list per SCC.
    std::vector<unsigned> SccOf(Ctx.NumNodes, 0);
    std::vector<std::vector<unsigned>> Members(NumSccs);
    for (unsigned S = 0; S != NumSccs; ++S)
      collectMembers(Sccs[S], S, SccOf, Members[S]);

    // Cross-SCC dependence arcs u -> v (v reads u): v's SCC waits on u's.
    std::unique_ptr<std::atomic<unsigned>[]> Pending(
        new std::atomic<unsigned>[NumSccs]);
    std::vector<unsigned> InDegree(NumSccs, 0);
    for (unsigned S = 0; S != NumSccs; ++S)
      for (unsigned U : Members[S])
        for (unsigned V : (*Ctx.Dependents)[U])
          if (SccOf[V] != S)
            ++InDegree[SccOf[V]];
    for (unsigned S = 0; S != NumSccs; ++S)
      Pending[S].store(InDegree[S], std::memory_order_relaxed);

    std::atomic<unsigned> Remaining(NumSccs);
    std::atomic<unsigned> InFlight(0);
    std::mutex DoneMutex;
    std::condition_variable DoneCv;
    std::mutex ExceptionMutex;
    std::exception_ptr FirstException;

    // Dispatch an SCC to the pool. With affinity, SCC S is pinned to
    // worker S mod pool-size — the same worker on every dispatch, so the
    // conversion memos it populated for S's nodes in earlier rounds stay
    // hot — and stolen only when that worker is saturated. Without it,
    // the shared FIFO takes the task (the pre-affinity behaviour).
    auto Dispatch = [&Ctx](unsigned S, std::function<void()> Fn) {
      if (Ctx.Affinity)
        Ctx.Pool->postTo(S, std::move(Fn));
      else
        Ctx.Pool->post(std::move(Fn));
    };

    // One task = one SCC stabilized start to fixpoint on one worker.
    // Tasks release their dependents themselves, so the frontier advances
    // without a coordinator round-trip; acq_rel on the in-degree makes the
    // finished SCC's values visible to the successors it unblocks.
    std::function<void(unsigned)> RunScc = [&](unsigned S) {
      unsigned Now = InFlight.fetch_add(1, std::memory_order_relaxed) + 1;
      if (Ctx.MaxParallelSccs) {
        unsigned Seen =
            Ctx.MaxParallelSccs->load(std::memory_order_relaxed);
        while (Seen < Now &&
               !Ctx.MaxParallelSccs->compare_exchange_weak(
                   Seen, Now, std::memory_order_relaxed))
          ;
      }
      try {
        stabilizeElement(Ctx, Sccs[S]);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ExceptionMutex);
        if (!FirstException)
          FirstException = std::current_exception();
      }
      InFlight.fetch_sub(1, std::memory_order_relaxed);
      for (unsigned U : Members[S])
        for (unsigned V : (*Ctx.Dependents)[U]) {
          unsigned T = SccOf[V];
          if (T != S &&
              Pending[T].fetch_sub(1, std::memory_order_acq_rel) == 1)
            Dispatch(T, [&RunScc, T] { RunScc(T); });
        }
      if (Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> Lock(DoneMutex);
        DoneCv.notify_all();
      }
    };

    for (unsigned S = 0; S != NumSccs; ++S)
      if (InDegree[S] == 0)
        Dispatch(S, [&RunScc, S] { RunScc(S); });

    std::unique_lock<std::mutex> Lock(DoneMutex);
    DoneCv.wait(Lock, [&Remaining] {
      return Remaining.load(std::memory_order_acquire) == 0;
    });
    if (FirstException)
      std::rethrow_exception(FirstException);
  }

private:
  static void collectMembers(const cfg::WtoElement &Element, unsigned Scc,
                             std::vector<unsigned> &SccOf,
                             std::vector<unsigned> &Members) {
    SccOf[Element.Node] = Scc;
    Members.push_back(Element.Node);
    for (const cfg::WtoElement &Child : Element.Body)
      collectMembers(Child, Scc, SccOf, Members);
  }
};

/// Factory keyed by strategy (the solver facade's dispatch point).
inline std::unique_ptr<Scheduler> makeScheduler(IterationStrategy Strategy) {
  switch (Strategy) {
  case IterationStrategy::WtoRecursive:
    return std::make_unique<WtoRecursiveScheduler>();
  case IterationStrategy::RoundRobin:
    return std::make_unique<RoundRobinScheduler>();
  case IterationStrategy::Worklist:
    return std::make_unique<WorklistScheduler>();
  case IterationStrategy::ParallelScc:
    return std::make_unique<ParallelSccScheduler>();
  }
  return nullptr;
}

/// Stable spelling for CLIs and reports.
inline const char *toString(IterationStrategy Strategy) {
  switch (Strategy) {
  case IterationStrategy::WtoRecursive:
    return "wto";
  case IterationStrategy::RoundRobin:
    return "round-robin";
  case IterationStrategy::Worklist:
    return "worklist";
  case IterationStrategy::ParallelScc:
    return "parallel-scc";
  }
  return "?";
}

/// Parses a strategy name (accepts the toString spellings plus common
/// abbreviations); nullopt when unrecognized.
inline std::optional<IterationStrategy>
parseIterationStrategy(std::string_view Name) {
  if (Name == "wto" || Name == "wto-recursive" || Name == "recursive")
    return IterationStrategy::WtoRecursive;
  if (Name == "round-robin" || Name == "rr" || Name == "roundrobin")
    return IterationStrategy::RoundRobin;
  if (Name == "worklist" || Name == "wl")
    return IterationStrategy::Worklist;
  if (Name == "parallel-scc" || Name == "parallel" || Name == "pscc")
    return IterationStrategy::ParallelScc;
  return std::nullopt;
}

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_SCHEDULE_H
