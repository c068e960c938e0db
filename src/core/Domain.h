//===- core/Domain.h - The pre-Markov algebra interface ---------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client interface of the framework (§4.1): an *interpretation* is a
/// pre-Markov algebra — a universe of two-vocabulary property transformers
/// with sequencing (⊗), conditional-choice (phi^), probabilistic-choice
/// (p⊕), and nondeterministic-choice (⋓) operators, a least element ⊥ and a
/// multiplicative unit 1 — together with a semantic function mapping data
/// actions into the universe (Defn 4.5).
///
/// A domain is an ordinary object (it may carry context such as the
/// variable universe and comparison tolerances); its `Value` type is the
/// universe. The generic solver in core/Solver.h is a template over any
/// type satisfying the `PreMarkovAlgebra` concept below, mirroring the
/// OCaml functor organization of the original prototype (§6.1).
///
/// Conventions:
///  * `extend(A, B)` is the paper's A ⊗ B: A is the transformer of the
///    *earlier* program fragment (formal multiplication is interpreted as
///    the reversal of transformer composition, §1).
///  * `interpret(Act)` receives the data-action statement of a `seq` edge,
///    or nullptr for the trivial action skip; it must return (an
///    abstraction of) the action's kernel.
///  * `leq` is the approximation order; `equal` may be tolerance-based for
///    floating-point domains (§6.1 relies on float chains stabilizing).
///  * The three widening operators correspond to §4.4; domains that never
///    need widening (e.g. under-abstractions iterated from bottom, §5.1)
///    simply return the new value.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CORE_DOMAIN_H
#define PMAF_CORE_DOMAIN_H

#include "core/Instrumentation.h"
#include "lang/Ast.h"
#include "support/Rational.h"

#include <concepts>
#include <string>

namespace pmaf {
namespace core {

/// The pre-Markov algebra interface (Defn 4.2 + Defn 4.5).
template <typename D>
concept PreMarkovAlgebra = requires(
    D &Dom, const typename D::Value &A, const typename D::Value &B,
    const lang::Cond &Phi, const Rational &P, const lang::Stmt *Act) {
  typename D::Value;
  { Dom.bottom() } -> std::same_as<typename D::Value>;
  { Dom.one() } -> std::same_as<typename D::Value>;
  { Dom.extend(A, B) } -> std::same_as<typename D::Value>;
  { Dom.condChoice(Phi, A, B) } -> std::same_as<typename D::Value>;
  { Dom.probChoice(P, A, B) } -> std::same_as<typename D::Value>;
  { Dom.ndetChoice(A, B) } -> std::same_as<typename D::Value>;
  { Dom.interpret(Act) } -> std::same_as<typename D::Value>;
  { Dom.leq(A, B) } -> std::same_as<bool>;
  { Dom.equal(A, B) } -> std::same_as<bool>;
  { Dom.widenCond(A, B) } -> std::same_as<typename D::Value>;
  { Dom.widenProb(A, B) } -> std::same_as<typename D::Value>;
  { Dom.widenNdet(A, B) } -> std::same_as<typename D::Value>;
  { Dom.widenCall(A, B) } -> std::same_as<typename D::Value>;
  { Dom.toString(A) } -> std::same_as<std::string>;
};

/// Opt-in declaration of the thread-safety trait: a domain that defines
/// `static constexpr bool ThreadSafeInterpret = true` promises that
/// concurrent calls of its const operations (interpret, extend, the
/// choices, leq/equal, the widenings) on a single instance are data-race
/// free — for domains with parallel-phase hooks (below), within a
/// bracketed parallel phase. The parallel engine consults this before
/// precompiling transformers concurrently or running the per-SCC parallel
/// scheduler; domains with unguarded shared mutable internals declare
/// false — or nothing, since absent means unsafe — and are iterated
/// sequentially.
template <typename D>
concept DeclaresThreadSafeInterpret = requires {
  { D::ThreadSafeInterpret } -> std::convertible_to<bool>;
};

/// Whether the engine may touch \p D from several threads at once.
/// Conservative default: domains that do not opt in are treated as unsafe.
template <typename D> consteval bool threadSafeInterpret() {
  if constexpr (DeclaresThreadSafeInterpret<D>)
    return D::ThreadSafeInterpret;
  else
    return false;
}

/// Opt-in reporting of numeric-layer counters: a domain built on the
/// poly backends may expose the process-wide conversion/escalation
/// counters (poly::numericCounters) as a snapshot, and the solver then
/// attributes per-solve deltas to SolverStats::Numeric.
/// The method is static — the counters are a property of the numeric
/// layer, not of one domain instance.
template <typename D>
concept ReportsNumericStats = requires {
  { D::numericStats() } -> std::convertible_to<NumericLayerStats>;
};

/// Optional parallel-phase hooks. A domain whose thread safety is not free
/// (it must reroute work through per-thread state, start synchronizing a
/// shared structure, ...) may declare
///
///   void parallelBegin(unsigned Workers);   // entering a parallel phase
///   void parallelEnd();                     // phase over, all calls done
///
/// and the engine brackets every concurrent section (up-front transformer
/// precompilation, the parallel per-SCC scheduler) with them: parallelBegin
/// is called before the first concurrent domain call can be issued, and
/// parallelEnd only after all of them have returned. Brackets nest
/// (precompile inside solve brackets again); domains track the depth.
/// AddBiDomain is the motivating client: between the hooks it computes in
/// thread-local AddManager arenas and publishes results into its shared
/// home manager by a lock-guarded migrate, and at the outermost
/// parallelEnd it drops the arenas (whose pool threads are about to die).
/// Outside any bracket such a domain runs its plain sequential path, so
/// Jobs = 1 solves pay nothing.
template <typename D>
concept ParallelPhaseDomain = requires(D &Dom, unsigned Workers) {
  { Dom.parallelBegin(Workers) };
  { Dom.parallelEnd() };
};

/// RAII bracket for a parallel phase; no-op for domains without the hooks
/// (their thread safety is unconditional) and when \p Enable is false
/// (the engine is not actually going parallel).
template <typename D> class ParallelPhase {
public:
  ParallelPhase(D &Dom, unsigned Workers, bool Enable)
      : Dom(Dom), Active(Enable) {
    if constexpr (ParallelPhaseDomain<D>) {
      if (Active)
        Dom.parallelBegin(Workers);
    }
  }
  ~ParallelPhase() {
    if constexpr (ParallelPhaseDomain<D>) {
      if (Active)
        Dom.parallelEnd();
    }
  }
  ParallelPhase(const ParallelPhase &) = delete;
  ParallelPhase &operator=(const ParallelPhase &) = delete;

private:
  D &Dom;
  [[maybe_unused]] bool Active;
};

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_DOMAIN_H
