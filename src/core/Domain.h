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

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_DOMAIN_H
