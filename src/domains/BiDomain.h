//===- domains/BiDomain.h - Interprocedural Bayesian inference --*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PMA B of §5.1: the interprocedural, nondeterminism-tolerant
/// reformulation of Claret et al.'s dataflow Bayesian inference.
///
/// A value is a two-vocabulary distribution transformer: a
/// 2^|Var| x 2^|Var'| matrix of reals in [0,1], where entry (s, t) is (a
/// lower bound on) the probability that execution started in pre-state s
/// terminates in post-state t.
///
///   ⊑ = pointwise ≤        ⊗ = matrix product      p⊕ = affine combination
///   phi^ = row selection   ⋓ = pointwise min       ⊥ = 0     1 = identity
///
/// Pointwise min makes the analysis compute procedure summaries that are
/// lower bounds on posterior distributions (γ_B is a probabilistic
/// *under*-abstraction, Thm 5.2), so no widening is used: iteration starts
/// at ⊥ and every intermediate result is already sound; float chains
/// stabilize within the configured tolerance (§6.1).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_DOMAINS_BIDOMAIN_H
#define PMAF_DOMAINS_BIDOMAIN_H

#include "core/Domain.h"
#include "domains/BoolStateSpace.h"
#include "linalg/Matrix.h"

#include <string>
#include <vector>

namespace pmaf {
namespace domains {

/// Bounds on the post-distribution mass of a predicate under a summary
/// whose entries are *lower bounds* on transition probabilities (the BI
/// under-abstraction): from pre-state s the mass of phi is at least
/// sum_{t |= phi} a(s, t), and at most 1 - sum_{t |/= phi} a(s, t) (the
/// unaccounted mass 1 - sum_t a(s, t) could all land on phi-states).
/// The fields quantify over every pre-state row of the summary.
struct ProbMassBounds {
  double MinLower = 0.0; ///< min over pre-states of the guaranteed mass.
  double MaxUpper = 1.0; ///< max over pre-states of the possible mass.
};

/// Computes ProbMassBounds of \p Phi for a lower-bound summary matrix over
/// \p Space (used by checks/Checker for both the dense and ADD-backed BI
/// domains).
ProbMassBounds probMassBounds(const Matrix &Summary,
                              const BoolStateSpace &Space,
                              const lang::Cond &Phi);

/// The Bayesian-inference interpretation B = <B, ⟦·⟧_B> (§5.1).
class BiDomain {
public:
  using Value = Matrix;

  /// \param Space Boolean state space of the program under analysis.
  /// \param Tolerance equality tolerance for fixpoint detection.
  explicit BiDomain(const BoolStateSpace &Space, double Tolerance = 1e-12)
      : Space(&Space), Tolerance(Tolerance) {}

  Value bottom() const {
    return Matrix::zero(Space->numStates(), Space->numStates());
  }
  Value one() const { return Matrix::identity(Space->numStates()); }

  /// a ⊗_B b = a x b (reversal of kernel composition, footnote 3).
  Value extend(const Value &A, const Value &B) const { return A * B; }

  /// (a phi^_B b)(s, t) = phi(s) ? a(s, t) : b(s, t).
  Value condChoice(const lang::Cond &Phi, const Value &A,
                   const Value &B) const;

  Value probChoice(const Rational &P, const Value &A, const Value &B) const {
    double Prob = P.toDouble();
    Value Result = A;
    Result.scaleInPlace(Prob);
    Result.addScaledInPlace(B, 1.0 - Prob);
    return Result;
  }

  /// Pointwise min: lower bounds under demonic nondeterminism.
  Value ndetChoice(const Value &A, const Value &B) const {
    Value Result = A;
    Result.pointwiseMinInPlace(B);
    return Result;
  }

  /// Semantic function ⟦·⟧_B: Boolean assignment, Bernoulli sampling,
  /// observe (conditioning), and skip.
  Value interpret(const lang::Stmt *Action) const;

  bool leq(const Value &A, const Value &B) const {
    return A.leqAll(B, Tolerance);
  }
  bool equal(const Value &A, const Value &B) const {
    return A.maxAbsDiff(B) <= Tolerance;
  }

  /// No widening (§5.1): intermediate iterates of an under-abstraction
  /// started from ⊥ are already sound.
  Value widenCond(const Value &Old, const Value &New) const {
    (void)Old;
    return New;
  }
  Value widenProb(const Value &Old, const Value &New) const {
    (void)Old;
    return New;
  }
  Value widenNdet(const Value &Old, const Value &New) const {
    (void)Old;
    return New;
  }
  Value widenCall(const Value &Old, const Value &New) const {
    (void)Old;
    return New;
  }

  std::string toString(const Value &A) const { return A.toString(); }

  /// Applies a procedure summary to a prior distribution over pre-states,
  /// yielding the (sub-probability) posterior over post-states.
  std::vector<double> posterior(const Value &Summary,
                                const std::vector<double> &Prior) const {
    return Summary.applyToRowVector(Prior);
  }

  /// Fixpoint query hook for checks/Checker: mass bounds of \p Phi under
  /// the summary, quantified over all pre-states.
  ProbMassBounds massBounds(const Value &Summary,
                            const lang::Cond &Phi) const {
    return probMassBounds(Summary, *Space, Phi);
  }

  const BoolStateSpace &space() const { return *Space; }

private:
  const BoolStateSpace *Space;
  double Tolerance;
};

static_assert(core::PreMarkovAlgebra<BiDomain>,
              "BiDomain must satisfy the PMA interface");

} // namespace domains
} // namespace pmaf

#endif // PMAF_DOMAINS_BIDOMAIN_H
