//===- domains/AddBiDomain.h - ADD-backed Bayesian inference ----*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extension §6.2 suggests: the Bayesian-inference PMA of §5.1 with
/// distribution transformers represented as algebraic decision diagrams
/// instead of dense 2^n x 2^n matrices ("One could use Algebraic Decision
/// Diagrams [2] as a compact representation to improve the efficiency").
///
/// A transformer over n Boolean variables is an ADD over 2n decision
/// levels, interleaved row-first: variable i contributes the pre-state
/// ("row") level 3i and the post-state ("column") level 3i+2; level 3i+1
/// is reserved as the contraction vocabulary of the matrix product
///
///   (A ⊗ B)(x, x') = sum_t A(x, t) * B(t, x'),
///
/// implemented by two monotone level renamings, a pointwise product, and
/// an existential sum — all polynomial in the diagram sizes.
///
/// The algebra is exactly BiDomain's (pointwise min for ⋓, row selection
/// for phi^, affine combination for p⊕), so the two implementations are
/// interchangeable and cross-checked against each other in the tests; the
/// bench compares their scaling in the number of program variables.
///
/// **Parallelism** (the home-and-arenas protocol). An AddManager is
/// single-threaded, yet the domain declares ThreadSafeInterpret: public
/// `Value`s are always NodeRefs in the shared *home* manager, and inside
/// an engine parallel phase (core/Domain.h's parallelBegin/parallelEnd
/// bracket) each thread computes in a private thread-local *arena*
/// manager. Every operation (a) *imports* its operands home → arena,
/// (b) computes entirely in the arena with no lock held, and (c) *exports*
/// the result arena → home; imports and exports are AddManager::migrate
/// calls — the rename-and-merge primitive — serialized by one home mutex
/// and memoized per arena, so a diagram crosses the boundary at most once
/// per direction per arena. Because migrate re-hash-conses every node,
/// exports of extensionally equal diagrams land on the identical home
/// NodeRef and terminal doubles are preserved bit-for-bit — fixpoints are
/// bit-identical to the sequential path whatever the thread count, and
/// `equal`'s reference-equality shortcut stays sound. Outside a parallel
/// phase every operation runs directly on the home manager: sequential
/// solves pay nothing. The outermost parallelEnd drops the arenas (the
/// engine's per-solve pool threads are about to die with it).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_DOMAINS_ADDBIDOMAIN_H
#define PMAF_DOMAINS_ADDBIDOMAIN_H

#include "add/Add.h"
#include "core/Domain.h"
#include "domains/BoolStateSpace.h"
#include "linalg/Matrix.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pmaf {
namespace domains {

/// Bayesian inference over ADD-represented distribution transformers.
class AddBiDomain {
public:
  using Value = add::NodeRef;

  /// Thread-safe *within an engine parallel phase*: between parallelBegin
  /// and parallelEnd each thread hash-conses in its own arena manager and
  /// publishes through mutex-guarded migration into the home manager (see
  /// the file comment). The engine brackets every concurrent section with
  /// the hooks (core::ParallelPhase), so concurrent precompilation and
  /// the per-SCC parallel scheduler are safe.
  static constexpr bool ThreadSafeInterpret = true;

  explicit AddBiDomain(const BoolStateSpace &Space,
                       double Tolerance = 1e-12);
  ~AddBiDomain();

  /// Parallel-phase hooks (core::ParallelPhaseDomain). Nesting is counted;
  /// the outermost parallelEnd() drops all thread-local arenas. Callers
  /// must guarantee no concurrent domain operation is in flight across
  /// either call — the engine's brackets do.
  void parallelBegin(unsigned Workers) const;
  void parallelEnd() const;

  Value bottom() const { return Mgr->zero(); }
  Value one() const { return Identity; }

  /// Matrix product via rename / multiply / sum-out.
  Value extend(const Value &A, const Value &B) const;

  /// Row selection by the truth of phi in the pre-state.
  Value condChoice(const lang::Cond &Phi, const Value &A,
                   const Value &B) const;

  Value probChoice(const Rational &P, const Value &A, const Value &B) const;

  Value ndetChoice(const Value &A, const Value &B) const;

  Value interpret(const lang::Stmt *Action) const;

  bool leq(const Value &A, const Value &B) const;
  bool equal(const Value &A, const Value &B) const;

  Value widenCond(const Value &, const Value &New) const { return New; }
  Value widenProb(const Value &, const Value &New) const { return New; }
  Value widenNdet(const Value &, const Value &New) const { return New; }
  Value widenCall(const Value &, const Value &New) const { return New; }

  std::string toString(const Value &A) const;

  /// Posterior over post-states from a dense prior over pre-states.
  std::vector<double> posterior(const Value &Summary,
                                const std::vector<double> &Prior) const;

  /// Expands to the dense matrix (test/debug; exponential in n).
  Matrix toMatrix(const Value &A) const;

  /// The Boolean state space the domain was built over (checks/Checker
  /// expands assertion-site summaries against it).
  const BoolStateSpace &space() const { return *Space; }

  /// Diagram size of a value (the compactness measure of the bench).
  size_t nodeCount(const Value &A) const;

  /// The home manager: the owner of every public Value.
  add::AddManager &manager() const { return *Mgr; }

  /// Migration traffic counters (test/bench observability): nodes copied
  /// home → arenas resp. arenas → home since construction, and the number
  /// of arenas ever created. All zero for purely sequential use.
  uint64_t importedNodes() const {
    return ImportedNodes.load(std::memory_order_relaxed);
  }
  uint64_t exportedNodes() const {
    return ExportedNodes.load(std::memory_order_relaxed);
  }
  uint64_t arenasCreated() const { return Arenas.createdCount(); }

private:
  /// A thread's private compute state: a local AddManager plus the two
  /// persistent migration memos (home → local, local → home). Defined in
  /// the .cpp; the WorkerLocal member only needs the complete type there.
  struct Arena;

  unsigned rowLevel(unsigned Var) const { return 3 * Var; }
  unsigned midLevel(unsigned Var) const { return 3 * Var + 1; }
  unsigned colLevel(unsigned Var) const { return 3 * Var + 2; }

  /// True while at least one engine parallel phase is open — the switch
  /// between the direct home path and the arena path.
  bool inParallel() const {
    return ParallelDepth.load(std::memory_order_acquire) != 0;
  }

  Arena &arena() const;
  /// Migrate a home diagram into \p Ar's local manager (locks HomeMutex).
  add::NodeRef importRef(Arena &Ar, add::NodeRef HomeRef) const;
  /// Migrate an arena diagram into the home manager (locks HomeMutex).
  add::NodeRef exportRef(Arena &Ar, add::NodeRef LocalRef) const;

  // The algebra, parameterized by the manager that computes it. The public
  // operations dispatch: sequential mode runs them on the home manager,
  // parallel mode on the calling thread's arena between import and export.
  add::NodeRef condIndicatorIn(add::AddManager &M,
                               const lang::Cond &Phi) const;
  add::NodeRef exprIndicatorIn(add::AddManager &M,
                               const lang::Expr &E) const;
  add::NodeRef equalsFactorIn(add::AddManager &M, unsigned Var,
                              add::NodeRef RhsIndicator) const;
  add::NodeRef bernoulliFactorIn(add::AddManager &M, unsigned Var,
                                 double P) const;
  add::NodeRef frameFactorIn(add::AddManager &M, unsigned SkipVar) const;
  add::NodeRef extendIn(add::AddManager &M, add::NodeRef A,
                        add::NodeRef B) const;
  add::NodeRef condChoiceIn(add::AddManager &M, const lang::Cond &Phi,
                            add::NodeRef A, add::NodeRef B) const;
  add::NodeRef probChoiceIn(add::AddManager &M, const Rational &P,
                            add::NodeRef A, add::NodeRef B) const;
  add::NodeRef interpretIn(add::AddManager &M, const lang::Stmt *Action,
                           add::NodeRef IdentityIn) const;
  std::vector<double> posteriorIn(add::AddManager &M,
                                  add::NodeRef Summary,
                                  const std::vector<double> &Prior) const;

  const BoolStateSpace *Space;
  /// The home manager: mutable because apply caching and hash-consing are
  /// internal state. In parallel mode every access is under HomeMutex.
  mutable std::unique_ptr<add::AddManager> Mgr;
  add::NodeRef Identity = 0;
  double Tolerance;

  /// Open parallel-phase count (brackets nest).
  mutable std::atomic<unsigned> ParallelDepth{0};
  /// Serializes all home-manager access while a parallel phase is open.
  mutable std::mutex HomeMutex;
  /// Per-thread arenas, dropped at the outermost parallelEnd().
  mutable support::WorkerLocal<Arena> Arenas;
  mutable std::atomic<uint64_t> ImportedNodes{0};
  mutable std::atomic<uint64_t> ExportedNodes{0};
};

static_assert(core::PreMarkovAlgebra<AddBiDomain>,
              "AddBiDomain must satisfy the PMA interface");
static_assert(core::ParallelPhaseDomain<AddBiDomain>,
              "AddBiDomain must expose the parallel-phase hooks");

} // namespace domains
} // namespace pmaf

#endif // PMAF_DOMAINS_ADDBIDOMAIN_H
