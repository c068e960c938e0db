//===- add/Add.h - Algebraic decision diagrams ------------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algebraic decision diagrams (ADDs; Bahar et al., reference [2] of the
/// paper): ordered, reduced decision diagrams whose terminals are real
/// values, representing pseudo-Boolean functions B^n -> R compactly.
///
/// §6.2 observes that the Bayesian-inference instantiation's explicit
/// matrices grow exponentially with the number of program variables and
/// suggests ADDs as the compact representation; domains/AddBiDomain.h is
/// that extension, built on this manager.
///
/// The manager hash-conses nodes (so structural equality is pointer
/// equality), memoizes the binary `apply` combinators, and provides the
/// operations matrix algebra over 2^n x 2^n transformers needs:
/// pointwise arithmetic, scalar scaling, existential summation (for the
/// contraction in matrix products), and level renaming (a linear
/// structural rebuild for order-preserving maps, an apply-based
/// reconstruction for general injective permutations).
///
/// A manager is deliberately a single-threaded object: its unique table
/// and operation caches are unsynchronized.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_ADD_ADD_H
#define PMAF_ADD_ADD_H

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace pmaf {
namespace add {

/// Node and function handle; value-type, owned by an AddManager.
using NodeRef = uint32_t;

/// Pointwise binary combinators for apply().
enum class Op { Add, Sub, Mul, Min, Max };

/// The node store and operation cache for a family of ADDs.
class AddManager {
public:
  AddManager();

  static constexpr unsigned TerminalLevel = ~0u;

  /// \returns the (hash-consed) terminal with value \p Value.
  NodeRef terminal(double Value);

  /// \returns the function `if x_Level then Hi else Lo` (reduced: returns
  /// Lo when Lo == Hi). Children must only test levels > \p Level.
  NodeRef makeNode(unsigned Level, NodeRef Lo, NodeRef Hi);

  /// The 0/1 indicator of variable \p Level.
  NodeRef indicator(unsigned Level) {
    return makeNode(Level, Zero, One);
  }

  bool isTerminal(NodeRef N) const { return levelOf(N) == TerminalLevel; }
  double terminalValue(NodeRef N) const;
  unsigned levelOf(NodeRef N) const { return Nodes[N].Level; }
  NodeRef lo(NodeRef N) const { return Nodes[N].Lo; }
  NodeRef hi(NodeRef N) const { return Nodes[N].Hi; }

  /// Pointwise combination of two functions.
  NodeRef apply(Op TheOp, NodeRef A, NodeRef B);

  /// Pointwise scalar multiple.
  NodeRef scale(NodeRef A, double Factor);

  /// Pointwise affine map factor * A + offset.
  NodeRef affine(NodeRef A, double Factor, double Offset);

  /// Sums the function over all assignments to the (sorted, distinct)
  /// \p Levels: the result no longer depends on them, and levels absent
  /// from a path contribute a factor of 2 as usual.
  NodeRef sumOut(NodeRef A, const std::vector<unsigned> &Levels);

  /// Renames decision levels: NewLevel = Map(OldLevel). \p Map must be
  /// injective on the levels \p A actually tests; it may otherwise reorder
  /// them freely (e.g. swap adjacent levels). Maps that preserve the level
  /// order on the support take a linear-time structural rebuild; general
  /// permutations fall back to an apply-based reconstruction that re-sorts
  /// the decisions, so the result is canonical either way.
  NodeRef rename(NodeRef A,
                 const std::function<unsigned(unsigned)> &Map);

  /// The sorted distinct levels the diagram rooted at \p A tests.
  std::vector<unsigned> support(NodeRef A) const;

  /// Largest / smallest terminal value reachable from \p A.
  double maxTerminal(NodeRef A) const;
  double minTerminal(NodeRef A) const;

  /// max over all inputs of |A - B|.
  double maxAbsDiff(NodeRef A, NodeRef B) {
    NodeRef Diff = apply(Op::Sub, A, B);
    return std::max(maxTerminal(Diff), -minTerminal(Diff));
  }

  /// Evaluates under a variable assignment (level -> bool).
  double evaluate(NodeRef A,
                  const std::function<bool(unsigned)> &Assignment) const;

  /// Number of distinct nodes reachable from \p A (diagram size).
  size_t nodeCount(NodeRef A) const;

  /// Total nodes allocated by this manager (monotone; no GC).
  size_t totalNodes() const { return Nodes.size(); }

  /// Constants 0 and 1, premade.
  NodeRef zero() const { return Zero; }
  NodeRef one() const { return One; }

private:
  struct Node {
    unsigned Level;
    NodeRef Lo, Hi;
    double Value; // Terminals only.
  };

  struct NodeKey {
    unsigned Level;
    NodeRef Lo, Hi;
    bool operator==(const NodeKey &O) const {
      return Level == O.Level && Lo == O.Lo && Hi == O.Hi;
    }
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey &K) const {
      size_t H = K.Level;
      H = H * 1000003u + K.Lo;
      H = H * 1000003u + K.Hi;
      return H;
    }
  };
  struct ApplyKey {
    Op TheOp;
    NodeRef A, B;
    bool operator==(const ApplyKey &O) const {
      return TheOp == O.TheOp && A == O.A && B == O.B;
    }
  };
  struct ApplyKeyHash {
    size_t operator()(const ApplyKey &K) const {
      size_t H = static_cast<size_t>(K.TheOp);
      H = H * 1000003u + K.A;
      H = H * 1000003u + K.B;
      return H;
    }
  };

  static double combine(Op TheOp, double A, double B);

  NodeRef applyRec(Op TheOp, NodeRef A, NodeRef B,
                   std::unordered_map<ApplyKey, NodeRef, ApplyKeyHash>
                       &Cache);
  NodeRef sumOutRec(NodeRef A, const std::vector<unsigned> &Levels,
                    size_t Index,
                    std::unordered_map<uint64_t, NodeRef> &Cache);

  std::vector<Node> Nodes;
  std::unordered_map<uint64_t, NodeRef> Terminals; // by double bits
  std::unordered_map<NodeKey, NodeRef, NodeKeyHash> Unique;
  std::unordered_map<ApplyKey, NodeRef, ApplyKeyHash> ApplyCache;
  NodeRef Zero = 0, One = 0;
};

} // namespace add
} // namespace pmaf

#endif // PMAF_ADD_ADD_H
