//===- core/CompiledProgram.h - Per-analysis compiled artifact --*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled-program layer of the analysis engine: everything about the
/// inequality system of §4.3 that does not change while the fixpoint is
/// iterated, computed once per (graph, domain) pair.
///
///  * **Edge transformers.** `Dom.interpret(act)` abstracts a `seq` edge's
///    data action into the domain. The result depends only on the edge, so
///    a CompiledProgram evaluates it at most once per edge and caches it
///    indexed by hyper-edge id — the *interpret-cache invariant*. The
///    monolithic solver used to re-interpret on every node update, which
///    for LEIA meant rebuilding the same polyhedra thousands of times per
///    fixpoint. Transformers are interpreted lazily, on an edge's first
///    evaluation.
///  * **Right-hand sides.** evalRhs() evaluates one inequality of the
///    system against a value vector, using the cached transformers; no
///    later layer walks the AST.
///  * **Dependents.** The dependence graph of Eqn 2 as successor lists
///    (dependents(u) = nodes whose right-hand side reads u), precomputed
///    from cfg::HyperGraph for the worklist scheduler and for the WTO.
///  * **Iteration order.** The WTO of the dependence graph rooted at the
///    procedure exits, with two derived artifacts: the widening-operator
///    kind per widening point (the kinds of the component's guard edges,
///    under the precedence ndet ▷ prob ▷ cond — see wideningKinds()).
///
/// A CompiledProgram may be reused across repeated solve() calls over the
/// same domain instance (the transformer cache then persists, which is
/// what the bench harnesses want when timing re-analyses). It is not
/// thread-safe: one solve or edit at a time (pmafd holds the session lock
/// around every request that touches one).
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_CORE_COMPILEDPROGRAM_H
#define PMAF_CORE_COMPILEDPROGRAM_H

#include "cfg/HyperGraph.h"
#include "cfg/Wto.h"
#include "core/Domain.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace pmaf {
namespace core {

/// A program compiled against a domain: cached `seq`-edge transformers,
/// right-hand-side evaluation, and the dependence structure of Eqn 2.
template <PreMarkovAlgebra D> class CompiledProgram {
public:
  using Value = typename D::Value;

  CompiledProgram(const cfg::ProgramGraph &Graph, D &Dom)
      : Graph(Graph), Dom(Dom),
        Dependents(Graph.dependenceSuccessors()),
        Transformers(Graph.edges().size()) {
    // Iteration order: WTO of the dependence graph, rooted at the exits
    // so that values flow leaf-to-root (§2.3). Invariant across solves.
    std::vector<unsigned> Roots;
    for (unsigned P = 0; P != Graph.numProcs(); ++P)
      Roots.push_back(Graph.proc(P).Exit);
    Order = cfg::Wto::compute(Dependents, Roots);
    computeWideningKinds();
  }

  const cfg::ProgramGraph &graph() const { return Graph; }
  D &domain() { return Dom; }

  /// Dependence successors (Eqn 2): dependents()[u] lists the nodes whose
  /// inequality right-hand side mentions S(u).
  const std::vector<std::vector<unsigned>> &dependents() const {
    return Dependents;
  }

  /// The WTO every solve over this program iterates by (§4.4): computed
  /// over the dependence graph, rooted at the procedure exits.
  const cfg::Wto &wto() const { return Order; }

  /// The widening-operator kind per node: for a widening point, the
  /// control-action kind that selects the operator at `old ∇ new`. A
  /// component may be guarded by several branch kinds at once (a head can
  /// close a conditional loop that also exits through a probabilistic
  /// `break`), and which guard the head's own outgoing edge happens to be
  /// is an accident of DFS order — so the kind is chosen from the
  /// component's *guards* (branch edges with one destination inside the
  /// component and one outside: the decisions that can re-enter the loop
  /// or leave it) under the precedence ndet ▷ prob ▷ cond, falling back
  /// to Call (the recursion-cut operator) for guard-free cycles. Branches
  /// wholly inside the body — both arms continue around the loop — do not
  /// guard it and must not influence the operator: Ex 5.8's conditional
  /// loop around an internal probabilistic branch still needs the
  /// pessimistic conditional widening to stabilize. This keeps Obs 4.9
  /// (old ⊑ new at every widening) while making the operator a function
  /// of the component, not of edge storage order.
  const std::vector<cfg::ControlAction::Kind> &wideningKinds() const {
    return WideningKinds;
  }

  /// The abstract transformer of `seq` hyper-edge \p EdgeIndex; interprets
  /// the edge's data action on first request and serves the cached value
  /// afterwards.
  const Value &transformer(unsigned EdgeIndex) {
    std::optional<Value> &Slot = Transformers[EdgeIndex];
    if (Slot) {
      ++InterpretCacheHitCount;
      return *Slot;
    }
    assert(Graph.edges()[EdgeIndex].Ctrl.TheKind ==
               cfg::ControlAction::Kind::Seq &&
           "only seq edges carry data actions");
    Slot.emplace(Dom.interpret(Graph.edges()[EdgeIndex].Ctrl.DataAction));
    ++InterpretCallCount;
    return *Slot;
  }

  /// Adopts an already-computed transformer for `seq` edge \p EdgeIndex
  /// without calling Dom.interpret — the incremental-server hook: after an
  /// edit rebuilds the graph, transformers of edges in *unchanged*
  /// procedures are copied over from the previous CompiledProgram (they
  /// are pure functions of the edge's data action and the variable table,
  /// both unchanged). A no-op when the slot is already filled.
  /// \returns true when this call filled the slot.
  bool seedTransformer(unsigned EdgeIndex, Value V) {
    std::optional<Value> &Slot = Transformers[EdgeIndex];
    if (Slot)
      return false;
    assert(Graph.edges()[EdgeIndex].Ctrl.TheKind ==
               cfg::ControlAction::Kind::Seq &&
           "only seq edges carry transformers");
    Slot.emplace(std::move(V));
    ++SeededTransformerCount;
    return true;
  }

  /// The cached transformer of \p EdgeIndex when its slot is filled,
  /// nullptr otherwise. Read-only: never triggers an interpret and never
  /// counts as cache traffic.
  const Value *peekTransformer(unsigned EdgeIndex) const {
    const std::optional<Value> &Slot = Transformers[EdgeIndex];
    return Slot ? &*Slot : nullptr;
  }

  /// Transformer slots filled by seedTransformer (adopted from a prior
  /// compiled program) rather than by Dom.interpret.
  uint64_t seededTransformers() const { return SeededTransformerCount; }

  /// Right-hand side of node \p V's inequality (§4.3), evaluated against
  /// the value vector \p S. \p V must not be an exit node.
  Value evalRhs(unsigned V, const std::vector<Value> &S) {
    const cfg::HyperEdge *Edge = Graph.outgoing(V);
    assert(Edge && "exit nodes are constant");
    switch (Edge->Ctrl.TheKind) {
    case cfg::ControlAction::Kind::Seq:
      return Dom.extend(
          transformer(static_cast<unsigned>(Graph.outgoingIndex(V))),
          S[Edge->Dsts[0]]);
    case cfg::ControlAction::Kind::Call:
      return Dom.extend(S[Graph.proc(Edge->Ctrl.Callee).Entry],
                        S[Edge->Dsts[0]]);
    case cfg::ControlAction::Kind::Cond:
      return Dom.condChoice(*Edge->Ctrl.Phi, S[Edge->Dsts[0]],
                            S[Edge->Dsts[1]]);
    case cfg::ControlAction::Kind::Prob:
      return Dom.probChoice(Edge->Ctrl.Prob, S[Edge->Dsts[0]],
                            S[Edge->Dsts[1]]);
    case cfg::ControlAction::Kind::Ndet:
      return Dom.ndetChoice(S[Edge->Dsts[0]], S[Edge->Dsts[1]]);
    }
    assert(false && "unknown control action");
    return Dom.bottom();
  }

  /// Lifetime totals of the transformer cache (across every solve this
  /// compiled program served).
  uint64_t interpretCalls() const { return InterpretCallCount; }
  uint64_t interpretCacheHits() const { return InterpretCacheHitCount; }

private:
  /// Rank of a control-action kind in the widening-operator precedence
  /// (higher wins); seq/call rank 0 so a branch kind always dominates.
  static int branchPrecedence(cfg::ControlAction::Kind K) {
    switch (K) {
    case cfg::ControlAction::Kind::Ndet:
      return 3;
    case cfg::ControlAction::Kind::Prob:
      return 2;
    case cfg::ControlAction::Kind::Cond:
      return 1;
    case cfg::ControlAction::Kind::Seq:
    case cfg::ControlAction::Kind::Call:
      return 0;
    }
    return 0;
  }

  void computeWideningKinds() {
    // Non-heads default to their own outgoing kind (only heads are ever
    // consulted through the widening path); exits keep Seq.
    WideningKinds.assign(Graph.numNodes(), cfg::ControlAction::Kind::Seq);
    for (unsigned V = 0; V != Graph.numNodes(); ++V)
      if (const cfg::HyperEdge *Edge = Graph.outgoing(V))
        WideningKinds[V] = Edge->Ctrl.TheKind;
    std::vector<char> InComponent(Graph.numNodes(), 0);
    for (const cfg::WtoElement &Element : Order.Elements)
      assignComponentKind(Element, InComponent);
  }

  void assignComponentKind(const cfg::WtoElement &Element,
                           std::vector<char> &InComponent) {
    if (!Element.IsComponent)
      return;
    std::vector<unsigned> Members;
    auto Collect = [&](auto &&Self, const cfg::WtoElement &E) -> void {
      Members.push_back(E.Node);
      InComponent[E.Node] = 1;
      for (const cfg::WtoElement &Child : E.Body)
        Self(Self, Child);
    };
    Collect(Collect, Element);
    // A guard is a member branch with one arm back into this component
    // and one arm out of it — the decision that re-enters or leaves the
    // loop. Branches wholly inside the body (including the guards of
    // nested sub-components, whose exits continue around THIS loop) do
    // not qualify.
    int Best = 0;
    cfg::ControlAction::Kind BestKind = cfg::ControlAction::Kind::Call;
    for (unsigned M : Members) {
      const cfg::HyperEdge *Edge = Graph.outgoing(M);
      if (!Edge || Edge->Dsts.size() < 2)
        continue;
      bool Inside = false, Outside = false;
      for (unsigned Dst : Edge->Dsts)
        (InComponent[Dst] ? Inside : Outside) = true;
      if (!Inside || !Outside)
        continue;
      int Rank = branchPrecedence(Edge->Ctrl.TheKind);
      if (Rank > Best) {
        Best = Rank;
        BestKind = Edge->Ctrl.TheKind;
      }
    }
    WideningKinds[Element.Node] = BestKind;
    for (unsigned M : Members)
      InComponent[M] = 0;
    for (const cfg::WtoElement &Child : Element.Body)
      assignComponentKind(Child, InComponent);
  }

  const cfg::ProgramGraph &Graph;
  D &Dom;
  std::vector<std::vector<unsigned>> Dependents;
  std::vector<std::optional<Value>> Transformers;
  cfg::Wto Order;
  std::vector<cfg::ControlAction::Kind> WideningKinds;
  uint64_t InterpretCallCount = 0;
  uint64_t InterpretCacheHitCount = 0;
  uint64_t SeededTransformerCount = 0;
};

} // namespace core
} // namespace pmaf

#endif // PMAF_CORE_COMPILEDPROGRAM_H
