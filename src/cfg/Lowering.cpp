//===- cfg/Lowering.cpp - AST to control-flow hyper-graph ------------------===//
//
// Lowers the structured AST (plus break/continue/return, which produce
// unstructured control flow as in Ex 3.4) to the hyper-graph program model
// of Defn 3.2. The translation is driven backward: each statement is lowered
// against its successor node, which matches the backward orientation of the
// analysis (§2.3).
//
//===----------------------------------------------------------------------===//

#include "cfg/HyperGraph.h"

#include <cassert>

using namespace pmaf;
using namespace pmaf::cfg;
using namespace pmaf::lang;

namespace pmaf {
namespace cfg {

class GraphBuilder {
public:
  explicit GraphBuilder(const Program &Prog) { Graph.Prog = &Prog; }

  ProgramGraph run() {
    const Program &Prog = *Graph.Prog;
    Graph.Procs.resize(Prog.Procs.size());
    for (unsigned I = 0; I != Prog.Procs.size(); ++I) {
      CurrentProc = I;
      unsigned Exit = newNode(Prog.Procs[I].Loc);
      unsigned Entry =
          lowerStmt(*Prog.Procs[I].Body, Exit, ~0u, ~0u, Exit);
      Entry = ensureFreshEntry(Entry, Prog.Procs[I].Loc);
      Graph.Procs[I].Entry = Entry;
      Graph.Procs[I].Exit = Exit;
    }
    return std::move(Graph);
  }

private:
  unsigned newNode(SourceLoc Loc = {}) {
    Graph.OutEdge.push_back(-1);
    Graph.ProcOfNode.push_back(CurrentProc);
    Graph.NodeLocs.push_back(Loc);
    return static_cast<unsigned>(Graph.OutEdge.size() - 1);
  }

  void addEdge(unsigned Src, std::vector<unsigned> Dsts, ControlAction Ctrl) {
    assert(Graph.OutEdge[Src] < 0 && "node already has an outgoing edge");
    Graph.OutEdge[Src] = static_cast<int>(Graph.Edges.size());
    Graph.Edges.push_back(
        HyperEdge{Src, std::move(Dsts), std::move(Ctrl)});
  }

  static ControlAction guardAction(const Guard &G) {
    switch (G.TheKind) {
    case Guard::Kind::Cond:
      return ControlAction::cond(G.Phi.get());
    case Guard::Kind::Prob:
      return ControlAction::prob(G.Prob);
    case Guard::Kind::Ndet:
      return ControlAction::ndet();
    }
    assert(false && "unknown guard kind");
    return ControlAction::ndet();
  }

  /// Lowers \p S so that control continues at \p Succ; returns the entry
  /// node of the lowered fragment. \p BreakTarget and \p ContinueTarget are
  /// the current loop's exit and head (~0u outside loops); \p ExitNode is
  /// the procedure exit (the target of `return`).
  unsigned lowerStmt(const Stmt &S, unsigned Succ, unsigned BreakTarget,
                     unsigned ContinueTarget, unsigned ExitNode) {
    switch (S.kind()) {
    case Stmt::Kind::Skip:
    case Stmt::Kind::Assign:
    case Stmt::Kind::Sample:
    case Stmt::Kind::Observe:
    case Stmt::Kind::Reward:
    case Stmt::Kind::Assert: {
      unsigned Node = newNode(S.loc());
      addEdge(Node, {Succ}, ControlAction::seq(&S));
      return Node;
    }
    case Stmt::Kind::Call: {
      unsigned Node = newNode(S.loc());
      addEdge(Node, {Succ}, ControlAction::call(S.calleeIndex()));
      return Node;
    }
    case Stmt::Kind::Block: {
      unsigned Cursor = Succ;
      const std::vector<Stmt::Ptr> &Stmts = S.stmts();
      for (size_t I = Stmts.size(); I-- > 0;)
        Cursor = lowerStmt(*Stmts[I], Cursor, BreakTarget, ContinueTarget,
                           ExitNode);
      return Cursor;
    }
    case Stmt::Kind::If: {
      unsigned ThenEntry =
          lowerStmt(S.thenStmt(), Succ, BreakTarget, ContinueTarget,
                    ExitNode);
      unsigned ElseEntry =
          S.elseStmt() ? lowerStmt(*S.elseStmt(), Succ, BreakTarget,
                                   ContinueTarget, ExitNode)
                       : Succ;
      unsigned Node = newNode(S.guard().Loc);
      addEdge(Node, {ThenEntry, ElseEntry}, guardAction(S.guard()));
      return Node;
    }
    case Stmt::Kind::While: {
      // The loop head is the confluence node; the body's normal successor
      // and `continue` return to it, `break` leaves to Succ.
      unsigned Head = newNode(S.guard().Loc);
      unsigned BodyEntry = lowerStmt(S.body(), Head, Succ, Head, ExitNode);
      addEdge(Head, {BodyEntry, Succ}, guardAction(S.guard()));
      return Head;
    }
    case Stmt::Kind::Break:
      assert(BreakTarget != ~0u && "break outside loop");
      return BreakTarget;
    case Stmt::Kind::Continue:
      assert(ContinueTarget != ~0u && "continue outside loop");
      return ContinueTarget;
    case Stmt::Kind::Return:
      return ExitNode;
    }
    assert(false && "unknown statement kind");
    return Succ;
  }

  /// Defn 3.1 requires the entry node to have no incoming hyper-edges; if
  /// lowering produced an entry that is a loop head (or the exit itself),
  /// prepend a skip node.
  unsigned ensureFreshEntry(unsigned Entry, SourceLoc ProcLoc) {
    bool Incoming = false;
    for (const HyperEdge &E : Graph.Edges)
      for (unsigned Dst : E.Dsts)
        if (Dst == Entry)
          Incoming = true;
    if (!Incoming && Graph.OutEdge[Entry] >= 0)
      return Entry;
    unsigned Fresh = newNode(ProcLoc);
    addEdge(Fresh, {Entry}, ControlAction::seq(nullptr));
    return Fresh;
  }

  ProgramGraph Graph;
  unsigned CurrentProc = 0;
};

} // namespace cfg
} // namespace pmaf

ProgramGraph ProgramGraph::build(const Program &Prog) {
  return GraphBuilder(Prog).run();
}

std::vector<std::vector<unsigned>> ProgramGraph::dependenceSuccessors() const {
  std::vector<std::vector<unsigned>> Succs(numNodes());
  auto AddArc = [&Succs](unsigned From, unsigned To) {
    for (unsigned Existing : Succs[From])
      if (Existing == To)
        return;
    Succs[From].push_back(To);
  };
  for (const HyperEdge &E : Edges) {
    for (unsigned Dst : E.Dsts)
      AddArc(Dst, E.Src);
    if (E.Ctrl.TheKind == ControlAction::Kind::Call)
      AddArc(Procs[E.Ctrl.Callee].Entry, E.Src);
  }
  return Succs;
}

std::string ProgramGraph::toDot() const {
  std::string Out = "digraph pmaf {\n  node [shape=circle];\n";
  auto NodeName = [](unsigned V) {
    std::string Name = "v";
    Name += std::to_string(V);
    return Name;
  };
  for (unsigned P = 0; P != Procs.size(); ++P) {
    Out += "  subgraph cluster_" + std::to_string(P) + " {\n";
    Out += "    label=\"" + Prog->Procs[P].Name + "\";\n";
    for (unsigned V = 0; V != numNodes(); ++V)
      if (ProcOfNode[V] == P) {
        std::string Shape =
            V == Procs[P].Entry || V == Procs[P].Exit ? "doublecircle"
                                                      : "circle";
        Out += "    " + NodeName(V) + " [shape=" + Shape + "];\n";
      }
    Out += "  }\n";
  }
  unsigned PointId = 0;
  for (const HyperEdge &E : Edges) {
    std::string Label;
    switch (E.Ctrl.TheKind) {
    case ControlAction::Kind::Seq:
      Label = E.Ctrl.DataAction
                  ? lang::toString(*E.Ctrl.DataAction, *Prog)
                  : "skip";
      // Strip trailing ";\n" produced by the statement printer.
      while (!Label.empty() && (Label.back() == '\n' || Label.back() == ';'))
        Label.pop_back();
      break;
    case ControlAction::Kind::Call:
      Label = "call " + Prog->Procs[E.Ctrl.Callee].Name;
      break;
    case ControlAction::Kind::Cond:
      Label = "cond[" + lang::toString(*E.Ctrl.Phi, *Prog) + "]";
      break;
    case ControlAction::Kind::Prob:
      Label = "prob[" + E.Ctrl.Prob.toString() + "]";
      break;
    case ControlAction::Kind::Ndet:
      Label = "ndet";
      break;
    }
    if (E.Dsts.size() == 1) {
      Out += "  " + NodeName(E.Src) + " -> " + NodeName(E.Dsts[0]) +
             " [label=\"" + Label + "\"];\n";
    } else {
      std::string Point = "p" + std::to_string(PointId++);
      Out += "  " + Point + " [shape=point];\n";
      Out += "  " + NodeName(E.Src) + " -> " + Point + " [label=\"" + Label +
             "\", arrowhead=none];\n";
      Out += "  " + Point + " -> " + NodeName(E.Dsts[0]) +
             " [label=\"1\"];\n";
      Out += "  " + Point + " -> " + NodeName(E.Dsts[1]) +
             " [label=\"2\"];\n";
    }
  }
  Out += "}\n";
  return Out;
}
