//===- domains/AddBiDomain.cpp - ADD-backed Bayesian inference ------------===//

#include "domains/AddBiDomain.h"

#include <cassert>

using namespace pmaf;
using namespace pmaf::add;
using namespace pmaf::domains;
using namespace pmaf::lang;

AddBiDomain::AddBiDomain(const BoolStateSpace &Space, double Tolerance)
    : Space(&Space), Mgr(std::make_unique<AddManager>()),
      Tolerance(Tolerance) {
  Identity = frameFactor(~0u);
}

//===----------------------------------------------------------------------===//
// Indicator construction
//===----------------------------------------------------------------------===//

NodeRef AddBiDomain::exprIndicator(const Expr &E) const {
  AddManager &M = *Mgr;
  switch (E.kind()) {
  case Expr::Kind::BoolLit:
    return E.boolValue() ? M.one() : M.zero();
  case Expr::Kind::Var:
    return M.indicator(rowLevel(E.varIndex()));
  case Expr::Kind::Number:
    return E.number().isZero() ? M.zero() : M.one();
  default:
    assert(false && "arithmetic expression in a Boolean program");
    return M.zero();
  }
}

NodeRef AddBiDomain::condIndicator(const Cond &Phi) const {
  AddManager &M = *Mgr;
  switch (Phi.kind()) {
  case Cond::Kind::True:
    return M.one();
  case Cond::Kind::False:
    return M.zero();
  case Cond::Kind::BoolVar:
    return M.indicator(rowLevel(Phi.varIndex()));
  case Cond::Kind::Cmp: {
    NodeRef A = exprIndicator(Phi.cmpLhs());
    NodeRef B = exprIndicator(Phi.cmpRhs());
    // xor = a + b - 2ab over 0/1 indicators.
    NodeRef Xor = M.apply(
        Op::Sub, M.apply(Op::Add, A, B),
        M.scale(M.apply(Op::Mul, A, B), 2.0));
    switch (Phi.cmpOp()) {
    case CmpOp::Eq:
      return M.affine(Xor, -1.0, 1.0);
    case CmpOp::Ne:
      return Xor;
    default:
      assert(false && "ordered comparison in a Boolean program");
      return M.zero();
    }
  }
  case Cond::Kind::Not:
    return M.affine(condIndicator(Phi.operand()), -1.0, 1.0);
  case Cond::Kind::And:
    return M.apply(Op::Min, condIndicator(Phi.lhs()), condIndicator(Phi.rhs()));
  case Cond::Kind::Or:
    return M.apply(Op::Max, condIndicator(Phi.lhs()), condIndicator(Phi.rhs()));
  }
  assert(false && "unknown condition kind");
  return M.zero();
}

NodeRef AddBiDomain::equalsFactor(unsigned Var, NodeRef Rhs) const {
  AddManager &M = *Mgr;
  // [col_Var == Rhs] = 1 - (col + rhs - 2 col rhs) over 0/1 indicators.
  NodeRef Col = M.indicator(colLevel(Var));
  NodeRef Xor = M.apply(
      Op::Sub, M.apply(Op::Add, Col, Rhs),
      M.scale(M.apply(Op::Mul, Col, Rhs), 2.0));
  return M.affine(Xor, -1.0, 1.0);
}

NodeRef AddBiDomain::bernoulliFactor(unsigned Var, double P) const {
  AddManager &M = *Mgr;
  // p at col=true, 1-p at col=false: (2p-1) col + (1-p).
  return M.affine(M.indicator(colLevel(Var)), 2.0 * P - 1.0, 1.0 - P);
}

NodeRef AddBiDomain::frameFactor(unsigned SkipVar) const {
  AddManager &M = *Mgr;
  NodeRef Result = M.one();
  for (unsigned V = 0; V != Space->numVars(); ++V) {
    if (V == SkipVar)
      continue;
    Result =
        M.apply(Op::Mul, Result, equalsFactor(V, M.indicator(rowLevel(V))));
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Algebra operations
//===----------------------------------------------------------------------===//

NodeRef AddBiDomain::extend(const Value &A, const Value &B) const {
  AddManager &M = *Mgr;
  // (A ⊗ B)(x, x') = sum_t A(x, t) B(t, x'): move A's columns and B's rows
  // into the contraction slot (monotone renamings), multiply, sum out.
  NodeRef LiftedA = M.rename(A, [](unsigned Level) {
    return Level % 3 == 2 ? Level - 1 : Level;
  });
  NodeRef LiftedB = M.rename(B, [](unsigned Level) {
    return Level % 3 == 0 ? Level + 1 : Level;
  });
  NodeRef Product = M.apply(Op::Mul, LiftedA, LiftedB);
  std::vector<unsigned> MidLevels;
  for (unsigned V = 0; V != Space->numVars(); ++V)
    MidLevels.push_back(midLevel(V));
  return M.sumOut(Product, MidLevels);
}

NodeRef AddBiDomain::condChoice(const Cond &Phi, const Value &A,
                                const Value &B) const {
  AddManager &M = *Mgr;
  NodeRef Ind = condIndicator(Phi);
  NodeRef NotInd = M.affine(Ind, -1.0, 1.0);
  return M.apply(Op::Add, M.apply(Op::Mul, Ind, A),
                 M.apply(Op::Mul, NotInd, B));
}

NodeRef AddBiDomain::probChoice(const Rational &P, const Value &A,
                                const Value &B) const {
  double Prob = P.toDouble();
  return Mgr->apply(Op::Add, Mgr->scale(A, Prob), Mgr->scale(B, 1.0 - Prob));
}

NodeRef AddBiDomain::ndetChoice(const Value &A, const Value &B) const {
  return Mgr->apply(Op::Min, A, B);
}

NodeRef AddBiDomain::interpret(const Stmt *Action) const {
  AddManager &M = *Mgr;
  if (!Action)
    return Identity;
  switch (Action->kind()) {
  case Stmt::Kind::Skip:
  case Stmt::Kind::Reward:
  case Stmt::Kind::Assert:
    return Identity;
  case Stmt::Kind::Assign:
    return M.apply(Op::Mul, frameFactor(Action->varIndex()),
                   equalsFactor(Action->varIndex(),
                                exprIndicator(Action->value())));
  case Stmt::Kind::Sample: {
    const Dist &D = Action->dist();
    unsigned X = Action->varIndex();
    switch (D.TheKind) {
    case Dist::Kind::Bernoulli: {
      assert(D.Params[0]->kind() == Expr::Kind::Number &&
             "Bernoulli parameter must be constant");
      return M.apply(
          Op::Mul, frameFactor(X),
          bernoulliFactor(X, D.Params[0]->number().toDouble()));
    }
    case Dist::Kind::Discrete: {
      double TrueMass = 0.0, FalseMass = 0.0;
      for (size_t I = 0; I != D.Params.size(); ++I)
        (D.Params[I]->number().isZero() ? FalseMass : TrueMass) +=
            D.Weights[I].toDouble();
      NodeRef Col = M.indicator(colLevel(X));
      NodeRef Factor = M.affine(Col, TrueMass - FalseMass, FalseMass);
      return M.apply(Op::Mul, frameFactor(X), Factor);
    }
    default:
      assert(false && "continuous distribution in a Boolean program");
      return Identity;
    }
  }
  case Stmt::Kind::Observe:
    return M.apply(Op::Mul, Identity, condIndicator(Action->observed()));
  default:
    assert(false && "not a data action");
    return Identity;
  }
}

bool AddBiDomain::leq(const Value &A, const Value &B) const {
  return Mgr->maxTerminal(Mgr->apply(Op::Sub, A, B)) <= Tolerance;
}

bool AddBiDomain::equal(const Value &A, const Value &B) const {
  // Refs are canonical (one node per function), so reference equality
  // decides extensional equality.
  if (A == B)
    return true;
  return Mgr->maxAbsDiff(A, B) <= Tolerance;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

std::vector<double>
AddBiDomain::posterior(const Value &Summary,
                       const std::vector<double> &Prior) const {
  AddManager &M = *Mgr;
  assert(Prior.size() == Space->numStates() &&
         "prior dimension mismatch");
  unsigned N = Space->numVars();
  // Prior as an ADD over the row levels.
  NodeRef PriorAdd = M.zero();
  for (size_t State = 0; State != Prior.size(); ++State) {
    if (Prior[State] == 0.0)
      continue;
    NodeRef Point = M.terminal(Prior[State]);
    for (unsigned V = 0; V != N; ++V) {
      NodeRef Ind = M.indicator(rowLevel(V));
      if (!Space->get(State, V))
        Ind = M.affine(Ind, -1.0, 1.0);
      Point = M.apply(Op::Mul, Point, Ind);
    }
    PriorAdd = M.apply(Op::Add, PriorAdd, Point);
  }
  NodeRef Product = M.apply(Op::Mul, PriorAdd, Summary);
  std::vector<unsigned> RowLevels;
  for (unsigned V = 0; V != N; ++V)
    RowLevels.push_back(rowLevel(V));
  NodeRef Marginal = M.sumOut(Product, RowLevels);
  std::vector<double> Result(Space->numStates());
  for (size_t State = 0; State != Result.size(); ++State)
    Result[State] = M.evaluate(Marginal, [&](unsigned Level) {
      return Space->get(State, Level / 3);
    });
  return Result;
}

Matrix AddBiDomain::toMatrix(const Value &A) const {
  size_t N = Space->numStates();
  Matrix Result(N, N);
  for (size_t Row = 0; Row != N; ++Row)
    for (size_t Col = 0; Col != N; ++Col)
      Result.at(Row, Col) = Mgr->evaluate(A, [&](unsigned Level) {
        unsigned Var = Level / 3;
        return Level % 3 == 0 ? Space->get(Row, Var)
                              : Space->get(Col, Var);
      });
  return Result;
}

size_t AddBiDomain::nodeCount(const Value &A) const {
  return Mgr->nodeCount(A);
}

std::string AddBiDomain::toString(const Value &A) const {
  return "ADD with " + std::to_string(nodeCount(A)) + " nodes";
}
