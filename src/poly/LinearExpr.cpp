//===- poly/LinearExpr.cpp - Rational linear expressions -------------------===//

#include "poly/LinearExpr.h"

using namespace pmaf;
using namespace pmaf::poly;

LinearExpr LinearExpr::operator+(const LinearExpr &Other) const {
  assert(dim() == Other.dim() && "dimension mismatch");
  LinearExpr Result(dim());
  for (size_t I = 0; I != Coeffs.size(); ++I)
    Result.Coeffs[I] = Coeffs[I] + Other.Coeffs[I];
  return Result;
}

LinearExpr LinearExpr::operator-(const LinearExpr &Other) const {
  assert(dim() == Other.dim() && "dimension mismatch");
  LinearExpr Result(dim());
  for (size_t I = 0; I != Coeffs.size(); ++I)
    Result.Coeffs[I] = Coeffs[I] - Other.Coeffs[I];
  return Result;
}

LinearExpr LinearExpr::scaled(const Rational &Factor) const {
  LinearExpr Result(dim());
  for (size_t I = 0; I != Coeffs.size(); ++I)
    Result.Coeffs[I] = Coeffs[I] * Factor;
  return Result;
}

Rational LinearExpr::evaluate(const std::vector<Rational> &Point) const {
  assert(Point.size() == dim() && "point dimension mismatch");
  Rational Result = Coeffs[0];
  for (unsigned I = 0; I != dim(); ++I)
    Result += Coeffs[I + 1] * Point[I];
  return Result;
}

std::string LinearExpr::toString(
    const std::vector<std::string> &Names) const {
  std::string Out;
  for (unsigned I = 0; I != dim(); ++I) {
    const Rational &C = coeff(I);
    if (C.isZero())
      continue;
    std::string Name;
    if (I < Names.size()) {
      Name = Names[I];
    } else {
      Name = "x";
      Name += std::to_string(I);
    }
    if (Out.empty()) {
      if (C == Rational(1))
        Out += Name;
      else if (C == Rational(-1))
        Out += "-" + Name;
      else
        Out += C.toString() + "*" + Name;
    } else {
      Rational Abs = C.abs();
      Out += C.sign() < 0 ? " - " : " + ";
      if (Abs == Rational(1))
        Out += Name;
      else
        Out += Abs.toString() + "*" + Name;
    }
  }
  const Rational &B = constantTerm();
  if (Out.empty())
    return B.toString();
  if (!B.isZero())
    Out += (B.sign() < 0 ? " - " : " + ") + B.abs().toString();
  return Out;
}
