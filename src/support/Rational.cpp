//===- support/Rational.cpp - Exact rational numbers ---------------------===//

#include "support/Rational.h"

#include <cassert>

using namespace pmaf;

Rational::Rational(BigInt Numerator, BigInt Denominator)
    : Num(std::move(Numerator)), Den(std::move(Denominator)) {
  assert(!Den.isZero() && "rational with zero denominator");
  normalize();
}

void Rational::normalize() {
  if (Den.sign() < 0) {
    Num = Num.negated();
    Den = Den.negated();
  }
  if (Num.isZero()) {
    Den = BigInt(1);
    return;
  }
  BigInt G = BigInt::gcd(Num, Den);
  if (G != BigInt(1)) {
    Num = Num.divExact(G);
    Den = Den.divExact(G);
  }
}

std::optional<Rational> Rational::parseLiteral(const std::string &Text) {
  assert(!Text.empty() && "empty rational literal");
  // Forms: [-]int, [-]int/int, [-]int[.frac][e[+-]exp]
  size_t E = Text.find_first_of("eE");
  std::string Mantissa = Text.substr(0, E);
  size_t NumDigits = 0;
  for (char C : Mantissa)
    NumDigits += C >= '0' && C <= '9';
  if (NumDigits > MaxLiteralDigits)
    return std::nullopt;
  size_t Slash = Text.find('/');
  if (Slash != std::string::npos)
    return Rational(BigInt::fromString(Text.substr(0, Slash)),
                    BigInt::fromString(Text.substr(Slash + 1)));
  int64_t Exp10 = 0;
  if (E != std::string::npos) {
    size_t I = E + 1;
    bool NegativeExp = I < Text.size() && Text[I] == '-';
    if (I < Text.size() && (Text[I] == '-' || Text[I] == '+'))
      ++I;
    assert(I < Text.size() && "exponent without digits");
    for (; I != Text.size(); ++I) {
      assert(Text[I] >= '0' && Text[I] <= '9' && "bad digit in exponent");
      Exp10 = Exp10 * 10 + (Text[I] - '0');
      if (Exp10 > MaxLiteralExponent)
        return std::nullopt;
    }
    if (NegativeExp)
      Exp10 = -Exp10;
  }
  size_t Dot = Mantissa.find('.');
  std::string Digits = Mantissa;
  if (Dot != std::string::npos) {
    Digits = Mantissa.substr(0, Dot) + Mantissa.substr(Dot + 1);
    Exp10 -= static_cast<int64_t>(Mantissa.size() - Dot - 1);
  }
  if (Digits.empty() || Digits == "-" || Digits == "+")
    Digits += '0';
  BigInt Numerator = BigInt::fromString(Digits);
  BigInt Denominator(1);
  BigInt Ten(10);
  for (int64_t I = 0; I < Exp10; ++I)
    Numerator *= Ten;
  for (int64_t I = 0; I > Exp10; --I)
    Denominator *= Ten;
  return Rational(Numerator, Denominator);
}

Rational Rational::fromString(const std::string &Text) {
  return parseLiteral(Text).value();
}

Rational Rational::operator+(const Rational &Other) const {
  return Rational(Num * Other.Den + Other.Num * Den, Den * Other.Den);
}

Rational Rational::operator-(const Rational &Other) const {
  return Rational(Num * Other.Den - Other.Num * Den, Den * Other.Den);
}

Rational Rational::operator*(const Rational &Other) const {
  return Rational(Num * Other.Num, Den * Other.Den);
}

Rational Rational::operator/(const Rational &Other) const {
  assert(!Other.isZero() && "rational division by zero");
  return Rational(Num * Other.Den, Den * Other.Num);
}

Rational Rational::operator-() const {
  Rational Result = *this;
  Result.Num = Result.Num.negated();
  return Result;
}

Rational &Rational::operator+=(const Rational &Other) {
  *this = *this + Other;
  return *this;
}

Rational &Rational::operator-=(const Rational &Other) {
  *this = *this - Other;
  return *this;
}

Rational &Rational::operator*=(const Rational &Other) {
  *this = *this * Other;
  return *this;
}

Rational &Rational::operator/=(const Rational &Other) {
  *this = *this / Other;
  return *this;
}

int Rational::compare(const Rational &Other) const {
  // Denominators are positive, so cross-multiplication preserves order.
  return (Num * Other.Den).compare(Other.Num * Den);
}

std::string Rational::toString() const {
  if (isInteger())
    return Num.toString();
  return Num.toString() + "/" + Den.toString();
}
