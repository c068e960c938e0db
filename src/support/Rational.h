//===- support/Rational.h - Exact rational numbers -------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers over BigInt. All linear-expression and polyhedra
/// arithmetic in the LEIA instantiation (§5.3 of the paper) is performed
/// with this type so that meets, joins, projections, and widenings never
/// suffer floating-point drift.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SUPPORT_RATIONAL_H
#define PMAF_SUPPORT_RATIONAL_H

#include "support/BigInt.h"

#include <optional>
#include <string>

namespace pmaf {

/// An exact rational in lowest terms with a positive denominator.
class Rational {
public:
  /// Constructs zero.
  Rational() : Num(0), Den(1) {}

  /// Constructs the integer \p Value.
  Rational(int64_t Value) : Num(Value), Den(1) {}

  /// Constructs Numerator/Denominator; asserts Denominator != 0.
  Rational(BigInt Numerator, BigInt Denominator);

  /// Constructs Numerator/Denominator from machine integers.
  Rational(int64_t Numerator, int64_t Denominator)
      : Rational(BigInt(Numerator), BigInt(Denominator)) {}

  /// Bounds on a literal parseLiteral accepts: the number of digits, and
  /// the magnitude of the written decimal exponent. Expanding a larger
  /// literal into exact integers would take unbounded time and memory.
  static constexpr size_t MaxLiteralDigits = 1000;
  static constexpr int64_t MaxLiteralExponent = 1000;

  /// Parses "123", "-4/5", or a decimal like "0.75" / "-1.25e-2" exactly.
  /// \returns std::nullopt if the literal exceeds MaxLiteralDigits or
  /// MaxLiteralExponent. Asserts on malformed input; the lexer guarantees
  /// the syntax.
  static std::optional<Rational> parseLiteral(const std::string &Text);

  /// parseLiteral for trusted literals; throws std::bad_optional_access if
  /// \p Text is out of range.
  static Rational fromString(const std::string &Text);

  const BigInt &numerator() const { return Num; }
  const BigInt &denominator() const { return Den; }

  bool isZero() const { return Num.isZero(); }
  bool isInteger() const { return Den == BigInt(1); }
  int sign() const { return Num.sign(); }

  Rational operator+(const Rational &Other) const;
  Rational operator-(const Rational &Other) const;
  Rational operator*(const Rational &Other) const;
  /// Asserts Other != 0.
  Rational operator/(const Rational &Other) const;
  Rational operator-() const;

  Rational &operator+=(const Rational &Other);
  Rational &operator-=(const Rational &Other);
  Rational &operator*=(const Rational &Other);
  Rational &operator/=(const Rational &Other);

  /// Three-way comparison by cross-multiplication.
  int compare(const Rational &Other) const;

  bool operator==(const Rational &Other) const { return compare(Other) == 0; }
  bool operator!=(const Rational &Other) const { return compare(Other) != 0; }
  bool operator<(const Rational &Other) const { return compare(Other) < 0; }
  bool operator<=(const Rational &Other) const { return compare(Other) <= 0; }
  bool operator>(const Rational &Other) const { return compare(Other) > 0; }
  bool operator>=(const Rational &Other) const { return compare(Other) >= 0; }

  Rational abs() const { return sign() < 0 ? -*this : *this; }

  double toDouble() const { return Num.toDouble() / Den.toDouble(); }

  /// Renders as "n" or "n/d".
  std::string toString() const;

private:
  void normalize();

  BigInt Num;
  BigInt Den;
};

} // namespace pmaf

#endif // PMAF_SUPPORT_RATIONAL_H
