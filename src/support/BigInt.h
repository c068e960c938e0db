//===- support/BigInt.h - Arbitrary-precision signed integers --*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small arbitrary-precision signed integer used by the exact-rational and
/// convex-polyhedra substrates. The paper's prototype delegated exact
/// arithmetic to APRON/GMP; this class is the self-contained replacement.
///
/// Values that fit in an int64_t are stored inline (no allocation) and use
/// overflow-checked machine arithmetic; only results that overflow spill
/// into a vector of 32-bit limbs. The slow path computes in one unsigned
/// 128-bit word, with no intermediate limb vectors, whenever both
/// magnitudes fit in 128 bits (64 for a product's operands). Wider
/// operands take the limb-wise routines: division is Knuth's Algorithm D
/// (one pass of short division for one-limb divisors) and gcd is Euclid's
/// algorithm on it, dropping to the word loops as soon as both operands fit.
///
/// Invariant: a value is in the small representation if and only if it fits
/// in int64_t, so representations are canonical and comparisons cheap.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_SUPPORT_BIGINT_H
#define PMAF_SUPPORT_BIGINT_H

#include <cstdint>
#include <string>
#include <vector>

namespace pmaf {

/// Arbitrary-precision signed integer with an inline int64_t fast path.
class BigInt {
public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from a machine integer.
  BigInt(int64_t Value) : Small(Value) {}

  /// Parses a decimal string with an optional leading '-'.
  /// Asserts on malformed input; intended for trusted literals and tests.
  static BigInt fromString(const std::string &Text);

  /// \returns true if the value is zero.
  bool isZero() const { return IsSmall ? Small == 0 : false; }

  /// \returns -1, 0, or +1 according to the sign of the value.
  int sign() const {
    if (IsSmall)
      return Small < 0 ? -1 : (Small > 0 ? 1 : 0);
    return LargeSign;
  }

  /// \returns true if the value is even (zero counts as even).
  bool isEven() const {
    return IsSmall ? (Small & 1) == 0 : (Mag[0] & 1u) == 0;
  }

  /// \returns true if the value fits in an int64_t.
  bool fitsInt64() const { return IsSmall; }

  /// Converts to int64_t; asserts that the value fits.
  int64_t toInt64() const;

  /// Converts to double (may lose precision; never traps).
  double toDouble() const;

  /// \returns the absolute value.
  BigInt abs() const;

  /// \returns the negation.
  BigInt negated() const;

  /// Renders the value in decimal.
  std::string toString() const;

  /// Three-way comparison: -1 if *this < Other, 0 if equal, +1 otherwise.
  int compare(const BigInt &Other) const;

  BigInt operator+(const BigInt &Other) const;
  BigInt operator-(const BigInt &Other) const;
  BigInt operator*(const BigInt &Other) const;
  BigInt operator-() const { return negated(); }

  BigInt &operator+=(const BigInt &Other) { return *this = *this + Other; }
  BigInt &operator-=(const BigInt &Other) { return *this = *this - Other; }
  BigInt &operator*=(const BigInt &Other) { return *this = *this * Other; }

  bool operator==(const BigInt &Other) const { return compare(Other) == 0; }
  bool operator!=(const BigInt &Other) const { return compare(Other) != 0; }
  bool operator<(const BigInt &Other) const { return compare(Other) < 0; }
  bool operator<=(const BigInt &Other) const { return compare(Other) <= 0; }
  bool operator>(const BigInt &Other) const { return compare(Other) > 0; }
  bool operator>=(const BigInt &Other) const { return compare(Other) >= 0; }

  /// Truncated division: computes Quotient and Remainder such that
  /// `*this == Quotient * Divisor + Remainder`, with the remainder taking
  /// the sign of the dividend (C semantics). Asserts `Divisor != 0`.
  void divmod(const BigInt &Divisor, BigInt &Quotient,
              BigInt &Remainder) const;

  /// Exact division; asserts that Divisor evenly divides *this.
  BigInt divExact(const BigInt &Divisor) const;

  BigInt operator/(const BigInt &Other) const;
  BigInt operator%(const BigInt &Other) const;

  /// \returns gcd(|A|, |B|); gcd(0, 0) == 0.
  static BigInt gcd(const BigInt &A, const BigInt &B);

  /// \returns lcm(|A|, |B|); lcm with zero is zero.
  static BigInt lcm(const BigInt &A, const BigInt &B);

  /// Logical left shift of the magnitude by \p Bits.
  BigInt shiftLeft(unsigned Bits) const;

  /// Logical right shift of the magnitude by \p Bits (rounds toward zero).
  BigInt shiftRight(unsigned Bits) const;

  /// Number of significant bits of the magnitude (0 for zero).
  unsigned bitLength() const;

private:
  /// Builds a large-representation value; demotes to small if it fits.
  static BigInt makeLarge(int Sign, std::vector<uint32_t> Mag);

  /// Magnitude limbs of a small value (little-endian, <= 2 limbs).
  std::vector<uint32_t> smallMag() const;

  /// Writes the magnitude into \p Out if it fits in 128 bits.
  bool magnitude128(unsigned __int128 &Out) const;

  /// Builds Sign * Mag (Sign is -1 or +1; the sign of zero is ignored).
  static BigInt fromMagnitude128(int Sign, unsigned __int128 Mag);

  /// Magnitude limbs without copying a large value's: returns Mag, or
  /// writes a small value's limbs into \p Scratch and returns that.
  const std::vector<uint32_t> &
  magnitude(std::vector<uint32_t> &Scratch) const {
    if (!IsSmall)
      return Mag;
    Scratch = smallMag();
    return Scratch;
  }

  static int compareMag(const std::vector<uint32_t> &A,
                        const std::vector<uint32_t> &B);
  static std::vector<uint32_t> addMag(const std::vector<uint32_t> &A,
                                      const std::vector<uint32_t> &B);
  /// Requires |A| >= |B|.
  static std::vector<uint32_t> subMag(const std::vector<uint32_t> &A,
                                      const std::vector<uint32_t> &B);
  static std::vector<uint32_t> mulMag(const std::vector<uint32_t> &A,
                                      const std::vector<uint32_t> &B);
  /// Quotient and remainder of magnitudes (Knuth's Algorithm D on 32-bit
  /// limbs). Requires a nonzero, trimmed \p V.
  static void divmodMag(const std::vector<uint32_t> &U,
                        const std::vector<uint32_t> &V,
                        std::vector<uint32_t> &Q, std::vector<uint32_t> &R);
  static void trim(std::vector<uint32_t> &Mag);

  /// Slow-path arithmetic on mixed/large operands; addSlow computes
  /// A - B when \p NegateB is set.
  static BigInt addSlow(const BigInt &A, const BigInt &B, bool NegateB);
  static BigInt mulSlow(const BigInt &A, const BigInt &B);

  bool IsSmall = true;
  int64_t Small = 0;   ///< Valid when IsSmall.
  int LargeSign = 0;   ///< -1 or +1 when !IsSmall (never 0).
  std::vector<uint32_t> Mag; ///< Valid when !IsSmall; > int64 range.
};

} // namespace pmaf

#endif // PMAF_SUPPORT_BIGINT_H
