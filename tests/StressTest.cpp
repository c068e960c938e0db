//===- tests/StressTest.cpp - Parameterized property sweeps ---------------===//
//
// Property-based stress suites, parameterized over problem size:
//
//  * BigInt arithmetic against a __int128 oracle (small widths), against
//    ring identities (large widths), and division and gcd against a
//    bit-serial reference at every width up to 512 bits;
//  * the polyhedra library's double-description invariants across
//    dimensions (every generator satisfies every constraint, round-trips,
//    lattice monotonicity, projection idempotence, widening coverage), on
//    small coefficients and on 40- to 120-bit ones;
//  * Bourdoncle's WTO on random graphs: the computed widening points cut
//    every cycle (the property §4.4 needs), and the order covers every
//    vertex exactly once.
//
//===----------------------------------------------------------------------===//

#include "cfg/Wto.h"
#include "poly/Polyhedron.h"
#include "support/BigInt.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

using namespace pmaf;
using namespace pmaf::poly;

//===----------------------------------------------------------------------===//
// BigInt sweeps
//===----------------------------------------------------------------------===//

class BigIntPropertyTest : public ::testing::TestWithParam<unsigned> {};

namespace {

BigInt randomBigInt(Rng &R, unsigned Bits) {
  BigInt Value;
  for (unsigned Chunk = 0; Chunk < Bits; Chunk += 32)
    Value = Value.shiftLeft(32) +
            BigInt(static_cast<int64_t>(R.next() & 0xffffffffu));
  Value = Value.shiftRight(
      static_cast<unsigned>((32 - Bits % 32) % 32));
  return R.below(2) ? Value.negated() : Value;
}

/// A (sign, magnitude) pair: the oracle for values of up to 128 bits.
struct Wide128 {
  int Sign = 0;
  unsigned __int128 Mag = 0;

  bool operator==(const Wide128 &Other) const {
    return Sign == Other.Sign && Mag == Other.Mag;
  }
};

std::string toString(const Wide128 &W) {
  std::string Digits;
  unsigned __int128 Mag = W.Mag;
  do {
    Digits.insert(Digits.begin(), static_cast<char>('0' + Mag % 10));
    Mag /= 10;
  } while (Mag != 0);
  return W.Sign < 0 ? "-" + Digits : Digits;
}

/// \p X read through the decimal printer, which shares no arithmetic with
/// the operations under test; nullopt if it is wider than 128 bits.
std::optional<Wide128> toWide(const BigInt &X) {
  Wide128 W;
  W.Sign = X.sign();
  for (char C : X.toString()) {
    if (C == '-')
      continue;
    if (__builtin_mul_overflow(W.Mag, 10u, &W.Mag) ||
        __builtin_add_overflow(W.Mag, static_cast<unsigned>(C - '0'),
                               &W.Mag))
      return std::nullopt;
  }
  return W;
}

Wide128 wide(int Sign, unsigned __int128 Mag) {
  return Wide128{Mag == 0 ? 0 : Sign, Mag};
}

std::optional<Wide128> wideAdd(const Wide128 &A, const Wide128 &B) {
  if (A.Sign == 0 || B.Sign == 0)
    return A.Sign == 0 ? B : A;
  if (A.Sign != B.Sign)
    return A.Mag >= B.Mag ? wide(A.Sign, A.Mag - B.Mag)
                          : wide(B.Sign, B.Mag - A.Mag);
  unsigned __int128 Sum;
  if (__builtin_add_overflow(A.Mag, B.Mag, &Sum))
    return std::nullopt;
  return wide(A.Sign, Sum);
}

std::optional<Wide128> wideMul(const Wide128 &A, const Wide128 &B) {
  unsigned __int128 Product;
  if (__builtin_mul_overflow(A.Mag, B.Mag, &Product))
    return std::nullopt;
  return wide(A.Sign * B.Sign, Product);
}

unsigned __int128 wideGcd(unsigned __int128 U, unsigned __int128 V) {
  while (V != 0) {
    unsigned __int128 T = U % V;
    U = V;
    V = T;
  }
  return U;
}

/// Checks \p Got against the oracle's \p Want, when the exact result fits.
void expectWide(const BigInt &Got, const std::optional<Wide128> &Want,
                const char *Op, const BigInt &A, const BigInt &B) {
  if (!Want)
    return;
  std::optional<Wide128> Have = toWide(Got);
  EXPECT_TRUE(Have && *Have == *Want)
      << A.toString() << " " << Op << " " << B.toString() << " = "
      << Got.toString() << ", oracle " << toString(*Want);
}

} // namespace

TEST_P(BigIntPropertyTest, MatchesInt128OracleWhenSmall) {
  unsigned Bits = GetParam();
  if (Bits > 128)
    GTEST_SKIP() << "oracle covers widths up to 128 bits";
  Rng R(Bits * 7919);
  unsigned ProductsChecked = 0;
  for (int Round = 0; Round != 300; ++Round) {
    BigInt A = randomBigInt(R, Bits), B = randomBigInt(R, Bits);
    std::optional<Wide128> WideA = toWide(A), WideB = toWide(B);
    ASSERT_TRUE(WideA && WideB);
    Wide128 NegB = wide(-WideB->Sign, WideB->Mag);
    expectWide(A + B, wideAdd(*WideA, *WideB), "+", A, B);
    expectWide(A - B, wideAdd(*WideA, NegB), "-", A, B);
    const std::optional<Wide128> Product = wideMul(*WideA, *WideB);
    expectWide(A * B, Product, "*", A, B);
    expectWide(BigInt::gcd(A, B),
               wide(1, wideGcd(WideA->Mag, WideB->Mag)), "gcd", A, B);
    if (B.isZero())
      continue;
    BigInt Q, Rem;
    A.divmod(B, Q, Rem);
    const unsigned __int128 QMag = WideA->Mag / WideB->Mag,
                            RemMag = WideA->Mag % WideB->Mag;
    expectWide(Q, wide(WideA->Sign * WideB->Sign, QMag), "/", A, B);
    expectWide(Rem, wide(WideA->Sign, RemMag), "%", A, B);
    if (Product) {
      expectWide((A * B).divExact(B), WideA, "divExact", A * B, B);
      ++ProductsChecked;
    }
  }
  // Products of operands up to 64 bits always fit the oracle.
  if (Bits <= 64) {
    EXPECT_GT(ProductsChecked, 250u);
  }
}

TEST_P(BigIntPropertyTest, RingIdentitiesAtAnyWidth) {
  unsigned Bits = GetParam();
  Rng R(Bits * 104729);
  for (int Round = 0; Round != 60; ++Round) {
    BigInt A = randomBigInt(R, Bits);
    BigInt B = randomBigInt(R, Bits);
    BigInt C = randomBigInt(R, Bits / 2 + 1);
    EXPECT_EQ((A + B) - B, A);
    EXPECT_EQ(A * B, B * A);
    EXPECT_EQ(A * (B + C), A * B + A * C);
    if (!B.isZero()) {
      BigInt Q, Rem;
      A.divmod(B, Q, Rem);
      EXPECT_EQ(Q * B + Rem, A);
      EXPECT_LT(Rem.abs().compare(B.abs()), 0);
      EXPECT_EQ((A * B).divExact(B), A);
    }
    BigInt G = BigInt::gcd(A, B);
    if (!G.isZero()) {
      EXPECT_TRUE((A % G).isZero());
      EXPECT_TRUE((B % G).isZero());
    }
    // Shifts agree with multiplication by powers of two.
    EXPECT_EQ(A.shiftLeft(17), A * BigInt(1 << 17));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigIntPropertyTest,
                         ::testing::Values(8u, 16u, 31u, 48u, 62u, 80u,
                                           128u, 256u));

//===----------------------------------------------------------------------===//
// BigInt division and gcd against a bit-serial reference
//===----------------------------------------------------------------------===//

namespace {

/// Reference truncated division: shift-subtract long division, one quotient
/// bit per step, on public BigInt operations only.
void referenceDivmod(const BigInt &A, const BigInt &B, BigInt &Q,
                     BigInt &Rem) {
  BigInt AbsA = A.abs(), AbsB = B.abs();
  if (AbsA < AbsB) {
    Q = BigInt();
    Rem = A;
    return;
  }
  unsigned Shift = AbsA.bitLength() - AbsB.bitLength();
  BigInt Shifted = AbsB.shiftLeft(Shift);
  BigInt Quot, Left = AbsA;
  for (unsigned I = 0; I <= Shift; ++I) {
    Quot = Quot.shiftLeft(1);
    if (Left >= Shifted) {
      Left = Left - Shifted;
      Quot = Quot + BigInt(1);
    }
    Shifted = Shifted.shiftRight(1);
  }
  Q = A.sign() * B.sign() < 0 ? Quot.negated() : Quot;
  Rem = A.sign() < 0 ? Left.negated() : Left;
}

/// Reference gcd: the binary (Stein) algorithm.
BigInt referenceGcd(const BigInt &A, const BigInt &B) {
  BigInt X = A.abs(), Y = B.abs();
  if (X.isZero())
    return Y;
  if (Y.isZero())
    return X;
  unsigned Twos = 0;
  while (X.isEven() && Y.isEven()) {
    X = X.shiftRight(1);
    Y = Y.shiftRight(1);
    ++Twos;
  }
  while (X.isEven())
    X = X.shiftRight(1);
  while (!Y.isZero()) {
    while (Y.isEven())
      Y = Y.shiftRight(1);
    if (X > Y)
      std::swap(X, Y);
    Y = Y - X;
  }
  return X.shiftLeft(Twos);
}

/// Checks divmod, /, %, divExact and gcd on (A, B) against the references,
/// and that the gcd is maximal.
void expectMatchesReference(const BigInt &A, const BigInt &B) {
  auto Operands = [&] { return A.toString() + ", " + B.toString(); };
  BigInt G = BigInt::gcd(A, B);
  EXPECT_EQ(G, referenceGcd(A, B)) << "gcd(" << Operands() << ")";
  if (!G.isZero()) {
    EXPECT_EQ(BigInt::gcd(A.divExact(G), B.divExact(G)), BigInt(1))
        << "gcd(" << Operands() << ") is not maximal";
  }
  if (B.isZero())
    return;
  BigInt Q, Rem, RefQ, RefRem;
  A.divmod(B, Q, Rem);
  referenceDivmod(A, B, RefQ, RefRem);
  EXPECT_EQ(Q, RefQ) << "divmod(" << Operands() << ")";
  EXPECT_EQ(Rem, RefRem) << "divmod(" << Operands() << ")";
  EXPECT_EQ(A / B, RefQ) << Operands();
  EXPECT_EQ(A % B, RefRem) << Operands();
  EXPECT_EQ((A - RefRem).divExact(B), RefQ) << Operands();
}

/// Builds a nonnegative value from little-endian 32-bit limbs.
BigInt fromLimbs(const std::vector<uint32_t> &Limbs) {
  BigInt Value;
  for (size_t I = Limbs.size(); I-- > 0;)
    Value = Value.shiftLeft(32) + BigInt(static_cast<int64_t>(Limbs[I]));
  return Value;
}

} // namespace

class BigIntReferenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BigIntReferenceTest, DivisionAndGcdMatchBitSerialReference) {
  const unsigned DividendBits = GetParam();
  Rng R(DividendBits * 6151);
  for (unsigned DivisorBits :
       {8u, 31u, 32u, 33u, 63u, 64u, 65u, 96u, 128u, 129u, 256u, 512u})
    for (int Round = 0; Round != 3; ++Round) {
      BigInt A = randomBigInt(R, DividendBits).abs();
      BigInt B = randomBigInt(R, DivisorBits).abs();
      for (int Signs = 0; Signs != 4; ++Signs)
        expectMatchesReference(Signs & 1 ? A.negated() : A,
                               Signs & 2 ? B.negated() : B);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigIntReferenceTest,
                         ::testing::Values(8u, 31u, 32u, 33u, 63u, 64u, 65u,
                                           96u, 128u, 129u, 256u, 512u));

TEST(BigIntReferenceEdgeTest, Int64MinAndWordBoundaries) {
  const BigInt Min(INT64_MIN), Max(INT64_MAX);
  const BigInt TwoTo64 = BigInt(1).shiftLeft(64);
  std::vector<BigInt> Values = {BigInt(0),     BigInt(1),     BigInt(-1),
                                BigInt(2),     BigInt(3),     BigInt(-7),
                                Min,           Min + BigInt(1), Max,
                                Min.negated(), TwoTo64 - BigInt(1),
                                TwoTo64,       TwoTo64.negated(),
                                Min * BigInt(3), Min * Min};
  for (const BigInt &A : Values)
    for (const BigInt &B : Values)
      expectMatchesReference(A, B);
  EXPECT_EQ(Min / BigInt(-1), Min.negated());
  EXPECT_EQ(BigInt::gcd(Min, Min), Min.negated());
  EXPECT_EQ(BigInt::gcd(Min, BigInt(0)), Min.negated());
}

namespace {

/// Schoolbook arithmetic on decimal digit strings (most significant digit
/// first, no leading zeros): a reference for + - * that shares no code
/// with BigInt's arithmetic. BigInt values enter and leave through
/// toString(), whose limb-wise printer is not under test here.
struct Decimal {
  bool Negative = false;
  std::string Digits = "0";
};

Decimal toDecimal(const BigInt &X) {
  std::string Text = X.toString();
  Decimal D;
  D.Negative = Text[0] == '-';
  D.Digits = D.Negative ? Text.substr(1) : Text;
  return D;
}

std::string toString(const Decimal &D) {
  return D.Negative && D.Digits != "0" ? "-" + D.Digits : D.Digits;
}

int compareDigits(const std::string &A, const std::string &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  return A.compare(B) < 0 ? -1 : (A == B ? 0 : 1);
}

std::string trimDigits(std::string Digits) {
  size_t First = Digits.find_first_not_of('0');
  return First == std::string::npos ? "0" : Digits.substr(First);
}

std::string addDigits(const std::string &A, const std::string &B) {
  std::string Sum;
  int Carry = 0;
  for (size_t I = 0; I < A.size() || I < B.size() || Carry; ++I) {
    int Digit = Carry;
    if (I < A.size())
      Digit += A[A.size() - 1 - I] - '0';
    if (I < B.size())
      Digit += B[B.size() - 1 - I] - '0';
    Sum.insert(Sum.begin(), static_cast<char>('0' + Digit % 10));
    Carry = Digit / 10;
  }
  return trimDigits(Sum);
}

/// Requires A >= B.
std::string subDigits(const std::string &A, const std::string &B) {
  std::string Diff = A;
  int Borrow = 0;
  for (size_t I = 0; I != A.size(); ++I) {
    int Digit = A[A.size() - 1 - I] - '0' - Borrow;
    if (I < B.size())
      Digit -= B[B.size() - 1 - I] - '0';
    Borrow = Digit < 0;
    Diff[A.size() - 1 - I] = static_cast<char>('0' + Digit + 10 * Borrow);
  }
  return trimDigits(Diff);
}

std::string mulDigits(const std::string &A, const std::string &B) {
  std::vector<int> Acc(A.size() + B.size(), 0);
  for (size_t I = 0; I != A.size(); ++I)
    for (size_t J = 0; J != B.size(); ++J)
      Acc[I + J + 1] += (A[I] - '0') * (B[J] - '0');
  for (size_t K = Acc.size(); K-- > 1;) {
    Acc[K - 1] += Acc[K] / 10;
    Acc[K] %= 10;
  }
  std::string Product;
  for (int Digit : Acc)
    Product.push_back(static_cast<char>('0' + Digit));
  return trimDigits(Product);
}

Decimal decimalAdd(const Decimal &A, const Decimal &B) {
  if (A.Negative == B.Negative)
    return {A.Negative, addDigits(A.Digits, B.Digits)};
  if (compareDigits(A.Digits, B.Digits) >= 0)
    return {A.Negative, subDigits(A.Digits, B.Digits)};
  return {B.Negative, subDigits(B.Digits, A.Digits)};
}

Decimal decimalMul(const Decimal &A, const Decimal &B) {
  return {A.Negative != B.Negative, mulDigits(A.Digits, B.Digits)};
}

} // namespace

TEST(BigIntReferenceEdgeTest, Int128Boundaries) {
  // The magnitudes around the int64 and 128-bit word limits, where the
  // fast path, the 128-bit slow path and the limb-wise path meet.
  const char *const Magnitudes[] = {
      "9223372036854775807",                      // 2^63 - 1
      "9223372036854775808",                      // 2^63
      "18446744073709551615",                     // 2^64 - 1
      "18446744073709551617",                     // 2^64 + 1
      "170141183460469231731687303715884105727",  // 2^127 - 1
      "170141183460469231731687303715884105729",  // 2^127 + 1
      "340282366920938463463374607431768211455",  // 2^128 - 1
      "340282366920938463463374607431768211457",  // 2^128 + 1
      "340282366920938463481821351505477763072",  // 2^128 + 2^64
  };
  std::vector<BigInt> Values = {BigInt(INT64_MIN), BigInt(INT64_MIN + 1),
                                BigInt(-1), BigInt(0), BigInt(1)};
  for (const char *Text : Magnitudes) {
    BigInt Value = BigInt::fromString(Text);
    ASSERT_EQ(Value.toString(), Text);
    Values.push_back(Value);
    Values.push_back(Value.negated());
  }
  for (const BigInt &A : Values)
    for (const BigInt &B : Values) {
      const Decimal DecA = toDecimal(A), DecB = toDecimal(B);
      Decimal NegB = DecB;
      NegB.Negative = !NegB.Negative;
      auto Operands = [&] { return A.toString() + ", " + B.toString(); };
      EXPECT_EQ((A + B).toString(), toString(decimalAdd(DecA, DecB)))
          << Operands();
      EXPECT_EQ((A - B).toString(), toString(decimalAdd(DecA, NegB)))
          << Operands();
      EXPECT_EQ((A * B).toString(), toString(decimalMul(DecA, DecB)))
          << Operands();
      expectMatchesReference(A, B);
      if (!B.isZero()) {
        EXPECT_EQ((A * B).divExact(B), A) << Operands();
      }
    }
}

TEST(BigIntReferenceEdgeTest, DivmodOutputsMayAliasInputs) {
  for (const BigInt &Dividend :
       {BigInt(17), BigInt(-17), BigInt(17).shiftLeft(100)}) {
    BigInt ExpectQ, ExpectRem;
    referenceDivmod(Dividend, BigInt(5), ExpectQ, ExpectRem);
    BigInt X = Dividend, Rem;
    X.divmod(BigInt(5), X, Rem);
    EXPECT_EQ(X, ExpectQ) << Dividend.toString();
    EXPECT_EQ(Rem, ExpectRem) << Dividend.toString();
  }
}

TEST(BigIntReferenceEdgeTest, AlgorithmDCorrectionAndAddBack) {
  // Operand patterns that drive the quotient-digit estimate to its limits:
  // a divisor top limb of exactly 0x80000000 (no normalization shift) and
  // dividend limbs of 0xffffffff maximize the estimate's error, forcing the
  // q-hat correction loop and the rare add-back step.
  const std::vector<std::vector<uint32_t>> Pairs[] = {
      {{0x00000000u, 0x00000000u, 0x80000000u, 0x7fffffffu},
       {0x00000001u, 0x00000000u, 0x80000000u}},
      {{0x00000003u, 0x00000000u, 0x80000000u},
       {0x00000001u, 0x00000000u, 0x20000000u}},
      {{0x00000003u, 0x00000000u, 0x00008000u},
       {0x00000001u, 0x00000000u, 0x00002000u}},
      {{0x00000000u, 0xfffffffeu, 0x00000000u, 0x80000000u},
       {0x0000ffffu, 0x00000000u, 0x80000000u}},
      {{0x00000000u, 0xfffffffeu, 0x00000000u, 0x80000000u},
       {0xffffffffu, 0x00000000u, 0x80000000u}},
      {{0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
       {0xffffffffu, 0x80000000u}},
  };
  for (const auto &Pair : Pairs)
    expectMatchesReference(fromLimbs(Pair[0]), fromLimbs(Pair[1]));

  const uint32_t DividendLimbs[] = {0u, 1u, 0x80000000u, 0xffffffffu};
  const uint32_t DivisorLow[] = {0u, 1u, 0x7fffffffu, 0xffffffffu};
  std::vector<BigInt> Divisors;
  for (uint32_t Low : DivisorLow)
    for (uint32_t Top : {0x80000000u, 0xffffffffu})
      Divisors.push_back(fromLimbs({Low, Top}));
  for (uint32_t Low : {0u, 0xffffffffu})
    for (uint32_t Mid : {0u, 0xffffffffu})
      Divisors.push_back(fromLimbs({Low, Mid, 0x80000000u}));
  for (unsigned Len : {3u, 4u}) {
    unsigned Count = 1u << (2 * Len);
    for (unsigned Code = 0; Code != Count; ++Code) {
      std::vector<uint32_t> Limbs(Len);
      for (unsigned I = 0; I != Len; ++I)
        Limbs[I] = DividendLimbs[(Code >> (2 * I)) & 3];
      BigInt A = fromLimbs(Limbs);
      for (const BigInt &B : Divisors)
        expectMatchesReference(A, B);
    }
  }
}

//===----------------------------------------------------------------------===//
// Polyhedra sweeps
//===----------------------------------------------------------------------===//

class PolyhedronPropertyTest : public ::testing::TestWithParam<unsigned> {};

namespace {

/// A random factor of 40 to 120 bits.
BigInt wideFactor(Rng &R) {
  return randomBigInt(R, 40 + static_cast<unsigned>(R.below(81))).abs() +
         BigInt(1).shiftLeft(39);
}

/// A bounded random polyhedron. With \p Wide, every random halfspace has
/// its coefficients c scaled to F * c + d, for one 40- to 120-bit factor F
/// per row and small offsets d: primitive rows as wide as the ones
/// roundedCoefficients(40) leaves in expectation polyhedra.
Polyhedron randomPolyhedron(Rng &R, unsigned Dim, unsigned NumCons,
                            bool Wide = false) {
  std::vector<Constraint> Cons;
  // Keep a bounding box so most instances are nonempty polytopes, then
  // add random halfspaces.
  for (unsigned I = 0; I != Dim; ++I) {
    Cons.push_back(Constraint::ge(LinearExpr::variable(Dim, I),
                                  LinearExpr::constant(Dim, Rational(-4))));
    Cons.push_back(Constraint::le(LinearExpr::variable(Dim, I),
                                  LinearExpr::constant(Dim, Rational(4))));
  }
  for (unsigned I = 0; I != NumCons; ++I) {
    LinearExpr E(Dim);
    E.constantTerm() = Rational(static_cast<int64_t>(R.below(9)) - 4);
    for (unsigned V = 0; V != Dim; ++V)
      E.coeff(V) = Rational(static_cast<int64_t>(R.below(5)) - 2);
    if (Wide) {
      BigInt Factor = wideFactor(R);
      auto Widen = [&](Rational &C) {
        BigInt Offset(static_cast<int64_t>(R.below(5)) - 2);
        C = Rational(Factor * C.numerator() + Offset, BigInt(1));
      };
      Widen(E.constantTerm());
      for (unsigned V = 0; V != Dim; ++V)
        Widen(E.coeff(V));
    }
    Cons.push_back(Constraint{std::move(E), R.below(5) == 0
                                                ? Constraint::Kind::Eq
                                                : Constraint::Kind::Ge});
  }
  return Polyhedron::fromConstraints(Dim, Cons);
}

/// The core double-description consistency: every stored generator
/// satisfies every stored constraint.
void expectDdConsistent(const Polyhedron &P) {
  for (const ConeRow &Con : P.constraints())
    for (const ConeRow &Gen : P.generators()) {
      BigInt Dot = dotProduct(Gen, Con);
      if (Con.IsLinearity || Gen.IsLinearity) {
        EXPECT_TRUE(Dot.isZero()) << P.toString();
      } else {
        EXPECT_GE(Dot.sign(), 0) << P.toString();
      }
    }
}

} // namespace

TEST_P(PolyhedronPropertyTest, DoubleDescriptionConsistency) {
  unsigned Dim = GetParam();
  Rng R(Dim * 31337);
  for (int Round = 0; Round != 25; ++Round) {
    Polyhedron P = randomPolyhedron(R, Dim, Dim + 2);
    if (P.isEmpty())
      continue;
    expectDdConsistent(P);
    // Round-trip: rebuilding from the minimized constraints yields the
    // same polyhedron.
    Polyhedron Q = Polyhedron::fromConstraints(Dim, P.constraintList());
    EXPECT_TRUE(P.equals(Q));
  }
}

TEST_P(PolyhedronPropertyTest, LatticeAndProjectionSweep) {
  unsigned Dim = GetParam();
  Rng R(Dim * 65537);
  for (int Round = 0; Round != 15; ++Round) {
    Polyhedron A = randomPolyhedron(R, Dim, Dim + 1);
    Polyhedron B = randomPolyhedron(R, Dim, Dim + 1);
    Polyhedron M = A.meet(B), J = A.join(B);
    EXPECT_TRUE(A.contains(M));
    EXPECT_TRUE(B.contains(M));
    EXPECT_TRUE(J.contains(A));
    EXPECT_TRUE(J.contains(B));
    expectDdConsistent(M);
    expectDdConsistent(J);
    if (!A.isEmpty()) {
      Polyhedron Proj = A.project({Dim - 1});
      EXPECT_TRUE(Proj.contains(A));
      EXPECT_TRUE(Proj.project({Dim - 1}).equals(Proj));
    }
    if (!A.isEmpty() && !B.isEmpty()) {
      Polyhedron W = A.widen(J);
      EXPECT_TRUE(W.contains(A));
      EXPECT_TRUE(W.contains(J));
    }
  }
}

TEST_P(PolyhedronPropertyTest, WideCoefficientDoubleDescription) {
  unsigned Dim = GetParam();
  Rng R(Dim * 7001);
  unsigned WideRows = 0;
  for (int Round = 0; Round != 12; ++Round) {
    Polyhedron P = randomPolyhedron(R, Dim, Dim + 2, /*Wide=*/true);
    if (P.isEmpty())
      continue;
    for (const ConeRow &Con : P.constraints())
      for (const BigInt &C : Con.Coeffs)
        if (C.bitLength() > 40) {
          ++WideRows;
          break;
        }
    expectDdConsistent(P);
    Polyhedron Q = Polyhedron::fromConstraints(Dim, P.constraintList());
    EXPECT_TRUE(P.equals(Q));
  }
  // The sweep must reach the multi-limb rows it exists for.
  EXPECT_GT(WideRows, 0u);
}

TEST_P(PolyhedronPropertyTest, WideCoefficientLatticeSweep) {
  unsigned Dim = GetParam();
  Rng R(Dim * 9973);
  for (int Round = 0; Round != 5; ++Round) {
    Polyhedron A = randomPolyhedron(R, Dim, Dim + 1, /*Wide=*/true);
    Polyhedron B = randomPolyhedron(R, Dim, Dim + 1, /*Wide=*/true);
    Polyhedron M = A.meet(B), J = A.join(B);
    EXPECT_TRUE(A.contains(M));
    EXPECT_TRUE(B.contains(M));
    EXPECT_TRUE(J.contains(A));
    EXPECT_TRUE(J.contains(B));
    expectDdConsistent(M);
    expectDdConsistent(J);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, PolyhedronPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

//===----------------------------------------------------------------------===//
// WTO sweeps
//===----------------------------------------------------------------------===//

class WtoPropertyTest : public ::testing::TestWithParam<unsigned> {};

namespace {

/// Collects the vertices of a WTO in order.
void flatten(const std::vector<cfg::WtoElement> &Elements,
             std::vector<unsigned> &Out) {
  for (const cfg::WtoElement &E : Elements) {
    Out.push_back(E.Node);
    flatten(E.Body, Out);
  }
}

/// True if the graph restricted to vertices with Allowed[v] has a cycle.
bool hasCycle(const std::vector<std::vector<unsigned>> &Succs,
              const std::vector<bool> &Allowed) {
  std::vector<int> State(Succs.size(), 0);
  bool Found = false;
  auto Dfs = [&](const auto &Self, unsigned V) -> void {
    State[V] = 1;
    for (unsigned W : Succs[V]) {
      if (!Allowed[W])
        continue;
      if (State[W] == 1)
        Found = true;
      else if (State[W] == 0)
        Self(Self, W);
    }
    State[V] = 2;
  };
  for (unsigned V = 0; V != Succs.size(); ++V)
    if (Allowed[V] && State[V] == 0)
      Dfs(Dfs, V);
  return Found;
}

} // namespace

TEST_P(WtoPropertyTest, WideningPointsCutEveryCycle) {
  unsigned N = GetParam();
  Rng R(N * 2654435761u);
  for (int Round = 0; Round != 30; ++Round) {
    std::vector<std::vector<unsigned>> Succs(N);
    for (unsigned V = 0; V != N; ++V) {
      unsigned Degree = static_cast<unsigned>(R.below(3));
      for (unsigned E = 0; E != Degree; ++E)
        Succs[V].push_back(static_cast<unsigned>(R.below(N)));
    }
    cfg::Wto W = cfg::Wto::compute(Succs, {0});

    // Every vertex appears exactly once.
    std::vector<unsigned> Flat;
    flatten(W.Elements, Flat);
    ASSERT_EQ(Flat.size(), N);
    std::vector<bool> Seen(N, false);
    for (unsigned V : Flat) {
      EXPECT_FALSE(Seen[V]) << "duplicated vertex in WTO";
      Seen[V] = true;
    }

    // Removing the widening points leaves an acyclic graph: this is the
    // property that makes chaotic iteration with widening terminate.
    std::vector<bool> Allowed(N);
    for (unsigned V = 0; V != N; ++V)
      Allowed[V] = !W.WideningPoint[V];
    EXPECT_FALSE(hasCycle(Succs, Allowed));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WtoPropertyTest,
                         ::testing::Values(3u, 8u, 20u, 60u));
