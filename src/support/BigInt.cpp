//===- support/BigInt.cpp - Arbitrary-precision signed integers ----------===//

#include "support/BigInt.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <utility>

using namespace pmaf;

//===----------------------------------------------------------------------===//
// Representation plumbing
//===----------------------------------------------------------------------===//

static uint64_t absOfInt64(int64_t V) {
  return V < 0 ? ~static_cast<uint64_t>(V) + 1 : static_cast<uint64_t>(V);
}

std::vector<uint32_t> BigInt::smallMag() const {
  assert(IsSmall && "smallMag on a large value");
  uint64_t Abs = absOfInt64(Small);
  std::vector<uint32_t> Result;
  if (Abs == 0)
    return Result;
  Result.push_back(static_cast<uint32_t>(Abs & 0xffffffffu));
  if (Abs >> 32)
    Result.push_back(static_cast<uint32_t>(Abs >> 32));
  return Result;
}

bool BigInt::magnitude128(unsigned __int128 &Out) const {
  if (IsSmall) {
    Out = absOfInt64(Small);
    return true;
  }
  if (Mag.size() > 4)
    return false;
  Out = 0;
  for (size_t I = Mag.size(); I-- > 0;)
    Out = (Out << 32) | Mag[I];
  return true;
}

BigInt BigInt::fromMagnitude128(int Sign, unsigned __int128 Mag) {
  if ((Mag >> 63) == 0) {
    int64_t Value = static_cast<int64_t>(Mag);
    return BigInt(Sign < 0 ? -Value : Value);
  }
  if (Sign < 0 && Mag == static_cast<unsigned __int128>(1) << 63)
    return BigInt(INT64_MIN);
  BigInt Result;
  Result.IsSmall = false;
  Result.LargeSign = Sign;
  const uint64_t High = static_cast<uint64_t>(Mag >> 64);
  const unsigned Bits =
      High ? 128 - static_cast<unsigned>(__builtin_clzll(High)) : 64;
  Result.Mag.resize((Bits + 31) / 32);
  for (uint32_t &Limb : Result.Mag) {
    Limb = static_cast<uint32_t>(Mag);
    Mag >>= 32;
  }
  return Result;
}

BigInt BigInt::makeLarge(int Sign, std::vector<uint32_t> Mag) {
  trim(Mag);
  BigInt Result;
  if (Mag.empty())
    return Result;
  // Demote to the small representation when the value fits in int64_t.
  if (Mag.size() <= 2) {
    uint64_t Abs = Mag[0];
    if (Mag.size() == 2)
      Abs |= static_cast<uint64_t>(Mag[1]) << 32;
    if (Sign > 0 ? Abs < (1ull << 63) : Abs <= (1ull << 63)) {
      Result.Small = Sign > 0 ? static_cast<int64_t>(Abs)
                              : static_cast<int64_t>(~Abs + 1);
      return Result;
    }
  }
  Result.IsSmall = false;
  Result.LargeSign = Sign;
  Result.Mag = std::move(Mag);
  return Result;
}

//===----------------------------------------------------------------------===//
// Magnitude helpers
//===----------------------------------------------------------------------===//

void BigInt::trim(std::vector<uint32_t> &Mag) {
  while (!Mag.empty() && Mag.back() == 0)
    Mag.pop_back();
}

int BigInt::compareMag(const std::vector<uint32_t> &A,
                       const std::vector<uint32_t> &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

std::vector<uint32_t> BigInt::addMag(const std::vector<uint32_t> &A,
                                     const std::vector<uint32_t> &B) {
  const std::vector<uint32_t> &Long = A.size() >= B.size() ? A : B;
  const std::vector<uint32_t> &Short = A.size() >= B.size() ? B : A;
  std::vector<uint32_t> Result;
  Result.reserve(Long.size() + 1);
  uint64_t Carry = 0;
  for (size_t I = 0; I != Long.size(); ++I) {
    uint64_t Sum = Carry + Long[I] + (I < Short.size() ? Short[I] : 0);
    Result.push_back(static_cast<uint32_t>(Sum & 0xffffffffu));
    Carry = Sum >> 32;
  }
  if (Carry)
    Result.push_back(static_cast<uint32_t>(Carry));
  return Result;
}

std::vector<uint32_t> BigInt::subMag(const std::vector<uint32_t> &A,
                                     const std::vector<uint32_t> &B) {
  assert(compareMag(A, B) >= 0 && "subMag requires |A| >= |B|");
  std::vector<uint32_t> Result;
  Result.reserve(A.size());
  int64_t Borrow = 0;
  for (size_t I = 0; I != A.size(); ++I) {
    int64_t Diff = static_cast<int64_t>(A[I]) - Borrow -
                   (I < B.size() ? static_cast<int64_t>(B[I]) : 0);
    if (Diff < 0) {
      Diff += int64_t(1) << 32;
      Borrow = 1;
    } else {
      Borrow = 0;
    }
    Result.push_back(static_cast<uint32_t>(Diff));
  }
  trim(Result);
  return Result;
}

std::vector<uint32_t> BigInt::mulMag(const std::vector<uint32_t> &A,
                                     const std::vector<uint32_t> &B) {
  if (A.empty() || B.empty())
    return {};
  std::vector<uint32_t> Result(A.size() + B.size(), 0);
  for (size_t I = 0; I != A.size(); ++I) {
    uint64_t Carry = 0;
    for (size_t J = 0; J != B.size(); ++J) {
      uint64_t Cur =
          Result[I + J] + static_cast<uint64_t>(A[I]) * B[J] + Carry;
      Result[I + J] = static_cast<uint32_t>(Cur & 0xffffffffu);
      Carry = Cur >> 32;
    }
    size_t K = I + B.size();
    while (Carry) {
      uint64_t Cur = Result[K] + Carry;
      Result[K] = static_cast<uint32_t>(Cur & 0xffffffffu);
      Carry = Cur >> 32;
      ++K;
    }
  }
  trim(Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Conversions
//===----------------------------------------------------------------------===//

BigInt BigInt::fromString(const std::string &Text) {
  assert(!Text.empty() && "empty big-integer literal");
  size_t I = 0;
  bool Negative = false;
  if (Text[0] == '-' || Text[0] == '+') {
    Negative = Text[0] == '-';
    I = 1;
  }
  assert(I < Text.size() && "sign-only big-integer literal");
  BigInt Result;
  for (; I != Text.size(); ++I) {
    assert(Text[I] >= '0' && Text[I] <= '9' && "bad digit in literal");
    Result = Result * BigInt(10) + BigInt(Text[I] - '0');
  }
  return Negative ? Result.negated() : Result;
}

int64_t BigInt::toInt64() const {
  assert(IsSmall && "value does not fit in int64_t");
  return Small;
}

double BigInt::toDouble() const {
  if (IsSmall)
    return static_cast<double>(Small);
  double Result = 0.0;
  for (size_t I = Mag.size(); I-- > 0;)
    Result = Result * 4294967296.0 + static_cast<double>(Mag[I]);
  return LargeSign < 0 ? -Result : Result;
}

std::string BigInt::toString() const {
  if (IsSmall)
    return std::to_string(Small);
  // Repeatedly divide the magnitude by 1e9 and collect 9-digit chunks.
  std::vector<uint32_t> Work = Mag;
  std::string Digits;
  while (!Work.empty()) {
    uint64_t Rem = 0;
    for (size_t I = Work.size(); I-- > 0;) {
      uint64_t Cur = (Rem << 32) | Work[I];
      Work[I] = static_cast<uint32_t>(Cur / 1000000000u);
      Rem = Cur % 1000000000u;
    }
    trim(Work);
    for (int K = 0; K != 9; ++K) {
      Digits.push_back(static_cast<char>('0' + Rem % 10));
      Rem /= 10;
    }
  }
  while (Digits.size() > 1 && Digits.back() == '0')
    Digits.pop_back();
  if (LargeSign < 0)
    Digits.push_back('-');
  return std::string(Digits.rbegin(), Digits.rend());
}

//===----------------------------------------------------------------------===//
// Sign-level operations
//===----------------------------------------------------------------------===//

BigInt BigInt::abs() const {
  if (IsSmall) {
    if (Small != INT64_MIN)
      return BigInt(Small < 0 ? -Small : Small);
    return makeLarge(1, smallMag());
  }
  BigInt Result = *this;
  Result.LargeSign = 1;
  return Result;
}

BigInt BigInt::negated() const {
  if (IsSmall) {
    if (Small != INT64_MIN)
      return BigInt(-Small);
    return makeLarge(1, smallMag());
  }
  // +2^63 is large but its negation is INT64_MIN; makeLarge demotes it.
  return makeLarge(-LargeSign, Mag);
}

int BigInt::compare(const BigInt &Other) const {
  if (IsSmall && Other.IsSmall)
    return Small < Other.Small ? -1 : (Small > Other.Small ? 1 : 0);
  int SignA = sign(), SignB = Other.sign();
  if (SignA != SignB)
    return SignA < SignB ? -1 : 1;
  // Same sign, at least one large. A large value never fits in int64, so
  // a small operand always has the smaller magnitude.
  if (IsSmall)
    return SignA > 0 ? -1 : 1;
  if (Other.IsSmall)
    return SignA > 0 ? 1 : -1;
  int MagCmp = compareMag(Mag, Other.Mag);
  return SignA > 0 ? MagCmp : -MagCmp;
}

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

BigInt BigInt::addSlow(const BigInt &A, const BigInt &B, bool NegateB) {
  int SignA = A.sign(), SignB = NegateB ? -B.sign() : B.sign();
  if (SignA == 0)
    return NegateB ? B.negated() : B;
  if (SignB == 0)
    return A;
  unsigned __int128 WideA, WideB;
  if (A.magnitude128(WideA) && B.magnitude128(WideB)) {
    if (SignA != SignB)
      return WideA >= WideB ? fromMagnitude128(SignA, WideA - WideB)
                            : fromMagnitude128(SignB, WideB - WideA);
    unsigned __int128 Sum;
    if (!__builtin_add_overflow(WideA, WideB, &Sum))
      return fromMagnitude128(SignA, Sum);
  }
  std::vector<uint32_t> ScratchA, ScratchB;
  const std::vector<uint32_t> &MagA = A.magnitude(ScratchA),
                              &MagB = B.magnitude(ScratchB);
  if (SignA == SignB)
    return makeLarge(SignA, addMag(MagA, MagB));
  int MagCmp = compareMag(MagA, MagB);
  if (MagCmp == 0)
    return BigInt();
  if (MagCmp > 0)
    return makeLarge(SignA, subMag(MagA, MagB));
  return makeLarge(SignB, subMag(MagB, MagA));
}

BigInt BigInt::operator+(const BigInt &Other) const {
  if (IsSmall && Other.IsSmall) {
    int64_t Sum;
    if (!__builtin_add_overflow(Small, Other.Small, &Sum))
      return BigInt(Sum);
  }
  return addSlow(*this, Other, /*NegateB=*/false);
}

BigInt BigInt::operator-(const BigInt &Other) const {
  if (IsSmall && Other.IsSmall) {
    int64_t Diff;
    if (!__builtin_sub_overflow(Small, Other.Small, &Diff))
      return BigInt(Diff);
  }
  return addSlow(*this, Other, /*NegateB=*/true);
}

BigInt BigInt::mulSlow(const BigInt &A, const BigInt &B) {
  int Sign = A.sign() * B.sign();
  if (Sign == 0)
    return BigInt();
  unsigned __int128 WideA, WideB;
  if (A.magnitude128(WideA) && B.magnitude128(WideB) && (WideA >> 64) == 0 &&
      (WideB >> 64) == 0)
    return fromMagnitude128(Sign, WideA * WideB);
  std::vector<uint32_t> ScratchA, ScratchB;
  return makeLarge(Sign,
                   mulMag(A.magnitude(ScratchA), B.magnitude(ScratchB)));
}

BigInt BigInt::operator*(const BigInt &Other) const {
  if (IsSmall && Other.IsSmall) {
    int64_t Product;
    if (!__builtin_mul_overflow(Small, Other.Small, &Product))
      return BigInt(Product);
  }
  return mulSlow(*this, Other);
}

unsigned BigInt::bitLength() const {
  if (IsSmall) {
    uint64_t Abs = absOfInt64(Small);
    return Abs == 0 ? 0 : 64 - static_cast<unsigned>(__builtin_clzll(Abs));
  }
  unsigned High = 32;
  uint32_t Top = Mag.back();
  while (High > 0 && !(Top & (1u << (High - 1))))
    --High;
  return static_cast<unsigned>((Mag.size() - 1) * 32) + High;
}

BigInt BigInt::shiftLeft(unsigned Bits) const {
  if (isZero() || Bits == 0)
    return *this;
  if (IsSmall && Bits < 62 && bitLength() + Bits < 63)
    return BigInt(Small << Bits);
  std::vector<uint32_t> Scratch;
  const std::vector<uint32_t> &Source = magnitude(Scratch);
  unsigned LimbShift = Bits / 32, BitShift = Bits % 32;
  std::vector<uint32_t> Result(LimbShift, 0);
  uint32_t Carry = 0;
  for (uint32_t Limb : Source) {
    if (BitShift == 0) {
      Result.push_back(Limb);
    } else {
      Result.push_back((Limb << BitShift) | Carry);
      Carry = Limb >> (32 - BitShift);
    }
  }
  if (Carry)
    Result.push_back(Carry);
  return makeLarge(sign(), std::move(Result));
}

BigInt BigInt::shiftRight(unsigned Bits) const {
  if (isZero() || Bits == 0)
    return *this;
  if (IsSmall) {
    if (Bits >= 64)
      return BigInt();
    uint64_t Abs = absOfInt64(Small) >> Bits;
    return Small < 0 ? BigInt(-static_cast<int64_t>(Abs))
                     : BigInt(static_cast<int64_t>(Abs));
  }
  std::vector<uint32_t> Source = Mag;
  unsigned LimbShift = Bits / 32, BitShift = Bits % 32;
  if (LimbShift >= Source.size())
    return BigInt();
  std::vector<uint32_t> Result;
  for (size_t I = LimbShift; I != Source.size(); ++I) {
    uint32_t Limb = Source[I] >> BitShift;
    if (BitShift && I + 1 != Source.size())
      Limb |= Source[I + 1] << (32 - BitShift);
    Result.push_back(Limb);
  }
  return makeLarge(LargeSign, std::move(Result));
}

void BigInt::divmodMag(const std::vector<uint32_t> &U,
                       const std::vector<uint32_t> &V,
                       std::vector<uint32_t> &Q, std::vector<uint32_t> &R) {
  assert(!V.empty() && V.back() != 0 && "divisor magnitude not trimmed");
  if (compareMag(U, V) < 0) {
    Q.clear();
    R = U;
    return;
  }
  const size_t N = V.size(), M = U.size() - N;
  if (N == 1) {
    // One-limb divisor: a single pass of short division.
    const uint64_t D = V[0];
    uint64_t Rem = 0;
    Q.assign(U.size(), 0);
    for (size_t I = U.size(); I-- > 0;) {
      uint64_t Cur = (Rem << 32) | U[I];
      Q[I] = static_cast<uint32_t>(Cur / D);
      Rem = Cur % D;
    }
    trim(Q);
    R.clear();
    if (Rem)
      R.push_back(static_cast<uint32_t>(Rem));
    return;
  }
  // Knuth, TAOCP Vol. 2, 4.3.1, Algorithm D. D1: shift both operands left
  // until the divisor's top limb has its high bit set, so each quotient-limb
  // estimate below is at most two too large.
  const unsigned S = static_cast<unsigned>(__builtin_clz(V.back()));
  auto ShiftedLimb = [S](const std::vector<uint32_t> &X, size_t I) {
    uint64_t Hi = I < X.size() ? static_cast<uint64_t>(X[I]) << S : 0;
    uint64_t Lo = I > 0 ? static_cast<uint64_t>(X[I - 1]) >> (32 - S) : 0;
    return static_cast<uint32_t>(Hi | Lo);
  };
  std::vector<uint32_t> Vn(N), Un(U.size() + 1);
  for (size_t I = 0; I != N; ++I)
    Vn[I] = ShiftedLimb(V, I);
  for (size_t I = 0; I != Un.size(); ++I)
    Un[I] = ShiftedLimb(U, I);
  const uint64_t Base = 1ull << 32;
  const uint64_t VTop = Vn[N - 1], VNext = Vn[N - 2];
  Q.assign(M + 1, 0);
  for (size_t J = M + 1; J-- > 0;) {
    // D3: estimate the quotient limb from the top two remainder limbs and
    // correct it with the divisor's second limb.
    uint64_t Num = (static_cast<uint64_t>(Un[J + N]) << 32) | Un[J + N - 1];
    uint64_t QHat = Num / VTop, RHat = Num % VTop;
    while (QHat >= Base || QHat * VNext > ((RHat << 32) | Un[J + N - 2])) {
      --QHat;
      RHat += VTop;
      if (RHat >= Base)
        break;
    }
    // D4: multiply and subtract QHat * Vn from the current window.
    uint64_t Carry = 0;
    int64_t Borrow = 0;
    for (size_t I = 0; I != N; ++I) {
      uint64_t Product = QHat * Vn[I] + Carry;
      Carry = Product >> 32;
      int64_t Diff = static_cast<int64_t>(Un[I + J]) - Borrow -
                     static_cast<int64_t>(Product & 0xffffffffu);
      Un[I + J] = static_cast<uint32_t>(Diff);
      Borrow = Diff < 0 ? 1 : 0;
    }
    int64_t Top = static_cast<int64_t>(Un[J + N]) - Borrow -
                  static_cast<int64_t>(Carry);
    Un[J + N] = static_cast<uint32_t>(Top);
    if (Top < 0) {
      // D6: the estimate was one too large; add the divisor back.
      --QHat;
      uint64_t AddCarry = 0;
      for (size_t I = 0; I != N; ++I) {
        uint64_t Sum = static_cast<uint64_t>(Un[I + J]) + Vn[I] + AddCarry;
        Un[I + J] = static_cast<uint32_t>(Sum);
        AddCarry = Sum >> 32;
      }
      Un[J + N] = static_cast<uint32_t>(Un[J + N] + AddCarry);
    }
    Q[J] = static_cast<uint32_t>(QHat);
  }
  trim(Q);
  // D8: the remainder is the low N limbs of Un, shifted back.
  R.assign(N, 0);
  for (size_t I = 0; I != N; ++I) {
    uint64_t Lo = static_cast<uint64_t>(Un[I]) >> S;
    uint64_t Hi = static_cast<uint64_t>(Un[I + 1]) << (32 - S);
    R[I] = static_cast<uint32_t>(Lo | Hi);
  }
  trim(R);
}

void BigInt::divmod(const BigInt &Divisor, BigInt &Quotient,
                    BigInt &Remainder) const {
  assert(!Divisor.isZero() && "division by zero");
  if (IsSmall && Divisor.IsSmall &&
      !(Small == INT64_MIN && Divisor.Small == -1)) {
    // Both computed before either is assigned: Quotient or Remainder may
    // alias *this or Divisor.
    int64_t Quot = Small / Divisor.Small, Rem = Small % Divisor.Small;
    Quotient = BigInt(Quot);
    Remainder = BigInt(Rem);
    return;
  }
  // Truncated semantics: the quotient's sign is the product of the operand
  // signs; the remainder takes the dividend's sign.
  int QuotSign = sign() * Divisor.sign(), RemSign = sign();
  unsigned __int128 WideU, WideV;
  if (magnitude128(WideU) && Divisor.magnitude128(WideV)) {
    const unsigned __int128 Quot = WideU / WideV, Rem = WideU - Quot * WideV;
    Quotient = fromMagnitude128(QuotSign, Quot);
    Remainder = fromMagnitude128(RemSign, Rem);
    return;
  }
  std::vector<uint32_t> ScratchA, ScratchB, QuotMag, RemMag;
  divmodMag(magnitude(ScratchA), Divisor.magnitude(ScratchB), QuotMag,
            RemMag);
  Quotient = makeLarge(QuotSign, std::move(QuotMag));
  Remainder = makeLarge(RemSign, std::move(RemMag));
}

BigInt BigInt::divExact(const BigInt &Divisor) const {
  BigInt Quotient, Remainder;
  divmod(Divisor, Quotient, Remainder);
  assert(Remainder.isZero() && "divExact on non-multiple");
  return Quotient;
}

BigInt BigInt::operator/(const BigInt &Other) const {
  BigInt Quotient, Remainder;
  divmod(Other, Quotient, Remainder);
  return Quotient;
}

BigInt BigInt::operator%(const BigInt &Other) const {
  BigInt Quotient, Remainder;
  divmod(Other, Quotient, Remainder);
  return Remainder;
}

/// Euclid's algorithm on machine words.
static uint64_t gcdWords(uint64_t U, uint64_t W) {
  while (W != 0) {
    uint64_t T = U % W;
    U = W;
    W = T;
  }
  return U;
}

/// Euclid's algorithm on 128-bit words, down to 64-bit ones.
static unsigned __int128 gcdWide(unsigned __int128 U, unsigned __int128 W) {
  while ((U >> 64) != 0 || (W >> 64) != 0) {
    if (W == 0)
      return U;
    unsigned __int128 T = U % W;
    U = W;
    W = T;
  }
  return gcdWords(static_cast<uint64_t>(U), static_cast<uint64_t>(W));
}

BigInt BigInt::gcd(const BigInt &A, const BigInt &B) {
  // |INT64_MIN| does not fit in int64_t, so it takes the 128-bit path.
  if (A.IsSmall && B.IsSmall && A.Small != INT64_MIN && B.Small != INT64_MIN)
    return BigInt(static_cast<int64_t>(
        gcdWords(absOfInt64(A.Small), absOfInt64(B.Small))));
  // Euclid on the limb-wise divmod until both operands fit in 128 bits.
  unsigned __int128 WideX, WideY;
  if (A.magnitude128(WideX) && B.magnitude128(WideY))
    return fromMagnitude128(1, gcdWide(WideX, WideY));
  BigInt X = A.abs(), Y = B.abs();
  while (!X.magnitude128(WideX) || !Y.magnitude128(WideY)) {
    if (Y.isZero())
      return X;
    X = X % Y;
    std::swap(X, Y);
  }
  return fromMagnitude128(1, gcdWide(WideX, WideY));
}

BigInt BigInt::lcm(const BigInt &A, const BigInt &B) {
  if (A.isZero() || B.isZero())
    return BigInt();
  BigInt G = gcd(A, B);
  return A.abs().divExact(G) * B.abs();
}
