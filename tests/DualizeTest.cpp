//===- tests/DualizeTest.cpp - Chernikova kernel against a reference ------===//
//
// Pins the Chernikova kernel of poly/Polyhedron.cpp row for row:
//
//  * dualize() derives each generator's saturation bitset step by step.
//    A reference copy of the kernel that rebuilds the saturation sets with
//    dot products at every step must return *identical* rows, not merely
//    the same cone, on random inputs: equalities and lines, pointed and
//    non-pointed cones, small and 40- to 200-bit coefficients, and more
//    than 64 constraints (several bitset words per generator).
//  * fromConstraintRows() skips its re-minimizing pass for pointed cones;
//    the generators it stores must equal a fresh dualization of the
//    minimal constraints, with and without lines.
//
//===----------------------------------------------------------------------===//

#include "poly/Polyhedron.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace pmaf;
using namespace pmaf::poly;

namespace {

//===----------------------------------------------------------------------===//
// Reference kernel: saturation sets recomputed with dot products
//===----------------------------------------------------------------------===//

bool referenceRowLess(const ConeRow &A, const ConeRow &B) {
  if (A.IsLinearity != B.IsLinearity)
    return A.IsLinearity > B.IsLinearity;
  for (size_t I = 0; I != A.Coeffs.size(); ++I) {
    int Cmp = A.Coeffs[I].compare(B.Coeffs[I]);
    if (Cmp != 0)
      return Cmp < 0;
  }
  return false;
}

void referenceSortAndDedup(std::vector<ConeRow> &Rows) {
  std::sort(Rows.begin(), Rows.end(), referenceRowLess);
  Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
}

/// Chernikova's algorithm as it was before the saturation bitsets were
/// derived incrementally: before each split, every ray's saturation set
/// over the processed constraints is rebuilt from dot products.
std::vector<ConeRow> referenceDualize(const std::vector<ConeRow> &Input,
                                      unsigned Cols) {
  std::vector<const ConeRow *> Ordered;
  for (const ConeRow &Row : Input)
    if (Row.IsLinearity)
      Ordered.push_back(&Row);
  for (const ConeRow &Row : Input)
    if (!Row.IsLinearity)
      Ordered.push_back(&Row);

  std::vector<ConeRow> Gens;
  for (unsigned I = 0; I != Cols; ++I) {
    ConeRow Line;
    Line.IsLinearity = true;
    Line.Coeffs.assign(Cols, BigInt(0));
    Line.Coeffs[I] = BigInt(1);
    Gens.push_back(std::move(Line));
  }

  std::vector<const ConeRow *> Processed;
  for (const ConeRow *Con : Ordered) {
    std::vector<BigInt> S(Gens.size());
    for (size_t I = 0; I != Gens.size(); ++I)
      S[I] = dotProduct(Gens[I], *Con);

    size_t Pivot = Gens.size();
    for (size_t I = 0; I != Gens.size(); ++I)
      if (Gens[I].IsLinearity && !S[I].isZero()) {
        Pivot = I;
        break;
      }

    if (Pivot != Gens.size()) {
      BigInt AbsSL = S[Pivot].abs();
      int SignSL = S[Pivot].sign();
      for (size_t I = 0; I != Gens.size(); ++I) {
        if (I == Pivot || S[I].isZero())
          continue;
        BigInt Mult = SignSL > 0 ? S[I] : S[I].negated();
        BigInt G = BigInt::gcd(AbsSL, Mult);
        BigInt GenMult = AbsSL.divExact(G), LineMult = Mult.divExact(G);
        for (size_t Col = 0; Col != Cols; ++Col)
          Gens[I].Coeffs[Col] = GenMult * Gens[I].Coeffs[Col] -
                                LineMult * Gens[Pivot].Coeffs[Col];
        Gens[I].normalize();
      }
      if (Con->IsLinearity) {
        Gens.erase(Gens.begin() + static_cast<ptrdiff_t>(Pivot));
      } else {
        if (SignSL < 0)
          for (BigInt &C : Gens[Pivot].Coeffs)
            C = C.negated();
        Gens[Pivot].IsLinearity = false;
        Gens[Pivot].normalize();
      }
      Processed.push_back(Con);
      continue;
    }

    std::vector<size_t> Plus, Zero, Minus;
    std::vector<ConeRow> Lines;
    for (size_t I = 0; I != Gens.size(); ++I) {
      if (Gens[I].IsLinearity) {
        Lines.push_back(Gens[I]);
        continue;
      }
      int Sign = S[I].sign();
      if (Sign > 0)
        Plus.push_back(I);
      else if (Sign < 0)
        Minus.push_back(I);
      else
        Zero.push_back(I);
    }

    std::vector<std::vector<bool>> Sat(Gens.size());
    std::vector<size_t> Rays;
    for (size_t I = 0; I != Gens.size(); ++I) {
      if (Gens[I].IsLinearity)
        continue;
      Rays.push_back(I);
      Sat[I].resize(Processed.size());
      for (size_t K = 0; K != Processed.size(); ++K)
        Sat[I][K] = dotProduct(Gens[I], *Processed[K]).isZero();
    }
    auto Adjacent = [&](size_t A, size_t B) {
      for (size_t Other : Rays) {
        if (Other == A || Other == B)
          continue;
        bool Covers = true;
        for (size_t K = 0; K != Processed.size() && Covers; ++K)
          if (Sat[A][K] && Sat[B][K] && !Sat[Other][K])
            Covers = false;
        if (Covers)
          return false;
      }
      return true;
    };

    std::vector<ConeRow> Next = std::move(Lines);
    for (size_t I : Zero)
      Next.push_back(Gens[I]);
    if (!Con->IsLinearity)
      for (size_t I : Plus)
        Next.push_back(Gens[I]);
    for (size_t P : Plus)
      for (size_t M : Minus) {
        if (!Adjacent(P, M))
          continue;
        BigInt G = BigInt::gcd(S[P], S[M]);
        BigInt MultM = S[P].divExact(G), MultP = S[M].divExact(G);
        ConeRow Combo;
        Combo.Coeffs.resize(Cols);
        for (size_t Col = 0; Col != Cols; ++Col)
          Combo.Coeffs[Col] =
              MultM * Gens[M].Coeffs[Col] - MultP * Gens[P].Coeffs[Col];
        if (Combo.normalize())
          Next.push_back(std::move(Combo));
      }
    Gens = std::move(Next);
    referenceSortAndDedup(Gens);
    Processed.push_back(Con);
  }

  referenceSortAndDedup(Gens);
  return Gens;
}

//===----------------------------------------------------------------------===//
// Random inputs
//===----------------------------------------------------------------------===//

/// A nonnegative value of exactly \p Bits bits.
BigInt randomMagnitude(Rng &R, unsigned Bits) {
  BigInt Value(1);
  for (unsigned I = 1; I < Bits; I += 31) {
    unsigned Chunk = std::min(31u, Bits - I);
    Value = Value.shiftLeft(Chunk) +
            BigInt(static_cast<int64_t>(R.next() & ((1ull << Chunk) - 1)));
  }
  return Value;
}

/// A random row of one of three shapes: small coefficients in [-3, 3];
/// independent coefficients of 40 to 200 bits; or F * c + d for one 40- to
/// 200-bit factor F and small c and d, which puts nearly parallel rows in
/// the same system.
ConeRow randomRow(Rng &R, unsigned Cols, bool IsLinearity) {
  ConeRow Row;
  Row.IsLinearity = IsLinearity;
  const uint64_t Shape = R.below(3);
  const BigInt Factor =
      randomMagnitude(R, 40 + static_cast<unsigned>(R.below(161)));
  for (unsigned Col = 0; Col != Cols; ++Col) {
    BigInt Small(static_cast<int64_t>(R.below(7)) - 3);
    BigInt C;
    if (Shape == 0)
      C = Small;
    else if (Shape == 1)
      C = randomMagnitude(R, 40 + static_cast<unsigned>(R.below(161)));
    else
      C = Factor * Small + BigInt(static_cast<int64_t>(R.below(3)) - 1);
    Row.Coeffs.push_back(Shape == 1 && R.below(2) ? C.negated() : C);
  }
  return Row;
}

/// More than 64 facets: the tangent planes h >= 2 p.x - |p|^2 of the
/// paraboloid h = |x|^2 at random points p with 20- to 60-bit
/// coordinates, under the ceiling h <= 2^(2B+4) for B-bit coordinates.
/// Every tangent plane is a facet and the cone is pointed. Column Used-1
/// is the height h; with \p Free, the last column is zero in every row and
/// the cone keeps a line along it. With three or more x columns, one
/// equality through the origin rides along.
std::vector<ConeRow> manyFacets(Rng &R, unsigned Cols, unsigned Count,
                                bool Free) {
  const unsigned Used = Free ? Cols - 1 : Cols;
  const unsigned Bits = 20 + static_cast<unsigned>(R.below(41));
  std::vector<ConeRow> Rows;
  for (unsigned I = 0; I != Count; ++I) {
    ConeRow Row;
    Row.Coeffs.assign(Cols, BigInt(0));
    for (unsigned Col = 1; Col + 1 != Used; ++Col) {
      BigInt P = randomMagnitude(R, Bits - static_cast<unsigned>(
                                                R.below(Bits / 2)));
      if (R.below(2))
        P = P.negated();
      Row.Coeffs[0] = Row.Coeffs[0] + P * P;
      Row.Coeffs[Col] = P.shiftLeft(1).negated();
    }
    Row.Coeffs[Used - 1] = BigInt(1);
    Rows.push_back(std::move(Row));
  }
  ConeRow Ceiling;
  Ceiling.Coeffs.assign(Cols, BigInt(0));
  Ceiling.Coeffs[0] = BigInt(1).shiftLeft(2 * Bits + 4);
  Ceiling.Coeffs[Used - 1] = BigInt(-1);
  Rows.push_back(std::move(Ceiling));
  if (Used >= 5) {
    ConeRow Eq;
    Eq.IsLinearity = true;
    Eq.Coeffs.assign(Cols, BigInt(0));
    Eq.Coeffs[1] = BigInt(3);
    Eq.Coeffs[2] = BigInt(-2);
    Rows.push_back(std::move(Eq));
  }
  return Rows;
}

std::string describe(const std::vector<ConeRow> &Rows) {
  std::string Out;
  for (const ConeRow &Row : Rows) {
    Out += Row.IsLinearity ? "  = [" : "  > [";
    for (const BigInt &C : Row.Coeffs) {
      Out += ' ';
      Out += C.toString();
    }
    Out += " ]\n";
  }
  return Out;
}

bool hasLine(const std::vector<ConeRow> &Rows) {
  return std::any_of(Rows.begin(), Rows.end(),
                     [](const ConeRow &Row) { return Row.IsLinearity; });
}

/// Compares the kernel against the reference on \p Input; \returns the
/// kernel's output.
std::vector<ConeRow> expectSameAsReference(const std::vector<ConeRow> &Input,
                                           unsigned Cols) {
  std::vector<ConeRow> Got = dualize(Input, Cols);
  std::vector<ConeRow> Want = referenceDualize(Input, Cols);
  EXPECT_TRUE(Got == Want) << "input:\n"
                           << describe(Input) << "kernel:\n"
                           << describe(Got) << "reference:\n"
                           << describe(Want);
  return Got;
}

/// Coverage of one sweep, so it cannot silently stop reaching the cases
/// it exists for.
struct Reached {
  unsigned Pointed = 0, WithLines = 0, Equalities = 0, WideRows = 0;

  void note(const std::vector<ConeRow> &Input,
            const std::vector<ConeRow> &Output) {
    ++(hasLine(Output) ? WithLines : Pointed);
    Equalities += hasLine(Input);
    for (const ConeRow &Row : Input)
      if (std::any_of(Row.Coeffs.begin(), Row.Coeffs.end(),
                      [](const BigInt &C) { return C.bitLength() > 40; })) {
        ++WideRows;
        break;
      }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// dualize against the reference kernel
//===----------------------------------------------------------------------===//

TEST(DualizeReferenceTest, RandomSystemsGiveIdenticalRows) {
  Rng R(0xD0A1);
  Reached Seen;
  for (int Round = 0; Round != 300; ++Round) {
    const unsigned Cols = 2 + static_cast<unsigned>(R.below(5));
    const unsigned NumRows = 1 + static_cast<unsigned>(R.below(Cols + 5));
    std::vector<ConeRow> Input;
    for (unsigned I = 0; I != NumRows; ++I)
      Input.push_back(randomRow(R, Cols, /*IsLinearity=*/R.below(5) == 0));
    std::vector<ConeRow> Gens = expectSameAsReference(Input, Cols);
    Seen.note(Input, Gens);
    // Back to the constraint side: lines are now linearities of the input.
    if (!Gens.empty())
      Seen.note(Gens, expectSameAsReference(Gens, Cols));
  }
  EXPECT_GT(Seen.Pointed, 20u);
  EXPECT_GT(Seen.WithLines, 20u);
  EXPECT_GT(Seen.Equalities, 20u);
  EXPECT_GT(Seen.WideRows, 20u);
}

TEST(DualizeReferenceTest, MoreThan64ConstraintsGiveIdenticalRows) {
  Rng R(0xB175);
  for (bool Free : {false, true})
    for (unsigned Cols : {3u, 4u, 5u}) {
      if (Free && Cols == 3)
        continue; // No x column would be left.
      std::vector<ConeRow> Input =
          manyFacets(R, Cols, 65 + static_cast<unsigned>(R.below(6)), Free);
      std::vector<ConeRow> Gens = expectSameAsReference(Input, Cols);
      EXPECT_EQ(hasLine(Gens), Free);
      EXPECT_GT(Gens.size(), 64u);
    }
}

//===----------------------------------------------------------------------===//
// fromConstraints: the skipped re-minimization
//===----------------------------------------------------------------------===//

TEST(DualizeReferenceTest, StoredGeneratorsEqualRedualizedConstraints) {
  Rng R(0x5C1F);
  unsigned Pointed = 0, WithLines = 0;
  for (int Round = 0; Round != 200; ++Round) {
    const unsigned Dim = 1 + static_cast<unsigned>(R.below(4));
    // Bound a random subset of the variables, so some systems leave lines.
    std::vector<Constraint> Cons;
    for (unsigned V = 0; V != Dim; ++V) {
      if (R.below(2) == 0)
        continue;
      Cons.push_back(Constraint::ge(LinearExpr::variable(Dim, V),
                                    LinearExpr::constant(Dim, Rational(-5))));
      Cons.push_back(Constraint::le(LinearExpr::variable(Dim, V),
                                    LinearExpr::constant(Dim, Rational(5))));
    }
    const unsigned Extra = static_cast<unsigned>(R.below(Dim + 3));
    for (unsigned I = 0; I != Extra; ++I) {
      ConeRow Row = randomRow(R, Dim + 1, /*IsLinearity=*/false);
      LinearExpr E(Dim);
      E.constantTerm() = Rational(Row.Coeffs[0], BigInt(1));
      for (unsigned V = 0; V != Dim; ++V)
        E.coeff(V) = Rational(Row.Coeffs[V + 1], BigInt(1));
      Cons.push_back(Constraint{std::move(E), R.below(6) == 0
                                                  ? Constraint::Kind::Eq
                                                  : Constraint::Kind::Ge});
    }
    Polyhedron P = Polyhedron::fromConstraints(Dim, Cons);
    if (P.isEmpty())
      continue;
    std::vector<ConeRow> Rows = P.constraints();
    ConeRow Positivity;
    Positivity.Coeffs.assign(Dim + 1, BigInt(0));
    Positivity.Coeffs[0] = BigInt(1);
    Rows.push_back(std::move(Positivity));
    std::vector<ConeRow> Redualized = dualize(Rows, Dim + 1);
    EXPECT_TRUE(P.generators() == Redualized)
        << "constraints:\n"
        << describe(Rows) << "stored:\n"
        << describe(P.generators()) << "redualized:\n"
        << describe(Redualized);
    ++(hasLine(P.generators()) ? WithLines : Pointed);
  }
  EXPECT_GT(Pointed, 20u);
  EXPECT_GT(WithLines, 20u);
}
