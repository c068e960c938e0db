//===- linalg/Matrix.h - Dense double matrices ------------------*- C++ -*-===//
//
// Part of the PMAF reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense row-major matrices over double. The Bayesian-inference domain of
/// §5.1 represents a two-vocabulary distribution transformer as a
/// 2^|Var| x 2^|Var'| matrix, and the concrete kernel semantics of §3.3
/// degenerates to Markov transition matrices for finite state spaces
/// (footnotes 2-3 of the paper). The paper's prototype used Lacaml (BLAS);
/// this is the self-contained replacement.
///
//===----------------------------------------------------------------------===//

#ifndef PMAF_LINALG_MATRIX_H
#define PMAF_LINALG_MATRIX_H

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace pmaf {

/// A dense row-major matrix of doubles.
class Matrix {
public:
  /// Constructs an empty 0x0 matrix.
  Matrix() = default;

  /// Constructs a Rows x Cols matrix filled with \p Fill.
  Matrix(size_t Rows, size_t Cols, double Fill = 0.0)
      : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, Fill) {}

  /// \returns the Size x Size identity matrix.
  static Matrix identity(size_t Size);

  /// \returns the Rows x Cols all-zero matrix.
  static Matrix zero(size_t Rows, size_t Cols) { return Matrix(Rows, Cols); }

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }

  double &at(size_t Row, size_t Col) {
    assert(Row < NumRows && Col < NumCols && "matrix index out of range");
    return Data[Row * NumCols + Col];
  }
  double at(size_t Row, size_t Col) const {
    assert(Row < NumRows && Col < NumCols && "matrix index out of range");
    return Data[Row * NumCols + Col];
  }

  /// Matrix product; asserts inner dimensions agree.
  Matrix operator*(const Matrix &Other) const;

  /// Pointwise sum; asserts dimensions agree.
  Matrix operator+(const Matrix &Other) const;

  /// Pointwise difference; asserts dimensions agree.
  Matrix operator-(const Matrix &Other) const;

  /// In-place pointwise sum/difference — the temporary-free forms the hot
  /// node-update paths use.
  Matrix &operator+=(const Matrix &Other);
  Matrix &operator-=(const Matrix &Other);

  /// Scalar multiple.
  Matrix scaled(double Factor) const;

  /// In-place scalar multiple.
  void scaleInPlace(double Factor);

  /// this += Other * Factor, without materializing Other.scaled(Factor).
  void addScaledInPlace(const Matrix &Other, double Factor);

  /// Pointwise minimum; asserts dimensions agree.
  Matrix pointwiseMin(const Matrix &Other) const;

  /// Pointwise maximum; asserts dimensions agree.
  Matrix pointwiseMax(const Matrix &Other) const;

  /// In-place pointwise minimum/maximum.
  void pointwiseMinInPlace(const Matrix &Other);
  void pointwiseMaxInPlace(const Matrix &Other);

  /// \returns true if every entry of *this is <= the corresponding entry of
  /// \p Other plus \p Tolerance.
  bool leqAll(const Matrix &Other, double Tolerance = 0.0) const;

  /// \returns max |this[i,j] - Other[i,j]|.
  double maxAbsDiff(const Matrix &Other) const;

  /// \returns the sum of the entries of row \p Row.
  double rowSum(size_t Row) const;

  /// Left-multiplies a row vector: (V^T M)^T. Asserts sizes agree.
  std::vector<double> applyToRowVector(const std::vector<double> &V) const;

  /// Renders with \p Precision significant digits, one row per line.
  std::string toString(int Precision = 6) const;

  bool operator==(const Matrix &Other) const {
    return NumRows == Other.NumRows && NumCols == Other.NumCols &&
           Data == Other.Data;
  }

private:
  size_t NumRows = 0;
  size_t NumCols = 0;
  std::vector<double> Data;
};

} // namespace pmaf

#endif // PMAF_LINALG_MATRIX_H
