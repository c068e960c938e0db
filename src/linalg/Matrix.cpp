//===- linalg/Matrix.cpp - Dense double matrices --------------------------===//

#include "linalg/Matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace pmaf;

Matrix Matrix::identity(size_t Size) {
  Matrix Result(Size, Size);
  for (size_t I = 0; I != Size; ++I)
    Result.at(I, I) = 1.0;
  return Result;
}

Matrix Matrix::operator*(const Matrix &Other) const {
  assert(NumCols == Other.NumRows && "matrix product dimension mismatch");
  Matrix Result(NumRows, Other.NumCols);
  // The i-k-j loop order streams both Other and the output row-major; the
  // zero test skips the sparse bulk of transformer matrices.
  for (size_t I = 0; I != NumRows; ++I) {
    double *OutRow = &Result.Data[I * Other.NumCols];
    for (size_t K = 0; K != NumCols; ++K) {
      double Lhs = Data[I * NumCols + K];
      if (Lhs == 0.0)
        continue;
      const double *OtherRow = &Other.Data[K * Other.NumCols];
      for (size_t J = 0; J != Other.NumCols; ++J)
        OutRow[J] += Lhs * OtherRow[J];
    }
  }
  return Result;
}

Matrix &Matrix::operator+=(const Matrix &Other) {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "matrix sum dimension mismatch");
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] += Other.Data[I];
  return *this;
}

Matrix &Matrix::operator-=(const Matrix &Other) {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "matrix difference dimension mismatch");
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] -= Other.Data[I];
  return *this;
}

Matrix Matrix::operator+(const Matrix &Other) const {
  Matrix Result = *this;
  Result += Other;
  return Result;
}

Matrix Matrix::operator-(const Matrix &Other) const {
  Matrix Result = *this;
  Result -= Other;
  return Result;
}

void Matrix::scaleInPlace(double Factor) {
  for (double &Entry : Data)
    Entry *= Factor;
}

void Matrix::addScaledInPlace(const Matrix &Other, double Factor) {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "addScaledInPlace dimension mismatch");
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] += Other.Data[I] * Factor;
}

Matrix Matrix::scaled(double Factor) const {
  Matrix Result = *this;
  Result.scaleInPlace(Factor);
  return Result;
}

void Matrix::pointwiseMinInPlace(const Matrix &Other) {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "pointwiseMin dimension mismatch");
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = std::min(Data[I], Other.Data[I]);
}

void Matrix::pointwiseMaxInPlace(const Matrix &Other) {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "pointwiseMax dimension mismatch");
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = std::max(Data[I], Other.Data[I]);
}

Matrix Matrix::pointwiseMin(const Matrix &Other) const {
  Matrix Result = *this;
  Result.pointwiseMinInPlace(Other);
  return Result;
}

Matrix Matrix::pointwiseMax(const Matrix &Other) const {
  Matrix Result = *this;
  Result.pointwiseMaxInPlace(Other);
  return Result;
}

bool Matrix::leqAll(const Matrix &Other, double Tolerance) const {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "leqAll dimension mismatch");
  for (size_t I = 0; I != Data.size(); ++I)
    if (Data[I] > Other.Data[I] + Tolerance)
      return false;
  return true;
}

double Matrix::maxAbsDiff(const Matrix &Other) const {
  assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
         "maxAbsDiff dimension mismatch");
  double Max = 0.0;
  for (size_t I = 0; I != Data.size(); ++I)
    Max = std::max(Max, std::fabs(Data[I] - Other.Data[I]));
  return Max;
}

double Matrix::rowSum(size_t Row) const {
  assert(Row < NumRows && "rowSum index out of range");
  double Sum = 0.0;
  for (size_t J = 0; J != NumCols; ++J)
    Sum += Data[Row * NumCols + J];
  return Sum;
}

std::vector<double>
Matrix::applyToRowVector(const std::vector<double> &V) const {
  assert(V.size() == NumRows && "row-vector product dimension mismatch");
  std::vector<double> Result(NumCols, 0.0);
  for (size_t I = 0; I != NumRows; ++I) {
    if (V[I] == 0.0)
      continue;
    for (size_t J = 0; J != NumCols; ++J)
      Result[J] += V[I] * Data[I * NumCols + J];
  }
  return Result;
}

std::string Matrix::toString(int Precision) const {
  std::string Out;
  char Buffer[64];
  for (size_t I = 0; I != NumRows; ++I) {
    for (size_t J = 0; J != NumCols; ++J) {
      std::snprintf(Buffer, sizeof(Buffer), "%.*g", Precision, at(I, J));
      Out += Buffer;
      Out += J + 1 == NumCols ? '\n' : ' ';
    }
  }
  return Out;
}
