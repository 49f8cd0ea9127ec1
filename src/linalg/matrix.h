// Dense row-major matrix and the small set of kernels the CPD algorithms
// need. Built from scratch (no BLAS/Eigen): every hot operation in
// SliceNStitch works on R×R Gram matrices or single 1×R rows with R ≈ 20, so
// straightforward loops are fast enough and keep the library dependency-free.
//
// SIMD-ready layout (see linalg/simd.h): storage is 64-byte aligned and rows
// are separated by a padded leading stride — cols() rounded up to a multiple
// of 4 doubles — with the padding lanes held at exactly 0.0. Every rank-R
// kernel below runs tail-free over the padded stride through the
// compile-time rank dispatch of linalg/rank_dispatch.h.

#ifndef SLICENSTITCH_LINALG_MATRIX_H_
#define SLICENSTITCH_LINALG_MATRIX_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "linalg/simd.h"

namespace sns {

class Rng;

/// Dense row-major matrix of doubles with an aligned, padded-stride layout.
///
/// Copyable and movable. Elements are zero-initialized on construction.
/// Indexing is bounds-checked in debug builds only.
///
/// Layout invariant: row i starts at stride() doubles past row i-1, where
/// stride() = PaddedRank(cols()) >= cols(); the padding lanes
/// [cols(), stride()) of every row hold exactly 0.0 at all times. Kernels
/// rely on this to run to the padded bound without tails; code writing
/// through Row() must preserve it (writing zeros there is fine).
class Matrix {
 public:
  Matrix() = default;
  Matrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols), stride_(PaddedRank(cols)),
        data_(rows * stride_) {
    SNS_CHECK(rows >= 0 && cols >= 0);
  }

  /// n×n identity.
  static Matrix Identity(int64_t n);

  /// Matrix with i.i.d. Uniform[0,1) entries (the paper's factor init).
  static Matrix RandomUniform(int64_t rows, int64_t cols, Rng& rng);

  /// Matrix with i.i.d. standard normal entries.
  static Matrix RandomNormal(int64_t rows, int64_t cols, Rng& rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  /// Leading stride in doubles: PaddedRank(cols()).
  int64_t stride() const { return stride_; }

  double& operator()(int64_t i, int64_t j) {
    SNS_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_.data()[i * stride_ + j];
  }
  double operator()(int64_t i, int64_t j) const {
    SNS_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_.data()[i * stride_ + j];
  }

  /// Raw pointer to the start of row i: cols() logical doubles followed by
  /// stride() − cols() zero padding lanes (32-byte aligned).
  double* Row(int64_t i) {
    SNS_DCHECK(i >= 0 && i < rows_);
    return data_.data() + i * stride_;
  }
  const double* Row(int64_t i) const {
    SNS_DCHECK(i >= 0 && i < rows_);
    return data_.data() + i * stride_;
  }

  /// Stride-aware iteration over the logical entries in row-major order:
  /// fn(i, j, value). The replacement for raw flat-buffer access — padding
  /// is never exposed.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (int64_t i = 0; i < rows_; ++i) {
      const double* row = Row(i);
      for (int64_t j = 0; j < cols_; ++j) fn(i, j, row[j]);
    }
  }

  void SetZero() {
    std::fill(data_.data(), data_.data() + rows_ * stride_, 0.0);
  }

  /// Sets every LOGICAL entry to `value`; padding lanes stay 0.0.
  void Fill(double value) {
    for (int64_t i = 0; i < rows_; ++i) {
      double* row = Row(i);
      std::fill(row, row + cols_, value);
    }
  }

  /// Copies `other`'s contents into this matrix without reallocating.
  /// Shapes must match — the allocation-free alternative to operator= on
  /// preallocated hot-path buffers.
  void CopyFrom(const Matrix& other) {
    SNS_DCHECK(rows_ == other.rows_ && cols_ == other.cols_);
    std::copy(other.data_.data(), other.data_.data() + rows_ * stride_,
              data_.data());
  }

  /// sqrt of the sum of squared entries.
  double FrobeniusNorm() const;

  /// Largest absolute entry (0 for an empty matrix).
  double MaxAbs() const;

  Matrix Transposed() const;

  /// True when every padding lane holds exactly 0.0 — the layout invariant
  /// (test hook; see tests/kernel_dispatch_test.cpp).
  bool PaddingIsZero() const;

  /// Debug rendering with fixed precision.
  std::string ToString(int precision = 4) const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t stride_ = 0;
  AlignedVector data_;
};

/// C = A * B.
Matrix Multiply(const Matrix& a, const Matrix& b);

/// C = A' * B (avoids materializing the transpose). Used for Gram matrices.
Matrix MultiplyTransposeA(const Matrix& a, const Matrix& b);

/// Elementwise (Hadamard) product; shapes must match.
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// out = a ∗ b elementwise into a preallocated `out`; all shapes must match.
/// `out` may alias `a` or `b`. The allocation-free form of Hadamard.
void HadamardInto(const Matrix& a, const Matrix& b, Matrix& out);

/// dst ∗= src elementwise in place; shapes must match. Used to fold one more
/// Gram matrix into a running Hadamard-of-Grams product.
void HadamardAccumulate(Matrix& dst, const Matrix& src);

/// dst += u' v for two padded length-n row vectors (n = dst order):
/// dst(i, j) += u[i]·v[j]. The rank-1 building block of the per-event Gram
/// delta reconstruction (Eq. 17 / Eq. 26 rewritten as U = Q + (p−a)'a).
/// `u` and `v` must reference dst.stride() doubles with zero padding lanes
/// (Matrix rows and AlignedVector buffers qualify).
void AddOuterProduct(Matrix& dst, const double* u, const double* v);

/// out = a' * b without allocating; `out` must be a.cols() × b.cols().
/// The allocation-free form of MultiplyTransposeA (Gram recomputation).
void MultiplyTransposeAInto(const Matrix& a, const Matrix& b, Matrix& out);

/// out = f' f, the Gram matrix of a factor: forms the upper triangle with
/// the register-tiled weighted SYRK kernel and mirrors it, about half the
/// multiply-adds of MultiplyTransposeAInto(f, f, out). Each entry takes the
/// same products in the same order, so the two agree bitwise for finite f
/// unless a product underflows to −0 while the sum is still zero (the zero
/// products MultiplyTransposeAInto skips would then turn that −0 into +0).
void SymmetricGramInto(const Matrix& f, Matrix& out);

/// Column-wise Khatri-Rao product: (IK)×R from I×R and K×R, with row
/// (i*K + k) = A(i,:) ∗ B(k,:). Matches the ⊙ operator of the paper. Used by
/// tests and reference implementations, not by hot paths.
Matrix KhatriRao(const Matrix& a, const Matrix& b);

Matrix Add(const Matrix& a, const Matrix& b);
Matrix Subtract(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, double factor);

/// out[1×n] = row[1×m] * m×n matrix. `out` must not alias `row`. Logical
/// lengths: `row` holds m.rows() values, `out` receives m.cols() values —
/// no padded capacity required of either.
void RowTimesMatrix(const double* row, const Matrix& m, double* out);

/// Padded form of RowTimesMatrix for the update hot path: `out` must hold
/// m.stride() doubles (its padding lanes are zeroed — sums of m's zero
/// padding), letting the accumulation run tail-free at the dispatched
/// rank. `row` still holds m.rows() logical values.
void RowTimesMatrixPadded(const double* row, const Matrix& m, double* out);

/// Dot product of two length-n arrays.
double Dot(const double* a, const double* b, int64_t n);

/// Max absolute difference between same-shaped matrices.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace sns

#endif  // SLICENSTITCH_LINALG_MATRIX_H_
