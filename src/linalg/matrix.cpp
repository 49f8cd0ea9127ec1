#include "linalg/matrix.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "linalg/rank_dispatch.h"

namespace sns {

Matrix Matrix::Identity(int64_t n) {
  Matrix m(n, n);
  for (int64_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomUniform(int64_t rows, int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    double* row = m.Row(i);
    for (int64_t j = 0; j < cols; ++j) row[j] = rng.UniformDouble();
  }
  return m;
}

Matrix Matrix::RandomNormal(int64_t rows, int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    double* row = m.Row(i);
    for (int64_t j = 0; j < cols; ++j) row[j] = rng.Normal();
  }
  return m;
}

double Matrix::FrobeniusNorm() const {
  // Runs over the padded buffer: the zero padding lanes add exactly 0.0.
  const double* data = data_.data();
  const int64_t total = rows_ * stride_;
  double sum = 0.0;
  for (int64_t i = 0; i < total; ++i) sum += data[i] * data[i];
  return std::sqrt(sum);
}

double Matrix::MaxAbs() const {
  const double* data = data_.data();
  const int64_t total = rows_ * stride_;
  double best = 0.0;
  for (int64_t i = 0; i < total; ++i) best = std::max(best, std::fabs(data[i]));
  return best;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int64_t i = 0; i < rows_; ++i) {
    const double* row = Row(i);
    for (int64_t j = 0; j < cols_; ++j) out(j, i) = row[j];
  }
  return out;
}

bool Matrix::PaddingIsZero() const {
  for (int64_t i = 0; i < rows_; ++i) {
    const double* row = Row(i);
    for (int64_t j = cols_; j < stride_; ++j) {
      if (row[j] != 0.0) return false;
    }
  }
  return true;
}

std::string Matrix::ToString(int precision) const {
  std::string out;
  char buf[64];
  for (int64_t i = 0; i < rows_; ++i) {
    for (int64_t j = 0; j < cols_; ++j) {
      std::snprintf(buf, sizeof(buf), "% .*f ", precision, (*this)(i, j));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  SNS_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  const int64_t n = a.rows(), k_dim = a.cols();
  const RankKernelTable& kr = GetRankKernelTable(b.stride());
  for (int64_t i = 0; i < n; ++i) {
    const double* a_row = a.Row(i);
    double* c_row = c.Row(i);
    for (int64_t k = 0; k < k_dim; ++k) {
      const double a_ik = a_row[k];
      if (a_ik == 0.0) continue;
      kr.axpy(a_ik, b.Row(k), c_row, b.stride());
    }
  }
  return c;
}

Matrix MultiplyTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  MultiplyTransposeAInto(a, b, c);
  return c;
}

void MultiplyTransposeAInto(const Matrix& a, const Matrix& b, Matrix& out) {
  SNS_CHECK(a.rows() == b.rows());
  SNS_CHECK(out.rows() == a.cols() && out.cols() == b.cols());
  out.SetZero();
  const RankKernelTable& kr = GetRankKernelTable(b.stride());
  const int64_t n = a.rows(), p = a.cols();
  for (int64_t k = 0; k < n; ++k) {
    const double* a_row = a.Row(k);
    const double* b_row = b.Row(k);
    for (int64_t i = 0; i < p; ++i) {
      const double a_ki = a_row[i];
      if (a_ki == 0.0) continue;
      kr.axpy(a_ki, b_row, out.Row(i), b.stride());
    }
  }
}

void SymmetricGramInto(const Matrix& f, Matrix& out) {
  SNS_CHECK(out.rows() == f.cols() && out.cols() == f.cols());
  out.SetZero();
  if (f.cols() == 0) return;
  // The weighted SYRK at unit weights: (1·f_ki)·f_kj is the exact product,
  // and every upper entry takes it row by row in k order, in the table's
  // axpy form, as MultiplyTransposeAInto does (which also skips f_ki == 0;
  // adding a zero product changes nothing unless the sum is −0).
  constexpr int64_t kChunk = 128;
  static const std::array<double, kChunk> kOnes = [] {
    std::array<double, kChunk> ones;
    ones.fill(1.0);
    return ones;
  }();
  const RankKernelTable& kr = GetRankKernelTable(f.stride());
  for (int64_t k0 = 0; k0 < f.rows(); k0 += kChunk) {
    kr.weighted_syrk_upper(f.Row(k0), kOnes.data(),
                           std::min(kChunk, f.rows() - k0), f.cols(),
                           out.Row(0), f.stride());
  }
  for (int64_t i = 1; i < f.cols(); ++i) {
    double* row = out.Row(i);
    for (int64_t j = 0; j < i; ++j) row[j] = out(j, i);
  }
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), a.cols());
  HadamardInto(a, b, c);
  return c;
}

void HadamardInto(const Matrix& a, const Matrix& b, Matrix& out) {
  SNS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  SNS_CHECK(out.rows() == a.rows() && out.cols() == a.cols());
  if (a.rows() == 0) return;
  // One runtime-length call over the contiguous padded storage instead of
  // one per row: elementwise, so the same values (padding: 0·0 = 0).
  GetRankKernelTable(0).mul(a.Row(0), b.Row(0), out.Row(0),
                            a.rows() * a.stride());
}

void HadamardAccumulate(Matrix& dst, const Matrix& src) {
  SNS_CHECK(dst.rows() == src.rows() && dst.cols() == src.cols());
  const RankKernelTable& kr = GetRankKernelTable(dst.stride());
  for (int64_t i = 0; i < dst.rows(); ++i) {
    kr.mul_accum(dst.Row(i), src.Row(i), dst.stride());
  }
}

void AddOuterProduct(Matrix& dst, const double* u, const double* v) {
  const int64_t n = dst.rows();
  SNS_DCHECK(dst.cols() == n);
  const RankKernelTable& kr = GetRankKernelTable(dst.stride());
  for (int64_t i = 0; i < n; ++i) {
    const double u_i = u[i];
    if (u_i == 0.0) continue;
    kr.axpy(u_i, v, dst.Row(i), dst.stride());
  }
}

Matrix KhatriRao(const Matrix& a, const Matrix& b) {
  SNS_CHECK(a.cols() == b.cols());
  Matrix c(a.rows() * b.rows(), a.cols());
  const RankKernelTable& kr = GetRankKernelTable(a.stride());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.Row(i);
    for (int64_t k = 0; k < b.rows(); ++k) {
      kr.mul(a_row, b.Row(k), c.Row(i * b.rows() + k), a.stride());
    }
  }
  return c;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  SNS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c(a.rows(), a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.Row(i);
    const double* b_row = b.Row(i);
    double* c_row = c.Row(i);
    for (int64_t j = 0; j < a.stride(); ++j) c_row[j] = a_row[j] + b_row[j];
  }
  return c;
}

Matrix Subtract(const Matrix& a, const Matrix& b) {
  SNS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c(a.rows(), a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.Row(i);
    const double* b_row = b.Row(i);
    double* c_row = c.Row(i);
    for (int64_t j = 0; j < a.stride(); ++j) c_row[j] = a_row[j] - b_row[j];
  }
  return c;
}

Matrix Scale(const Matrix& a, double factor) {
  // Logical lanes only: factor · (−0.0) would flip the padding sign bit.
  Matrix c(a.rows(), a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.Row(i);
    double* c_row = c.Row(i);
    for (int64_t j = 0; j < a.cols(); ++j) c_row[j] = factor * a_row[j];
  }
  return c;
}

void RowTimesMatrix(const double* SNS_RESTRICT row, const Matrix& m,
                    double* SNS_RESTRICT out) {
  const int64_t rows = m.rows(), cols = m.cols();
  std::fill(out, out + cols, 0.0);
  for (int64_t i = 0; i < rows; ++i) {
    const double r_i = row[i];
    if (r_i == 0.0) continue;
    const double* SNS_RESTRICT m_row = m.Row(i);
    for (int64_t j = 0; j < cols; ++j) out[j] += r_i * m_row[j];
  }
}

void RowTimesMatrixPadded(const double* row, const Matrix& m, double* out) {
  const int64_t rows = m.rows();
  const RankKernelTable& kr = GetRankKernelTable(m.stride());
  kr.fill(out, 0.0, m.stride());
  for (int64_t i = 0; i < rows; ++i) {
    const double r_i = row[i];
    if (r_i == 0.0) continue;
    kr.axpy(r_i, m.Row(i), out, m.stride());
  }
}

double Dot(const double* a, const double* b, int64_t n) {
  // Runtime-length auto-tier table: same kernel every dot in the library
  // uses, so internal bitwise differentials stay exact.
  return GetRankKernelTable(0).dot(a, b, n);
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  SNS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double best = 0.0;
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.Row(i);
    const double* b_row = b.Row(i);
    for (int64_t j = 0; j < a.cols(); ++j) {
      best = std::max(best, std::fabs(a_row[j] - b_row[j]));
    }
  }
  return best;
}

}  // namespace sns
