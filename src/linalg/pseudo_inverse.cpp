#include "linalg/pseudo_inverse.h"

#include <cmath>

#include "linalg/symmetric_eigen.h"

namespace sns {

Matrix PseudoInverseSymmetric(const Matrix& a, double rel_tolerance) {
  SNS_CHECK(a.rows() == a.cols());
  const int64_t n = a.rows();
  SymmetricEigen eig = DecomposeSymmetric(a);

  double max_abs = 0.0;
  for (double v : eig.values) max_abs = std::max(max_abs, std::fabs(v));
  const double cutoff = rel_tolerance * max_abs;

  // pinv = V diag(1/λ or 0) V'.
  Matrix out(n, n);
  for (int64_t k = 0; k < n; ++k) {
    const double lambda = eig.values[k];
    if (std::fabs(lambda) <= cutoff || lambda == 0.0) continue;
    const double inv = 1.0 / lambda;
    for (int64_t i = 0; i < n; ++i) {
      const double vik = eig.vectors(i, k) * inv;
      if (vik == 0.0) continue;
      for (int64_t j = 0; j < n; ++j) {
        out(i, j) += vik * eig.vectors(j, k);
      }
    }
  }
  return out;
}

}  // namespace sns
