// Moore–Penrose pseudoinverse for symmetric matrices, the H† of every
// SliceNStitch update rule (Eqs. 4, 9, 12, 15–16). Gram matrices of factor
// matrices are symmetric PSD but can be rank-deficient (e.g. duplicated
// components, cold-start rows), so the pseudoinverse — not a plain inverse —
// is required for the update rules to stay well-defined.

#ifndef SLICENSTITCH_LINALG_PSEUDO_INVERSE_H_
#define SLICENSTITCH_LINALG_PSEUDO_INVERSE_H_

#include "linalg/matrix.h"

namespace sns {

/// Pseudoinverse of a symmetric matrix via eigendecomposition: eigenvalues
/// with |λ| ≤ rel_tolerance·max|λ| are treated as zero. The result is again
/// symmetric.
Matrix PseudoInverseSymmetric(const Matrix& a, double rel_tolerance = 1e-10);

}  // namespace sns

#endif  // SLICENSTITCH_LINALG_PSEUDO_INVERSE_H_
