// Kernels over (M−1)-mode tensor units shared by the periodic baselines:
// the right-hand side for solving a new time-mode row, and the per-unit
// MTTKRP contribution to a non-time mode's accumulator.

#ifndef SLICENSTITCH_BASELINES_UNIT_OPS_H_
#define SLICENSTITCH_BASELINES_UNIT_OPS_H_

#include <vector>

#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"

namespace sns {

/// rhs_r = Σ_{J∈unit} y_J Π_{m<M-1} A(m)(j_m, r): the MTTKRP row for solving
/// a single time-mode row against the unit (factors[0..M-2] are the non-time
/// factor matrices; later entries of `factors` are ignored).
std::vector<double> UnitTimeRowRhs(const SparseTensor& unit,
                                   const std::vector<Matrix>& factors);

/// p(j_m, r) += sign · Σ_{J∈unit, J[mode]=j_m} y_J · time_row[r] ·
/// Π_{n≠mode, n<M-1} A(n)(j_n, r): the unit's contribution to the mode-`mode`
/// MTTKRP accumulator given the time-row values the unit sits on.
void AccumulateUnitMttkrp(const SparseTensor& unit,
                          const std::vector<Matrix>& factors,
                          const double* time_row, int mode, double sign,
                          Matrix& p);

/// Splits an M-mode window tensor into its W per-slice (M−1)-mode units
/// (index 0 = oldest slice).
std::vector<SparseTensor> SplitWindowIntoUnits(const SparseTensor& window);

}  // namespace sns

#endif  // SLICENSTITCH_BASELINES_UNIT_OPS_H_
