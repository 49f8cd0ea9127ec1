// Hadamard row products through a resolved kernel table, for the loops
// that form one product per cell (tensor/mttkrp.cpp and the sampled rule
// of core/row_updater.cpp; the GCP Newton step stages its products with
// the table's gather_hadamard_dots, which computes the same bits).
// Internal to the library: tensor/mttkrp.h's HadamardRowProduct is the
// public form, which resolves its table from the factors' stride.

#ifndef SLICENSTITCH_TENSOR_HADAMARD_ROW_H_
#define SLICENSTITCH_TENSOR_HADAMARD_ROW_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "linalg/matrix.h"
#include "linalg/rank_dispatch.h"
#include "tensor/mode_index.h"

namespace sns {

/// out = rows[0] ∗ rows[1] ∗ … ∗ rows[count − 1] over n padded lanes, left
/// to right: the first two rows multiplied, the rest multiplied in (a copy
/// for count = 1). Bitwise the product started from 1.0, as 1.0·a = a; the
/// padding lanes stay 0.0 when the rows' are. count ≥ 1.
inline void HadamardOfRows(const double* const* rows, int count, double* out,
                           int64_t n, const RankKernelTable& kr) {
  SNS_DCHECK(count > 0);
  if (count == 1) {
    kr.copy(rows[0], out, n);
    return;
  }
  kr.mul(rows[0], rows[1], out, n);
  for (int k = 2; k < count; ++k) kr.mul_accum(out, rows[k], n);
}

/// HadamardRowProduct (tensor/mttkrp.h) against a resolved table:
/// out = ∗_{m≠skip_mode} factors[m](index[m], :) at the factors' stride.
inline void HadamardRow(const std::vector<Matrix>& factors,
                        const ModeIndex& index, int skip_mode, double* out,
                        const RankKernelTable& kr) {
  const double* rows[kMaxTensorModes] = {};
  int count = 0;
  for (size_t m = 0; m < factors.size(); ++m) {
    if (static_cast<int>(m) == skip_mode) continue;
    rows[count++] = factors[m].Row(index[static_cast<int>(m)]);
  }
  HadamardOfRows(rows, count, out, factors[0].stride(), kr);
}

}  // namespace sns

#endif  // SLICENSTITCH_TENSOR_HADAMARD_ROW_H_
