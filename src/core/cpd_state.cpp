#include "core/cpd_state.h"

#include <cmath>

#include "linalg/rank_dispatch.h"

namespace sns {

void CpdState::RecomputeGrams() {
  const int modes = num_modes();
  if (modes == 0) {
    grams.clear();
    return;
  }
  const int64_t r = rank();
  // In place when already shaped (keeps SNS-MAT's per-event GCP refresh
  // allocation-free); (re)allocate otherwise.
  if (static_cast<int>(grams.size()) != modes || grams[0].rows() != r) {
    grams.assign(static_cast<size_t>(modes), Matrix(r, r));
  }
  for (int m = 0; m < modes; ++m) {
    SymmetricGramInto(model.factor(m), grams[static_cast<size_t>(m)]);
  }
}

void CpdState::AbsorbLambda() {
  const int modes = num_modes();
  const int64_t r = rank();
  for (int64_t k = 0; k < r; ++k) {
    double& lambda_k = model.lambda()[static_cast<size_t>(k)];
    if (lambda_k == 1.0) continue;
    // Distribute the magnitude evenly; the sign goes to the first mode.
    const double magnitude =
        std::pow(std::fabs(lambda_k), 1.0 / static_cast<double>(modes));
    const double sign = lambda_k < 0.0 ? -1.0 : 1.0;
    for (int m = 0; m < modes; ++m) {
      Matrix& factor = model.factor(m);
      const double scale = (m == 0) ? sign * magnitude : magnitude;
      for (int64_t i = 0; i < factor.rows(); ++i) factor(i, k) *= scale;
    }
    lambda_k = 1.0;
  }
  RecomputeGrams();
}

void ApplyGramRowUpdate(Matrix& gram, const double* old_row,
                        const double* new_row) {
  GetRankKernelTable(gram.stride())
      .gram_rank_two_update(new_row, old_row, gram.Row(0), gram.rows(),
                            gram.stride());
}

}  // namespace sns
