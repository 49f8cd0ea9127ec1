#include "core/fitness_tracker.h"

#include <cmath>

#include "losses/loss_function.h"
#include "losses/reference_objective.h"

namespace sns {

void RunningFitnessTracker::Reset(const SparseTensor& window,
                                  const CpdState& state,
                                  int64_t resync_interval) {
  Bind(state.rank(), resync_interval);
  RestoreAccumulators(ExactTerms(window, state));
}

void RunningFitnessTracker::Bind(int64_t rank, int64_t resync_interval) {
  resync_interval_ = resync_interval;
  if (gram_product_.rows() != rank || gram_product_.cols() != rank) {
    gram_product_ = Matrix(rank, rank);
  }
}

void RunningFitnessTracker::OnWindowDelta(const WindowDelta& delta,
                                          const SparseTensor& window,
                                          const CpdState& state) {
  // The correction arrays hold WindowDelta's documented maximum of two
  // cells; a wider delta would corrupt the estimate silently, so fail loud
  // in every build (once per event, the check is free next to the O(M·R)
  // cell work below).
  SNS_CHECK(delta.cells.size() <= cells_.size());
  num_cells_ = 0;
  for (const DeltaCell& cell : delta.cells) {
    const double x_new = window.Get(cell.index);
    const double x_old = x_new - cell.delta;
    const double predicted = state.model.Evaluate(cell.index);
    if (loss_ != nullptr) {
      // Generalized objective: the cell leaves/enters the window's nonzero
      // support, so its ℓ terms move between the sums. θ is the pre-update
      // prediction; OnFactorsUpdated corrects for the factor step below.
      if (x_old != 0.0) {
        loss_sum_ -= loss_->Value(x_old, predicted);
        baseline_sum_ -= loss_->Value(x_old, 0.0);
      }
      if (x_new != 0.0) {
        loss_sum_ += loss_->Value(x_new, predicted);
        baseline_sum_ += loss_->Value(x_new, 0.0);
      }
    } else {
      norm_x_sq_ += x_new * x_new - x_old * x_old;
      inner_ += cell.delta * predicted;
    }
    if (num_cells_ >= static_cast<int>(cells_.size())) continue;
    const size_t slot = static_cast<size_t>(num_cells_);
    cells_[slot] = cell.index;
    new_values_[slot] = x_new;
    pre_predictions_[slot] = predicted;
    ++num_cells_;
  }
}

void RunningFitnessTracker::OnFactorsUpdated(const CpdState& state) {
  // Local correction: the update's effect on X̃ at the cells it targeted.
  for (int c = 0; c < num_cells_; ++c) {
    const size_t slot = static_cast<size_t>(c);
    if (loss_ != nullptr) {
      if (new_values_[slot] == 0.0) continue;  // Left the nonzero support.
      loss_sum_ +=
          loss_->Value(new_values_[slot], state.model.Evaluate(cells_[slot])) -
          loss_->Value(new_values_[slot], pre_predictions_[slot]);
    } else {
      inner_ += new_values_[slot] *
                (state.model.Evaluate(cells_[slot]) - pre_predictions_[slot]);
    }
  }
  num_cells_ = 0;
  ++events_since_exact_;
}

double RunningFitnessTracker::RunningFitness(const SparseTensor& window,
                                             const CpdState& state) const {
  if (resync_interval_ > 0 &&
      events_since_exact_ - cache_anchor_.events_since_exact >=
          resync_interval_) {
    cache_exact_ = ExactTerms(window, state);
    cache_anchor_ = SaveAccumulators();
  }
  // exact + (accumulator now − accumulator at e₀); with an empty (zero)
  // cache this is the accumulator itself.
  const auto estimate = [](double exact, double now, double at_e0) {
    return exact + (now - at_e0);
  };
  if (loss_ != nullptr) {
    // Generalized fitness 1 − Σℓ(x, x̃)/Σℓ(x, 0): the GCP analog of the
    // Frobenius formula, agreeing with it for Gaussian up to the √.
    const double baseline_sum = estimate(
        cache_exact_.baseline_sum, baseline_sum_, cache_anchor_.baseline_sum);
    if (baseline_sum <= 0.0) return 0.0;
    return 1.0 - estimate(cache_exact_.loss_sum, loss_sum_,
                          cache_anchor_.loss_sum) /
                     baseline_sum;
  }
  const double norm_x_sq =
      estimate(cache_exact_.norm_x_sq, norm_x_sq_, cache_anchor_.norm_x_sq);
  if (norm_x_sq <= 0.0) return 0.0;
  // ‖X̃‖² = λ'(∗_m Q(m))λ over the incrementally maintained Grams.
  gram_product_.Fill(1.0);
  for (const Matrix& gram : state.grams) {
    HadamardAccumulate(gram_product_, gram);
  }
  const std::vector<double>& lambda = state.model.lambda();
  double model_norm_sq = 0.0;
  for (int64_t r = 0; r < gram_product_.rows(); ++r) {
    const double* row = gram_product_.Row(r);
    double partial = 0.0;
    for (int64_t s = 0; s < gram_product_.cols(); ++s) {
      partial += row[s] * lambda[static_cast<size_t>(s)];
    }
    model_norm_sq += lambda[static_cast<size_t>(r)] * partial;
  }
  const double inner =
      estimate(cache_exact_.inner, inner_, cache_anchor_.inner);
  const double residual_sq =
      std::max(0.0, model_norm_sq - 2.0 * inner + norm_x_sq);
  return 1.0 - std::sqrt(residual_sq) / std::sqrt(norm_x_sq);
}

FitnessAccumulators RunningFitnessTracker::ExactTerms(
    const SparseTensor& window, const CpdState& state) const {
  FitnessAccumulators exact;
  if (loss_ != nullptr) {
    exact.loss_sum = WindowLoss(window, state.model, *loss_);
    exact.baseline_sum = WindowLossBaseline(window, *loss_);
  } else {
    exact.norm_x_sq = window.FrobeniusNormSquared();
    exact.inner = state.model.InnerProduct(window);
  }
  return exact;
}

}  // namespace sns
