#include "core/sns_mat.h"

namespace sns {

void SnsMatUpdater::OnEvent(const SparseTensor& window,
                            const WindowDelta& delta, CpdState& state) {
  if (delta.cells.empty()) return;  // Zero-valued tuple: window unchanged.
  if (loss_ != nullptr && loss_->kind() != LossKind::kGaussian) {
    // GCP analog of Alg. 2: one damped Newton step per occupied factor row
    // instead of the least-squares sweep. λ stays 1 (absorbed at init), so
    // no column normalization; the sweep leaves the Grams stale and they
    // are refreshed here — wholesale, like the Gaussian sweep's
    // normalization path — before the next event reads them.
    GcpSweep(window, state, *loss_, gcp_ws_);
    state.RecomputeGrams();
    return;
  }
  // The maintained factors are a strong warm start, so a single ALS sweep
  // with column normalization (Alg. 2) suffices per event.
  AlsSweep(window, state, ws_);
}

}  // namespace sns
