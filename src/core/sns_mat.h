// SNS-MAT (Alg. 2): the naive extension of ALS to the continuous model —
// one full normalized ALS sweep over the whole window per event. Most
// accurate and most expensive of the family (Theorem 3).

#ifndef SLICENSTITCH_CORE_SNS_MAT_H_
#define SLICENSTITCH_CORE_SNS_MAT_H_

#include "core/als.h"
#include "core/updater.h"
#include "losses/gcp_row_update.h"

namespace sns {

class SnsMatUpdater : public EventUpdater {
 public:
  /// Non-Gaussian losses swap the per-event ALS sweep for a GCP Newton
  /// sweep (losses/gcp_row_update.h). Null or Gaussian is untouched.
  explicit SnsMatUpdater(const LossFunction* loss = nullptr) : loss_(loss) {}

  std::string_view name() const override { return "SNS-MAT"; }

  void OnEvent(const SparseTensor& window, const WindowDelta& delta,
               CpdState& state) override;

 private:
  // Reused sweep scratch: per-event sweeps allocate nothing once warm.
  AlsWorkspace ws_;
  // GCP sweep scratch; zero footprint under the Gaussian default.
  GcpRowWorkspace gcp_ws_;
  const LossFunction* loss_;
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_SNS_MAT_H_
