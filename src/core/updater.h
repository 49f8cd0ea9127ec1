// Interface every online updater implements: react to one window event
// (Problem 2 of the paper) by adjusting the factor matrices.

#ifndef SLICENSTITCH_CORE_UPDATER_H_
#define SLICENSTITCH_CORE_UPDATER_H_

#include <string_view>

#include "core/cpd_state.h"
#include "stream/event.h"
#include "tensor/sparse_tensor.h"

namespace sns {

class Rng;  // common/random.h

/// Processes window events. `window` is the live window with the delta
/// already applied, so it equals the X + ΔX of the update rules; `delta`
/// carries ΔX itself (Definition 6).
class EventUpdater {
 public:
  virtual ~EventUpdater() = default;

  /// Display name, e.g. "SNS+RND".
  virtual std::string_view name() const = 0;

  /// Updates `state` in response to one event.
  virtual void OnEvent(const SparseTensor& window, const WindowDelta& delta,
                       CpdState& state) = 0;

  /// The updater's private sampling Rng, or nullptr for deterministic
  /// updaters. Durability checkpoints save and restore it so a restored
  /// stream draws the identical θ-sample sequence.
  virtual Rng* MutableRng() { return nullptr; }
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_UPDATER_H_
