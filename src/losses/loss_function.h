// Pluggable pointwise losses for generalized CP decomposition (GCP).
//
// The Gaussian engine minimizes Σ (x_J − x̃_J)²; GCP (Hong, Kolda & Duersch;
// streamed by Phipps, Johnson & Kolda — see PAPERS.md) replaces the square
// with any twice-differentiable pointwise loss ℓ(y, θ) of the data value y
// and the model value θ = x̃_J (the natural parameter). Each loss exposes
// its value, a fused value-and-derivatives evaluation (one exponential per
// call), batch forms of both over arrays of (y, θ) (the row-update Newton
// steps in losses/gcp_row_update.h consume those) and its link function
// μ = Link(θ), the model's prediction of the data mean — the quantity the
// robust mode (losses/outlier_store.h) subtracts from an observation to
// form the residual it soft-thresholds.
//
// Poisson's exponential is the library's own e^clamp(θ, −40, 40)
// (ExpClamped and the kernel tables' exp_clamped slot,
// linalg/rank_dispatch.h), not libm's: it rounds identically on every
// kernel tier and every host, and the scalar and batch forms share it, so
// Poisson trajectories depend on neither the host's libm nor its vector
// width. Bernoulli's softplus/sigmoid still call std::exp and std::log1p,
// one scalar evaluation per cell.
//
// The catalog:
//   kGaussian       ℓ = (θ − y)²        identity link   continuous data
//   kPoisson        ℓ = e^θ − y·θ       log link        counts y ≥ 0
//   kBernoulliLogit ℓ = softplus(θ)−y·θ logistic link   binary y ∈ {0,1}
//
// Gaussian is the default and its selection leaves every engine code path
// byte-for-byte identical to the loss-unaware build (the updaters branch on
// kind() before touching any loss virtual). Implementations are stateless
// singletons — GetLossFunction hands out process-lifetime references, so a
// LossFunction pointer is cheap to store and never owned.
//
// This header sits below core/ (it includes nothing from it) so that
// core/options.h can name LossKind without an include cycle.

#ifndef SLICENSTITCH_LOSSES_LOSS_FUNCTION_H_
#define SLICENSTITCH_LOSSES_LOSS_FUNCTION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace sns {

/// Which pointwise loss the engine minimizes.
enum class LossKind : uint8_t {
  kGaussian = 0,
  kPoisson = 1,
  kBernoulliLogit = 2,
};

/// Short display name: "gaussian", "poisson", "bernoulli-logit".
std::string LossKindName(LossKind kind);

/// ℓ(y, θ) with its first two θ-derivatives, from one evaluation.
struct LossTerms {
  double value;  // ℓ(y, θ).
  double d1;     // ∂ℓ/∂θ.
  double d2;     // ∂²ℓ/∂θ², floored away from zero so Newton systems built
                 // from it stay positive definite.
};

/// One pointwise loss ℓ(y, θ): y is the observed value, θ the model value
/// x̃_J at the same cell. Stateless; obtained through GetLossFunction.
class LossFunction {
 public:
  virtual ~LossFunction() = default;

  virtual LossKind kind() const = 0;
  virtual std::string_view name() const = 0;

  /// ℓ(y, θ).
  virtual double Value(double y, double theta) const = 0;
  /// ℓ, ℓ' and ℓ'' at (y, θ), sharing one exponential. `value` equals
  /// Value(y, θ) bitwise.
  virtual LossTerms Evaluate(double y, double theta) const = 0;
  /// μ = E[y | θ]: identity (Gaussian), e^θ (Poisson), σ(θ) (Bernoulli).
  virtual double Link(double theta) const = 0;

  /// Batch Value: out[c] = Value(y[c], theta[c]) bitwise, c < count. `out`
  /// must not alias the inputs. The default loops over Value.
  virtual void ValueBatch(const double* y, const double* theta, double* out,
                          size_t count) const;
  /// Batch Evaluate: value[c], d1[c], d2[c] are Evaluate(y[c], theta[c])'s
  /// terms bitwise, c < count. The outputs must not alias the inputs or
  /// each other. The default loops over Evaluate.
  virtual void EvaluateBatch(const double* y, const double* theta,
                             double* value, double* d1, double* d2,
                             size_t count) const;
};

/// Process-lifetime singleton for `kind`. Never fails; out-of-range kinds
/// (e.g. cast from a corrupt byte) abort via SNS_CHECK in the .cpp.
const LossFunction& GetLossFunction(LossKind kind);

}  // namespace sns

#endif  // SLICENSTITCH_LOSSES_LOSS_FUNCTION_H_
