#include "losses/loss_function.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"

namespace sns {
namespace {

// θ clamp for the Poisson exponentials: e^±40 spans ~35 decades around 1,
// far beyond any fitted model value, while keeping e^θ, its products, and
// the Newton curvatures finite. Without it a transient blow-up row (the
// unclipped variants can produce one) would turn the whole objective into
// inf/NaN and poison the damped-step acceptance tests.
constexpr double kExpClamp = 40.0;

// Curvature floor: keeps Σ d2·h h' positive definite even where the true
// curvature vanishes (Poisson at θ → −∞, Bernoulli at |θ| → ∞), so the
// Cholesky fast path of the row solver stays usable.
constexpr double kCurvatureFloor = 1e-12;

double ClampedExp(double theta) {
  return std::exp(std::clamp(theta, -kExpClamp, kExpClamp));
}

// Numerically stable log(1 + e^θ) and σ(θ), both from e = e^−|θ| so one
// exponential serves the value and the derivatives: exact for large |θ|
// where the naive forms overflow (θ > 0) or cancel (θ < 0).
double SoftplusFrom(double theta, double e) {
  return std::max(theta, 0.0) + std::log1p(e);
}

double SigmoidFrom(double theta, double e) {
  return theta >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e);
}

double ExpNegAbs(double theta) { return std::exp(-std::abs(theta)); }

// The value terms from their exponential, shared by Value and Evaluate and
// kept out of line so both run the same instructions: inlined, an FMA
// build may contract − y·θ into a fused multiply-add in one caller but
// vectorize it unfused beside ℓ' in the other, and the GCP row step
// compares Evaluate's value against Value's.
[[gnu::noinline]] double PoissonValueFrom(double e, double y, double theta) {
  return e - y * theta;
}

[[gnu::noinline]] double BernoulliValueFrom(double e, double y,
                                            double theta) {
  return SoftplusFrom(theta, e) - y * theta;
}

class GaussianLoss final : public LossFunction {
 public:
  LossKind kind() const override { return LossKind::kGaussian; }
  std::string_view name() const override { return "gaussian"; }
  double Value(double y, double theta) const override {
    const double r = theta - y;
    return r * r;
  }
  LossTerms Evaluate(double y, double theta) const override {
    const double r = theta - y;
    return {r * r, 2.0 * r, 2.0};
  }
  double Link(double theta) const override { return theta; }
};

class PoissonLoss final : public LossFunction {
 public:
  LossKind kind() const override { return LossKind::kPoisson; }
  std::string_view name() const override { return "poisson"; }
  double Value(double y, double theta) const override {
    // Negative log-likelihood with log link, dropping the θ-free log(y!)
    // term: e^θ − y·θ.
    return PoissonValueFrom(ClampedExp(theta), y, theta);
  }
  LossTerms Evaluate(double y, double theta) const override {
    const double e = ClampedExp(theta);
    return {PoissonValueFrom(e, y, theta), e - y,
            std::max(e, kCurvatureFloor)};
  }
  double Link(double theta) const override { return ClampedExp(theta); }
};

class BernoulliLogitLoss final : public LossFunction {
 public:
  LossKind kind() const override { return LossKind::kBernoulliLogit; }
  std::string_view name() const override { return "bernoulli-logit"; }
  double Value(double y, double theta) const override {
    // Negative log-likelihood of y ∈ {0,1} under p = σ(θ):
    // log(1 + e^θ) − y·θ.
    return BernoulliValueFrom(ExpNegAbs(theta), y, theta);
  }
  LossTerms Evaluate(double y, double theta) const override {
    const double e = ExpNegAbs(theta);
    const double p = SigmoidFrom(theta, e);
    return {BernoulliValueFrom(e, y, theta), p - y,
            std::max(p * (1.0 - p), kCurvatureFloor)};
  }
  double Link(double theta) const override {
    return SigmoidFrom(theta, ExpNegAbs(theta));
  }
};

}  // namespace

std::string LossKindName(LossKind kind) {
  switch (kind) {
    case LossKind::kGaussian:
      return "gaussian";
    case LossKind::kPoisson:
      return "poisson";
    case LossKind::kBernoulliLogit:
      return "bernoulli-logit";
  }
  SNS_CHECK(false && "LossKindName: unhandled LossKind");
  return "";  // Unreachable.
}

const LossFunction& GetLossFunction(LossKind kind) {
  static const GaussianLoss gaussian;
  static const PoissonLoss poisson;
  static const BernoulliLogitLoss bernoulli;
  switch (kind) {
    case LossKind::kGaussian:
      return gaussian;
    case LossKind::kPoisson:
      return poisson;
    case LossKind::kBernoulliLogit:
      return bernoulli;
  }
  SNS_CHECK(false && "GetLossFunction: unhandled LossKind");
  return gaussian;  // Unreachable.
}

}  // namespace sns
