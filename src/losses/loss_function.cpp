#include "losses/loss_function.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "linalg/rank_dispatch.h"

namespace sns {
namespace {

// Curvature floor: keeps Σ d2·h h' positive definite even where the true
// curvature vanishes (Poisson at θ → −∞, Bernoulli at |θ| → ∞), so the
// Cholesky fast path of the row solver stays usable.
constexpr double kCurvatureFloor = 1e-12;

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

// The value terms from their exponential, shared by the scalar and batch
// forms (the library builds with -ffp-contract=off, so − y·θ rounds on its
// own in every caller).
double PoissonValueFrom(double e, double y, double theta) {
  return e - y * theta;
}

double BernoulliValueFrom(double e, double y, double theta) {
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

// Poisson's exponential is ExpClamped, e^clamp(θ, −40, 40): e^±40 spans
// ~35 decades around 1, far beyond any fitted model value, while keeping
// e^θ, its products, and the Newton curvatures finite. Without the clamp a
// transient blow-up row (the unclipped variants can produce one) would turn
// the whole objective into inf/NaN and poison the damped-step acceptance
// tests. The batch forms run the process tier's exp_clamped, bitwise the
// scalar ExpClamped; the table's padded rank is irrelevant to it.
class PoissonLoss final : public LossFunction {
 public:
  LossKind kind() const override { return LossKind::kPoisson; }
  std::string_view name() const override { return "poisson"; }
  double Value(double y, double theta) const override {
    // Negative log-likelihood with log link, dropping the θ-free log(y!)
    // term: e^θ − y·θ.
    return PoissonValueFrom(ExpClamped(theta), y, theta);
  }
  LossTerms Evaluate(double y, double theta) const override {
    const double e = ExpClamped(theta);
    return {PoissonValueFrom(e, y, theta), e - y,
            std::max(e, kCurvatureFloor)};
  }
  double Link(double theta) const override { return ExpClamped(theta); }

  void ValueBatch(const double* y, const double* theta, double* out,
                  size_t count) const override {
    Exp(theta, out, count);
    for (size_t c = 0; c < count; ++c) {
      out[c] = PoissonValueFrom(out[c], y[c], theta[c]);
    }
  }
  void EvaluateBatch(const double* y, const double* theta, double* value,
                     double* d1, double* d2, size_t count) const override {
    Exp(theta, d2, count);
    for (size_t c = 0; c < count; ++c) {
      const double e = d2[c];
      value[c] = PoissonValueFrom(e, y[c], theta[c]);
      d1[c] = e - y[c];
      d2[c] = std::max(e, kCurvatureFloor);
    }
  }

 private:
  static void Exp(const double* theta, double* out, size_t count) {
    GetRankKernelTable(0).exp_clamped(theta, out,
                                      static_cast<int64_t>(count));
  }
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

void LossFunction::ValueBatch(const double* y, const double* theta,
                              double* out, size_t count) const {
  for (size_t c = 0; c < count; ++c) out[c] = Value(y[c], theta[c]);
}

void LossFunction::EvaluateBatch(const double* y, const double* theta,
                                 double* value, double* d1, double* d2,
                                 size_t count) const {
  for (size_t c = 0; c < count; ++c) {
    const LossTerms terms = Evaluate(y[c], theta[c]);
    value[c] = terms.value;
    d1[c] = terms.d1;
    d2[c] = terms.d2;
  }
}

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
