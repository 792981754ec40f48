#include "emap/ml/mlp.hpp"

#include <cmath>
#include <numeric>

#include "emap/common/error.hpp"
#include "emap/common/rng.hpp"

namespace emap::ml {
namespace {

double sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

Mlp::Mlp(MlpConfig config) : config_(config) {
  require(config_.hidden_units >= 1, "Mlp: need at least one hidden unit");
  require(config_.learning_rate > 0.0, "Mlp: bad learning rate");
  require(config_.epochs > 0, "Mlp: bad epochs");
  require(config_.batch_size > 0, "Mlp: bad batch size");
}

void Mlp::fit(const std::vector<FeatureVector>& rows,
              const std::vector<int>& labels) {
  require(!rows.empty(), "Mlp::fit: empty data");
  require(rows.size() == labels.size(), "Mlp::fit: size mismatch");

  const std::size_t hidden = config_.hidden_units;
  Rng rng(config_.seed);
  // Xavier-ish init.
  const double scale = 1.0 / std::sqrt(static_cast<double>(kFeatureCount));
  w1_.assign(hidden * kFeatureCount, 0.0);
  for (double& w : w1_) {
    w = rng.normal(0.0, scale);
  }
  b1_.assign(hidden, 0.0);
  w2_.assign(hidden, 0.0);
  const double out_scale = 1.0 / std::sqrt(static_cast<double>(hidden));
  for (double& w : w2_) {
    w = rng.normal(0.0, out_scale);
  }
  b2_ = 0.0;

  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> activation(hidden, 0.0);
  std::vector<double> grad_w1(hidden * kFeatureCount, 0.0);
  std::vector<double> grad_b1(hidden, 0.0);
  std::vector<double> grad_w2(hidden, 0.0);

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    const double lr =
        config_.learning_rate / (1.0 + 0.005 * static_cast<double>(epoch));

    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + config_.batch_size);
      grad_w1.assign(grad_w1.size(), 0.0);
      grad_b1.assign(grad_b1.size(), 0.0);
      grad_w2.assign(grad_w2.size(), 0.0);
      double grad_b2 = 0.0;

      for (std::size_t k = start; k < end; ++k) {
        const auto& row = rows[order[k]];
        const double target = static_cast<double>(labels[order[k]]);
        // Forward.
        double z_out = b2_;
        for (std::size_t h = 0; h < hidden; ++h) {
          double z = b1_[h];
          for (std::size_t j = 0; j < kFeatureCount; ++j) {
            z += w1_[h * kFeatureCount + j] * row[j];
          }
          activation[h] = std::tanh(z);
          z_out += w2_[h] * activation[h];
        }
        const double error = sigmoid(z_out) - target;  // dL/dz_out
        // Backward.
        grad_b2 += error;
        for (std::size_t h = 0; h < hidden; ++h) {
          grad_w2[h] += error * activation[h];
          const double delta =
              error * w2_[h] * (1.0 - activation[h] * activation[h]);
          grad_b1[h] += delta;
          for (std::size_t j = 0; j < kFeatureCount; ++j) {
            grad_w1[h * kFeatureCount + j] += delta * row[j];
          }
        }
      }

      const double step = lr / static_cast<double>(end - start);
      for (std::size_t idx = 0; idx < w1_.size(); ++idx) {
        w1_[idx] -= step * (grad_w1[idx] + config_.l2 * w1_[idx]);
      }
      for (std::size_t h = 0; h < hidden; ++h) {
        b1_[h] -= step * grad_b1[h];
        w2_[h] -= step * (grad_w2[h] + config_.l2 * w2_[h]);
      }
      b2_ -= step * grad_b2;
    }
  }
  trained_ = true;
}

double Mlp::predict_proba(const FeatureVector& row) const {
  require(trained_, "Mlp::predict_proba: not trained");
  const std::size_t hidden = config_.hidden_units;
  double z_out = b2_;
  for (std::size_t h = 0; h < hidden; ++h) {
    double z = b1_[h];
    for (std::size_t j = 0; j < kFeatureCount; ++j) {
      z += w1_[h * kFeatureCount + j] * row[j];
    }
    z_out += w2_[h] * std::tanh(z);
  }
  return sigmoid(z_out);
}

int Mlp::predict(const FeatureVector& row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

}  // namespace emap::ml
