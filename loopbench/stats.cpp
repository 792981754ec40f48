#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace loopbench {

namespace {

// Nearest rank (1-based) of the q percentile of n samples.  The epsilon
// keeps q * n = 90.000000000000014 at rank 90.
std::size_t nearest_rank(std::size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
  return n > 0 && (q <= 0.5 || samples_beyond(n, q) >= kTailSamples);
}

double highest_supported_percentile(std::size_t n) {
  if (n < 2 * kTailSamples) {
    return 0.5;
  }
  return 1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  if (!percentile_supported(values.size(), q)) {
    throw std::invalid_argument(
        "percentile: p" + std::to_string(q * 100.0) + " needs " +
        std::to_string(kTailSamples) + " samples beyond it, " +
        std::to_string(values.size()) + " samples give " +
        std::to_string(samples_beyond(values.size(), q)));
  }
  const std::size_t index = nearest_rank(values.size(), q) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Goodput::add(const SessionOutcome& outcome) {
  ++attempted_;
  wall_sec_ += outcome.wall_sec;
  if (outcome.passed) {
    good_windows_ += static_cast<double>(outcome.windows);
  } else {
    ++failed_;
  }
}

double Goodput::windows_per_sec() const {
  return wall_sec_ > 0.0 ? good_windows_ / wall_sec_ : 0.0;
}

}  // namespace loopbench
