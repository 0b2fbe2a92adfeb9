#pragma once

#include <cstddef>
#include <vector>

namespace nvp::linalg {

/// Poisson probability weights for uniformization, computed stably in the
/// style of Fox & Glynn: returns pmf values P(N(lambda) = k) for
/// k = 0..truncation, where the truncation point is chosen so the neglected
/// tail mass is below `epsilon`.
struct PoissonTerms {
  std::vector<double> pmf;      // pmf[k] = P(N = k), k = 0..K
  std::size_t truncation = 0;   // K
  double tail_mass = 0.0;       // 1 - sum(pmf)
};

/// Computes truncated Poisson weights for the given mean (>= 0). For mean 0
/// returns the degenerate distribution at 0.
PoissonTerms poisson_terms(double mean, double epsilon = 1e-14);

/// poisson_terms(mean, epsilon).truncation, without allocating: the same
/// pmf recurrence and stopping rule, keeping only the running sums.
std::size_t poisson_truncation(double mean, double epsilon = 1e-14);

}  // namespace nvp::linalg
