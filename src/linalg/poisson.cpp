#include "src/linalg/poisson.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/contracts.hpp"

namespace nvp::linalg {

namespace {

/// Walks pmf(k) for k = 0, 1, ... and calls visit(pmf(k)) until the
/// neglected tail is below epsilon; returns the truncation K and, via
/// `cum`, the mass of pmf(0..K). Mean 0 is the point mass at 0.
///
/// pmf(k) is exp(log pmf(k)) with log pmf(k) = -mean + k log(mean) - log(k!),
/// computed in log space so large means do not underflow. Truncation: the
/// first k whose neglected tail is below epsilon — by the cumulative mass,
/// or, past the mean, by the geometric bound P(N > k) <= pmf(k) r / (1 - r)
/// with r = mean / (k + 1), the largest ratio pmf(j + 1) / pmf(j) beyond k.
/// The bound is needed because with an epsilon near machine precision the
/// rounded cumulative sum may never reach 1 - epsilon, and the series would
/// run to the support cap (52 terms instead of 15 at mean 0.625, 1837
/// instead of 1271 at mean 1000).
template <typename Visit>
std::size_t scan_terms(double mean, double epsilon, double& cum,
                       Visit&& visit) {
  NVP_EXPECTS(mean >= 0.0);
  NVP_EXPECTS(epsilon > 0.0 && epsilon < 1.0);
  if (mean == 0.0) {
    visit(1.0);
    cum = 1.0;
    return 0;
  }
  const auto mode = static_cast<std::size_t>(mean);
  // Generous upper bound for the support we may need.
  const std::size_t hard_cap =
      mode + 20 + static_cast<std::size_t>(10.0 * std::sqrt(mean + 10.0) +
                                           0.5 * mean);
  const double log_mean = std::log(mean);
  double log_fact = 0.0;
  cum = 0.0;
  for (std::size_t k = 0; k <= hard_cap; ++k) {
    if (k > 0) log_fact += std::log(static_cast<double>(k));
    const double pmf =
        std::exp(-mean + static_cast<double>(k) * log_mean - log_fact);
    visit(pmf);
    cum += pmf;
    const double r = mean / static_cast<double>(k + 1);
    if (cum >= 1.0 - epsilon || (r < 1.0 && pmf * r / (1.0 - r) < epsilon))
      return k;
  }
  return hard_cap;
}

}  // namespace

PoissonTerms poisson_terms(double mean, double epsilon) {
  PoissonTerms out;
  double cum = 0.0;
  out.truncation = scan_terms(mean, epsilon, cum,
                              [&](double pmf) { out.pmf.push_back(pmf); });
  out.tail_mass = std::max(0.0, 1.0 - cum);
  return out;
}

std::size_t poisson_truncation(double mean, double epsilon) {
  double cum = 0.0;
  return scan_terms(mean, epsilon, cum, [](double) {});
}

}  // namespace nvp::linalg
