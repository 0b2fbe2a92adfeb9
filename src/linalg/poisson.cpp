#include "src/linalg/poisson.hpp"

#include <cmath>

#include "src/util/contracts.hpp"

namespace nvp::linalg {

PoissonTerms poisson_terms(double mean, double epsilon) {
  NVP_EXPECTS(mean >= 0.0);
  NVP_EXPECTS(epsilon > 0.0 && epsilon < 1.0);
  PoissonTerms out;
  if (mean == 0.0) {
    out.pmf = {1.0};
    out.truncation = 0;
    out.tail_mass = 0.0;
    return out;
  }

  // Work in log space around the mode to avoid underflow for large means,
  // then normalize. Truncation: extend right of the mode until the running
  // tail bound drops below epsilon.
  const auto mode = static_cast<std::size_t>(mean);
  // Generous upper bound for the support we may need.
  const std::size_t hard_cap =
      mode + 20 + static_cast<std::size_t>(10.0 * std::sqrt(mean + 10.0) +
                                           0.5 * mean);

  std::vector<double> logp(hard_cap + 1);
  // log pmf(k) = -mean + k log(mean) - log(k!)
  double log_fact = 0.0;
  for (std::size_t k = 0; k <= hard_cap; ++k) {
    if (k > 0) log_fact += std::log(static_cast<double>(k));
    logp[k] = -mean + static_cast<double>(k) * std::log(mean) - log_fact;
  }

  // Find truncation K: the first k whose neglected tail is below epsilon —
  // by the cumulative mass, or, past the mean, by the geometric bound
  // P(N > k) <= pmf(k) r / (1 - r) with r = mean / (k + 1), the largest
  // ratio pmf(j + 1) / pmf(j) beyond k. The bound is needed because with
  // an epsilon near machine precision the rounded cumulative sum may never
  // reach 1 - epsilon, and the series would run to hard_cap (52 terms
  // instead of 15 at mean 0.625, 1837 instead of 1271 at mean 1000).
  std::vector<double> pmf(hard_cap + 1);
  double cum = 0.0;
  std::size_t K = hard_cap;
  for (std::size_t k = 0; k <= hard_cap; ++k) {
    pmf[k] = std::exp(logp[k]);
    cum += pmf[k];
    const double r = mean / static_cast<double>(k + 1);
    if (cum >= 1.0 - epsilon || (r < 1.0 && pmf[k] * r / (1.0 - r) < epsilon)) {
      K = k;
      break;
    }
  }
  pmf.resize(K + 1);
  out.pmf = std::move(pmf);
  out.truncation = K;
  out.tail_mass = std::max(0.0, 1.0 - cum);
  return out;
}

}  // namespace nvp::linalg
