// Differential coverage of the region where the kAuto cost model changes
// the MRGP backend: long rejuvenation intervals (lambda * tau >> 1) as well
// as short ones, on the paper 6v model and the N = 8 / 10, f = 1, r = 1
// families, with seeded perturbations of the module rates. Whatever kAuto
// picks must agree with both forced backends at 1e-10 (dense stays the
// oracle), and the pick — a pure function of the model — must not depend
// on the job count.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/analyzer.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/staged.hpp"
#include "src/core/sweep.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/petri/reachability.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/rng.hpp"

namespace nvp {
namespace {

constexpr double kIntervals[] = {10.0, 100.0, 500.0, 600.0, 1000.0, 3000.0};

struct Family {
  int n, f, r;
};
constexpr Family kFamilies[] = {{6, 1, 1}, {8, 1, 1}, {10, 1, 1}};

/// The family's paper parameters with each module rate scaled by a seeded
/// log-uniform factor in [1/2, 2].
core::SystemParameters perturbed(const Family& family, std::uint64_t seed) {
  auto params = core::SystemParameters::paper_six_version();
  params.n_versions = family.n;
  params.max_faulty = family.f;
  params.max_rejuvenating = family.r;
  util::RandomStream rng(seed);
  const auto scale = [&rng] { return std::exp2(rng.uniform(-1.0, 1.0)); };
  params.mean_time_to_compromise *= scale();
  params.mean_time_to_failure *= scale();
  params.mean_time_to_repair *= scale();
  return params;
}

markov::DspnSteadyStateResult solve(const petri::TangibleReachabilityGraph& g,
                                    const markov::AssemblyPlan& plan,
                                    markov::SolverBackend backend) {
  markov::SolverConfig config;
  config.backend = backend;
  return markov::DspnSteadyStateSolver(config).solve(g, plan);
}

double max_abs_diff(const linalg::Vector& a, const linalg::Vector& b) {
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff = std::max(diff, std::fabs(a[i] - b[i]));
  return diff;
}

TEST(DispatchDifferentialTest, AutoAgreesWithBothBackendsAcrossIntervals) {
  std::size_t dense_picks = 0, mfree_picks = 0;
  for (const Family& family : kFamilies) {
    const std::uint64_t seed = 1000u + static_cast<std::uint64_t>(family.n);
    auto params = perturbed(family, seed);
    const auto structure = core::staged_structure(params, /*use_cache=*/false);
    for (const double interval : kIntervals) {
      params.rejuvenation_interval = interval;
      const auto model = core::PerceptionModelFactory::build(params);
      const auto g = structure->graph.repoured(model.net);
      const auto& plan = structure->plan;
      const auto dense = solve(g, plan, markov::SolverBackend::kDense);
      const auto mfree = solve(g, plan, markov::SolverBackend::kMatrixFree);
      const auto kauto = solve(g, plan, markov::SolverBackend::kAuto);
      ASSERT_EQ(kauto.probabilities.size(), dense.probabilities.size());
      const auto label = ::testing::Message()
                         << "n=" << family.n << " seed " << seed
                         << " interval " << interval;
      EXPECT_LE(max_abs_diff(mfree.probabilities, dense.probabilities), 1e-10)
          << label;
      EXPECT_LE(max_abs_diff(kauto.probabilities, dense.probabilities), 1e-10)
          << label;
      EXPECT_LE(max_abs_diff(kauto.probabilities, mfree.probabilities), 1e-10)
          << label;
      // kAuto runs exactly the backend it reports.
      const auto& same =
          kauto.backend_used == markov::SolverBackend::kDense ? dense : mfree;
      EXPECT_EQ(kauto.probabilities, same.probabilities) << label;
      (kauto.backend_used == markov::SolverBackend::kDense ? dense_picks
                                                           : mfree_picks)++;
    }
  }
  // The grid straddles the crossover: both backends must be exercised.
  EXPECT_GT(dense_picks, 0u);
  EXPECT_GT(mfree_picks, 0u);
}

TEST(DispatchDifferentialTest, DecisionIsIndependentOfTheJobCount) {
  std::vector<double> values(std::begin(kIntervals), std::end(kIntervals));
  for (const Family& family : kFamilies) {
    const auto params = perturbed(family, 2000u + family.n);
    core::ReliabilityAnalyzer::Options options;
    options.use_cache = false;
    const core::ReliabilityAnalyzer analyzer(options);

    std::vector<std::vector<markov::SolverBackend>> backends;
    std::vector<std::vector<core::SweepPoint>> sweeps;
    for (const std::size_t jobs : {1u, 4u}) {
      runtime::set_default_jobs(jobs);
      std::vector<markov::SolverBackend> picked;
      for (const double interval : kIntervals) {
        auto point = params;
        point.rejuvenation_interval = interval;
        picked.push_back(analyzer.analyze(point).backend_used);
      }
      backends.push_back(picked);
      sweeps.push_back(core::sweep_parameter(
          analyzer, params, core::set_rejuvenation_interval(), values));
    }
    runtime::set_default_jobs(0);
    EXPECT_EQ(backends[0], backends[1]) << "n=" << family.n;
    ASSERT_EQ(sweeps[0].size(), sweeps[1].size());
    for (std::size_t i = 0; i < sweeps[0].size(); ++i)
      EXPECT_EQ(sweeps[0][i].expected_reliability,
                sweeps[1][i].expected_reliability)
          << "n=" << family.n << " interval " << values[i];
  }
}

}  // namespace
}  // namespace nvp
