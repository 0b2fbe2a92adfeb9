// Matrix-free MRGP solver scaling: the headline capability of the operator
// backend, and how its crossover with dense LU moves with model size.
//
// Two series, one JSON artifact (bench_results/BENCH_mrgp_scaling.json):
//
//  * crossover — small rejuvenating families at the paper's interval solved
//    twice, dense LU vs the matrix-free operator, with the max-abs
//    difference between the two stationary vectors and the backend kAuto
//    picks. The gap widens with size (dense pays O(n^3) in the LU plus
//    O(n^3 log) in the matrix exponentials; the operator pays
//    O(iterations x terms x nnz)); bench_layers maps the crossover over the
//    interval axis too.
//
//  * scaling — the 6-version-with-rejuvenation families grown to
//    N = 40..100 (rejuvenation budget r = 4), i.e. 10^4..10^5 tangible
//    states, where the dense embedded chain would need two n^2 matrices
//    (83 GB at N = 100) and is simply not representable. Solved through
//    the default kAuto dispatch; the artifact records which backend the
//    dispatch picked and the cost-model inputs it picked from, so tests can
//    hold the routing to the published rows.
//
// tools/check_bench_regression.py --mrgp gates the machine-independent
// contract of this artifact: agreement <= 1e-10 on every crossover row,
// matrix-free never slower than dense at/above the threshold, every
// scaling row solved matrix-free with sparse storage, and the largest
// family >= 5 x 10^4 states.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "src/core/model_factory.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/markov/solver_config.hpp"
#include "src/obs/json.hpp"
#include "src/petri/reachability.hpp"

namespace {

using namespace nvp;
using Clock = std::chrono::steady_clock;

struct CrossoverRow {
  int n = 0, f = 0, r = 0;
  std::size_t states = 0;
  double dense_ms = 0.0;
  double mfree_ms = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
  std::string auto_backend;
};

struct ScalingRow {
  int n = 0, f = 0, r = 0;
  std::size_t states = 0;
  std::string backend;
  double solve_ms = 0.0;
  std::size_t stored_nonzeros = 0;
  double prob_mass_error = 0.0;
  markov::DispatchInputs dispatch;
};

core::SystemParameters family(int n, int f, int r) {
  auto params = core::SystemParameters::paper_six_version();
  params.n_versions = n;
  params.max_faulty = f;
  params.max_rejuvenating = r;
  return params;
}

petri::TangibleReachabilityGraph graph_for(const core::SystemParameters& p) {
  const auto model = core::PerceptionModelFactory::build(p);
  return petri::TangibleReachabilityGraph::build(model.net);
}

/// One timed solve; keeps the fastest time seen in `best_ms`.
markov::DspnSteadyStateResult timed_solve(
    const petri::TangibleReachabilityGraph& g, markov::SolverBackend backend,
    double& best_ms) {
  markov::SolverConfig config;
  config.backend = backend;
  const auto t0 = Clock::now();
  markov::DspnSteadyStateResult result =
      markov::DspnSteadyStateSolver(config).solve(g);
  best_ms = std::min(best_ms, std::chrono::duration<double, std::milli>(
                                  Clock::now() - t0)
                                  .count());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "mrgp_scaling",
                         "matrix-free MRGP solves: dense crossover and "
                         "10^4..10^5-state scaling");
  const bool quick = harness.args().has("quick");

  // --- Crossover: dense oracle vs matrix-free on the small families. -----
  std::vector<CrossoverRow> crossover;
  for (const auto [n, f, r] :
       {std::tuple{6, 1, 1}, {8, 1, 1}, {10, 1, 1}, {12, 1, 1}, {14, 1, 1},
        {16, 1, 1}, {11, 2, 2}, {15, 2, 2}}) {
    const auto g = graph_for(family(n, f, r));
    CrossoverRow row;
    row.n = n, row.f = f, row.r = r;
    row.states = g.size();
    // Best of five, alternating the backends so a slow spell of the
    // machine hits both alike.
    row.dense_ms = row.mfree_ms = 1e300;
    markov::DspnSteadyStateResult dense_result, mfree_result;
    for (int rep = 0; rep < 5; ++rep) {
      dense_result =
          timed_solve(g, markov::SolverBackend::kDense, row.dense_ms);
      mfree_result =
          timed_solve(g, markov::SolverBackend::kMatrixFree, row.mfree_ms);
    }
    row.speedup = row.dense_ms / row.mfree_ms;
    row.auto_backend = markov::to_string(markov::dispatch_backend(
        markov::SolverConfig{},
        markov::dispatch_inputs(g, markov::build_assembly_plan(g))));
    for (std::size_t s = 0; s < g.size(); ++s)
      row.max_abs_diff = std::max(
          row.max_abs_diff, std::fabs(dense_result.probabilities[s] -
                                      mfree_result.probabilities[s]));
    std::printf(
        "crossover n=%2d f=%d r=%d  %5zu states  dense %8.1f ms  "
        "mfree %7.1f ms  speedup %5.1fx  max|diff| %.2e  auto %s\n",
        n, f, r, row.states, row.dense_ms, row.mfree_ms, row.speedup,
        row.max_abs_diff, row.auto_backend.c_str());
    crossover.push_back(row);
  }

  // --- Scaling: N = 40..100 rejuvenating families under kAuto. -----------
  std::vector<ScalingRow> scaling;
  for (const auto [n, f, r] : {std::tuple{40, 2, 4}, {64, 2, 4}, {80, 2, 4},
                               {100, 2, 4}}) {
    if (quick && n > 64) continue;
    const auto g = graph_for(family(n, f, r));
    ScalingRow row;
    row.n = n, row.f = f, row.r = r;
    row.states = g.size();
    row.solve_ms = 1e300;  // kAuto: the dispatch under test
    const auto result =
        timed_solve(g, markov::SolverBackend::kAuto, row.solve_ms);
    row.backend = markov::to_string(result.backend_used);
    row.stored_nonzeros = result.matrix_nonzeros;
    row.dispatch = markov::dispatch_inputs(g, markov::build_assembly_plan(g));
    double mass = 0.0;
    for (const double p : result.probabilities) mass += p;
    row.prob_mass_error = std::fabs(mass - 1.0);
    std::printf(
        "scaling   n=%3d f=%d r=%d  %6zu states  %s  %9.1f ms  "
        "%8zu nnz  |mass-1| %.2e\n",
        n, f, r, row.states, row.backend.c_str(), row.solve_ms,
        row.stored_nonzeros, row.prob_mass_error);
    scaling.push_back(row);
  }

  // --- JSON artifact. ----------------------------------------------------
  obs::JsonWriter json;
  json.begin_object();
  json.kv("schema_version", 1);
  json.kv("recorded", bench::utc_date());
  json.kv("source",
          "bench_mrgp_scaling, CMAKE_BUILD_TYPE=Release");
  json.kv("note",
          "crossover rows solve each family with the dense oracle and the "
          "matrix-free operator (best of 5, alternating); auto_backend is "
          "kAuto's pick; scaling rows go through the "
          "default kAuto dispatch once. stored_nonzeros counts the "
          "operator's CSR slots (exponential rows + per-group subordinated "
          "and firing matrices); dispatch holds the cost-model inputs "
          "kAuto routed the row by.");
  json.key("crossover").begin_array();
  for (const auto& row : crossover) {
    json.begin_object();
    json.kv("n", row.n).kv("f", row.f).kv("r", row.r);
    json.kv("states", static_cast<std::uint64_t>(row.states));
    json.kv("dense_ms", row.dense_ms);
    json.kv("mfree_ms", row.mfree_ms);
    json.kv("speedup", row.speedup);
    json.kv("max_abs_diff", row.max_abs_diff);
    json.kv("auto_backend", row.auto_backend);
    json.end_object();
  }
  json.end_array();
  json.key("scaling").begin_array();
  for (const auto& row : scaling) {
    json.begin_object();
    json.kv("n", row.n).kv("f", row.f).kv("r", row.r);
    json.kv("states", static_cast<std::uint64_t>(row.states));
    json.kv("backend", row.backend);
    json.kv("solve_ms", row.solve_ms);
    json.kv("stored_nonzeros", static_cast<std::uint64_t>(row.stored_nonzeros));
    json.kv("prob_mass_error", row.prob_mass_error);
    json.key("dispatch").begin_object();
    json.kv("states", static_cast<std::uint64_t>(row.dispatch.states));
    json.key("groups").begin_array();
    for (const auto& group : row.dispatch.groups) {
      json.begin_object();
      json.kv("nonzeros", static_cast<std::uint64_t>(group.nonzeros));
      json.kv("rate_horizon", group.rate_horizon);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();

  const auto path = (bench::output_dir() / "BENCH_mrgp_scaling.json").string();
  std::ofstream out(path);
  out << json.str() << "\n";
  std::printf("[json written to %s]\n", path.c_str());
  return 0;
}
