#include "src/markov/dspn_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/fault/error.hpp"
#include "src/fault/injector.hpp"
#include "src/linalg/poisson.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/dtmc.hpp"
#include "src/markov/erlangization.hpp"
#include "src/markov/matrix_free.hpp"
#include "src/markov/sparse_assembly.hpp"
#include "src/markov/transient.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/contracts.hpp"

namespace nvp::markov {

using linalg::DenseMatrix;
using linalg::SparseMatrixCsr;
using linalg::Triplet;
using linalg::Vector;

namespace {

/// Normalizes the conversion-weighted stationary vector into the result.
Vector finish_stationary(Vector pi, double clamp_epsilon) {
  for (double& x : pi)
    if (x < clamp_epsilon) x = 0.0;
  const double total = linalg::sum(pi);
  if (!(total > 0.0))
    throw SolverError("DSPN solver: zero total expected cycle time");
  for (double& x : pi) x /= total;
  return pi;
}

// ---------------------------------------------------------------------------
// Dense backend: the original path — full n x n embedded chain P and
// conversion factors C, matrix-exponential doubling for the subordinated
// transients, LU (with power fallback) for the stationary vectors.

Vector solve_mrgp_dense(const petri::TangibleReachabilityGraph& g,
                        const AssemblyPlan& plan,
                        const DspnSteadyStateSolver::Options& options) {
  const std::size_t n = g.size();

  // Embedded Markov chain P over tangible states and conversion factors C:
  // C(s, j) = expected time spent in j during one regeneration period that
  // starts in s.
  DenseMatrix p(n, n, 0.0);
  DenseMatrix c(n, n, 0.0);

  // Exponential-only states: one firing ends the period.
  for (std::size_t s = 0; s < n; ++s) {
    if (!g.deterministics(s).empty()) continue;
    const double exit = g.exit_rate(s);
    NVP_ASSERT(exit > 0.0);
    for (const petri::RateEdge& e : g.exponential_edges(s))
      p(s, e.target) += e.rate / exit;
    c(s, s) = 1.0 / exit;
  }

  // Deterministic groups.
  const obs::ScopedSpan embed_span("markov.embedded_chain");
  for (const AssemblyPlan::Group& group : plan.groups) {
    const std::vector<std::size_t>& members = group.members;
    const std::vector<char>& in_set = group.in_set;
    const double tau = g.deterministics(members[0])[0].delay;
    for (std::size_t s : members)
      NVP_ASSERT(g.deterministics(s)[0].delay == tau);

    // Subordinated generator: full exponential dynamics inside the set;
    // rows of states outside the set are zero (absorbing).
    DenseMatrix q(n, n, 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      if (!in_set[s]) continue;
      for (const petri::RateEdge& e : g.exponential_edges(s)) {
        q(s, e.target) += e.rate;
        q(s, s) -= e.rate;
      }
    }

    const ExponentialPair pair = [&] {
      const obs::ScopedSpan uniform_span("markov.uniformization");
      return matrix_exponential_pair(q, tau);
    }();

    for (std::size_t s : members) {
      const double* omega_row = pair.omega.row_data(s);
      const double* sojourn_row = pair.integral.row_data(s);
      for (std::size_t u = 0; u < n; ++u) {
        const double reach = omega_row[u];
        if (reach <= 0.0) continue;
        if (in_set[u]) {
          // Still enabled at tau: the deterministic transition fires from
          // state u and switches the marking.
          for (const petri::ProbEdge& e : g.deterministics(u)[0].edges)
            p(s, e.target) += reach * e.prob;
        } else {
          // Absorbed before tau: regeneration at the moment of entering u.
          p(s, u) += reach;
        }
      }
      for (std::size_t u = 0; u < n; ++u) {
        // Sojourn credit only while the deterministic transition is
        // enabled; time after absorption belongs to the next period.
        if (in_set[u]) c(s, u) += sojourn_row[u];
      }
    }
  }

  const double row_err = max_row_sum_error(p);
  if (row_err > 1e-8)
    throw SolverError("DSPN solver: embedded chain rows are off by " +
                      std::to_string(row_err));

  const Vector nu = [&] {
    const obs::ScopedSpan stationary_span("markov.dtmc_stationary");
    return dtmc_stationary(p);
  }();

  // pi(j) proportional to sum_s nu(s) C(s, j).
  return finish_stationary(c.left_multiply(nu), options.clamp_epsilon);
}

// ---------------------------------------------------------------------------
// Sparse backend: CSR embedded chain and conversion factors assembled from
// per-row vector uniformization (one row per state that enables the
// deterministic transition, fanned out on the runtime pool), Krylov
// stationary solve.

Vector solve_mrgp_sparse(const petri::TangibleReachabilityGraph& g,
                         const AssemblyPlan& plan,
                         const DspnSteadyStateSolver::Options& options,
                         std::size_t& nonzeros_out) {
  const std::size_t n = g.size();

  std::vector<Triplet> pt;  // embedded chain P
  std::vector<Triplet> ct;  // conversion factors C

  // Exponential-only states: one firing ends the period.
  for (std::size_t s = 0; s < n; ++s) {
    if (!g.deterministics(s).empty()) continue;
    const double exit = g.exit_rate(s);
    NVP_ASSERT(exit > 0.0);
    for (const petri::RateEdge& e : g.exponential_edges(s))
      pt.push_back({s, e.target, e.rate / exit});
    ct.push_back({s, s, 1.0 / exit});
  }

  const obs::ScopedSpan embed_span("markov.embedded_chain_sparse");
  for (const AssemblyPlan::Group& group : plan.groups) {
    const std::vector<std::size_t>& members = group.members;
    const std::vector<char>& in_set = group.in_set;
    const double tau = g.deterministics(members[0])[0].delay;
    for (std::size_t s : members)
      NVP_ASSERT(g.deterministics(s)[0].delay == tau);

    const SparseMatrixCsr q =
        group.subordinated.pour(sparse_subordinated_values(g, in_set));
    const SparseUniformization uniformization = [&] {
      const obs::ScopedSpan uniform_span("markov.sparse_uniformization");
      return SparseUniformization(q, tau);
    }();

    // One omega/sojourn row per member; rows are independent, so fan them
    // out on the runtime pool (results come back in input order, keeping
    // the triplet assembly deterministic).
    const std::vector<TransientRowPair> rows = runtime::parallel_map(
        members,
        [&](const std::size_t& s) { return uniformization.row_pair(s); });

    for (std::size_t idx = 0; idx < members.size(); ++idx) {
      const std::size_t s = members[idx];
      const Vector& omega_row = rows[idx].omega;
      const Vector& sojourn_row = rows[idx].sojourn;
      for (std::size_t u = 0; u < n; ++u) {
        const double reach = omega_row[u];
        if (reach <= 0.0) continue;
        if (in_set[u]) {
          for (const petri::ProbEdge& e : g.deterministics(u)[0].edges)
            pt.push_back({s, e.target, reach * e.prob});
        } else {
          pt.push_back({s, u, reach});
        }
      }
      for (std::size_t u = 0; u < n; ++u)
        if (in_set[u] && sojourn_row[u] != 0.0)
          ct.push_back({s, u, sojourn_row[u]});
    }
  }

  const SparseMatrixCsr p(n, n, std::move(pt));
  const SparseMatrixCsr c(n, n, std::move(ct));
  nonzeros_out = p.nonzeros() + c.nonzeros();

  const double row_err = max_row_sum_error(p);
  if (row_err > 1e-8)
    throw SolverError("DSPN solver: embedded chain rows are off by " +
                      std::to_string(row_err));

  const Vector nu = [&] {
    const obs::ScopedSpan stationary_span("markov.dtmc_stationary_sparse");
    return dtmc_stationary(p, options.fallback, chain_knobs(options));
  }();

  return finish_stationary(c.left_multiply(nu), options.clamp_epsilon);
}

// ---------------------------------------------------------------------------
// Matrix-free backend: never assembles the embedded chain. The
// EmbeddedChainOperator answers x -> x P through one sparse-uniformization
// propagation per deterministic group (see matrix_free.hpp), and the
// stationary vector comes from unpreconditioned GMRES / power iteration on
// that operator.

Vector solve_mrgp_matrix_free(const petri::TangibleReachabilityGraph& g,
                              const AssemblyPlan& plan,
                              const DspnSteadyStateSolver::Options& options,
                              std::size_t& nonzeros_out) {
  const std::size_t n = g.size();

  const obs::ScopedSpan embed_span("markov.embedded_chain_mfree");
  const EmbeddedChainOperator chain(g, plan);
  nonzeros_out = chain.stored_nonzeros();

  const BalanceOperator balance(chain);
  const TransferOperator transfer(chain);
  Vector rhs(n, 0.0);
  rhs[n - 1] = 1.0;

  StationaryProblem problem;
  problem.rhs = &rhs;
  problem.balance_op = &balance;
  problem.transfer_op = &transfer;
  problem.states = n;
  problem.what = "matrix-free MRGP stationary solve";

  // Only the operator-capable rungs can run here; keep their configured
  // order and make sure the mfree stage leads when the user's chain never
  // mentions it (the default chain predates the stage).
  FallbackOptions mfree_chain = options.fallback;
  mfree_chain.stages.clear();
  for (const FallbackStage stage : options.fallback.stages)
    if (stage == FallbackStage::kMatrixFree ||
        stage == FallbackStage::kPowerIteration)
      mfree_chain.stages.push_back(stage);
  if (std::find(mfree_chain.stages.begin(), mfree_chain.stages.end(),
                FallbackStage::kMatrixFree) == mfree_chain.stages.end())
    mfree_chain.stages.insert(mfree_chain.stages.begin(),
                              FallbackStage::kMatrixFree);

  const Vector nu = [&] {
    const obs::ScopedSpan stationary_span("markov.dtmc_stationary_mfree");
    return solve_stationary_chain(problem, mfree_chain, chain_knobs(options));
  }();

  return finish_stationary(chain.conversion_apply(nu), options.clamp_epsilon);
}

const char* backend_span(SolverBackend backend) {
  switch (backend) {
    case SolverBackend::kSparse:
      return "markov.solve.sparse";
    case SolverBackend::kMatrixFree:
      return "markov.solve.mfree";
    default:
      return "markov.solve.dense";
  }
}

}  // namespace

DispatchInputs dispatch_inputs(const petri::TangibleReachabilityGraph& g,
                               const AssemblyPlan& plan) {
  DispatchInputs inputs;
  inputs.states = g.size();
  inputs.has_deterministic = plan.has_deterministic;
  inputs.groups.reserve(plan.groups.size());
  for (const AssemblyPlan::Group& group : plan.groups) {
    DispatchInputs::Group entry;
    double lambda = 0.0;
    for (std::size_t s : group.members) {
      // Self-loops cancel on the subordinated diagonal, so they neither
      // store a slot nor raise the uniformization rate.
      double exit = 0.0;
      for (const petri::RateEdge& e : g.exponential_edges(s)) {
        if (e.target == s) continue;
        exit += e.rate;
        ++entry.nonzeros;
      }
      if (!g.exponential_edges(s).empty()) ++entry.nonzeros;  // diagonal
      lambda = std::max(lambda, exit);
    }
    entry.rate_horizon =
        lambda * g.deterministics(group.members[0])[0].delay;
    inputs.groups.push_back(entry);
  }
  return inputs;
}

namespace {

// Cost-model constants, a least-squares fit in log space to the cells of
// bench_layers' grid where neither backend wins by more than 5x — the
// cells the choice can get wrong (Release, one thread;
// bench_results/BENCH_layers.json). Each dense product costs n^3 flops
// plus an O(n^2) pass; the operator's GMRES iteration count grows with n
// and falls with the horizon, which the two exponents carry.
constexpr double kDenseSecondsPerFlop = 1.6e-10;
constexpr double kDensePerProductOverhead = 20.0;  // in n^2 units
constexpr double kMfreeSecondsPerSlot = 1.3e-8;
constexpr double kMfreeStatesExponent = 0.2;
constexpr double kMfreeHorizonExponent = -0.2;

/// Doublings matrix_exponential_pair runs for a Poisson mean, and the
/// Poisson mean of its base step.
std::pair<double, double> doubling_schedule(double rate_horizon) {
  int doublings = 0;
  double base = rate_horizon;
  while (base > 1.0) {
    base /= 2.0;
    ++doublings;
  }
  return {static_cast<double>(doublings), base};
}

}  // namespace

MrgpCostEstimate estimate_mrgp_costs(const DispatchInputs& inputs,
                                     std::size_t dense_limit) {
  const double n = static_cast<double>(inputs.states);
  MrgpCostEstimate estimate;

  if (inputs.states > dense_limit) {
    estimate.dense_seconds = std::numeric_limits<double>::infinity();
  } else {
    double products = 1.0;  // the LU factorization
    for (const DispatchInputs::Group& group : inputs.groups) {
      if (!(group.rate_horizon > 0.0)) continue;
      const auto [doublings, base] = doubling_schedule(group.rate_horizon);
      products +=
          static_cast<double>(linalg::poisson_truncation(base, 1e-16)) +
          2.0 * doublings;
    }
    estimate.dense_seconds = kDenseSecondsPerFlop *
                             (n * n * n + kDensePerProductOverhead * n * n) *
                             products;
  }

  double horizon = 0.0;
  for (const DispatchInputs::Group& group : inputs.groups)
    horizon = std::max(horizon, group.rate_horizon);
  const double per_slot = kMfreeSecondsPerSlot *
                          std::pow(n, kMfreeStatesExponent) *
                          std::pow(1.0 + horizon, kMfreeHorizonExponent);
  // Operator slots per application, with each truncation depth first
  // replaced by its lower bound (K >= rate_horizon). The exact depths cost
  // time linear in rate_horizon to compute, so they are only
  // computed when the choice can hinge on them: never above the dense
  // limit, nor when even the lower bound loses to dense (which bounds
  // rate_horizon by the dense solve's own cost).
  const auto slots = [&](bool exact) {
    double total = n;
    for (const DispatchInputs::Group& group : inputs.groups) {
      double terms = group.rate_horizon;
      if (exact && group.rate_horizon > 0.0)
        terms = static_cast<double>(
            linalg::poisson_truncation(group.rate_horizon, 1e-16));
      total += (terms + 1.0) * (static_cast<double>(group.nonzeros) + 2.0 * n);
    }
    return total;
  };
  estimate.matrix_free_seconds = per_slot * slots(false);
  if (estimate.matrix_free_seconds < estimate.dense_seconds &&
      std::isfinite(estimate.dense_seconds))
    estimate.matrix_free_seconds = per_slot * slots(true);
  return estimate;
}

SolverBackend dispatch_backend(const SolverConfig& config,
                               const DispatchInputs& inputs) {
  if (config.backend != SolverBackend::kAuto) return config.backend;
  if (!inputs.has_deterministic)
    return inputs.states >= config.sparse_threshold ? SolverBackend::kSparse
                                                    : SolverBackend::kDense;
  // MRGP: the explicit embedded chain is near-dense, so the explicit-sparse
  // assembly never wins — kAuto chooses between the dense oracle and the
  // matrix-free operator by predicted cost.
  const MrgpCostEstimate cost =
      estimate_mrgp_costs(inputs, config.dense_retry_limit);
  return cost.matrix_free_seconds < cost.dense_seconds
             ? SolverBackend::kMatrixFree
             : SolverBackend::kDense;
}

AssemblyPlan build_assembly_plan(const petri::TangibleReachabilityGraph& g) {
  static obs::Counter& plans =
      obs::Registry::global().counter("markov.assembly.plan_builds");
  const obs::ScopedSpan span("markov.assembly_plan");
  plans.add();

  AssemblyPlan plan;
  plan.states = g.size();
  plan.has_deterministic = g.has_deterministic();
  if (!plan.has_deterministic) {
    plan.generator = sparse_generator_pattern(g);
    return plan;
  }

  // Group states by the deterministic transition they enable; std::map
  // iteration gives the transition-index order the fused solver used.
  std::map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t s = 0; s < g.size(); ++s)
    if (!g.deterministics(s).empty())
      groups[g.deterministics(s)[0].transition].push_back(s);

  plan.groups.reserve(groups.size());
  for (auto& [transition, members] : groups) {
    AssemblyPlan::Group group;
    group.transition = transition;
    group.in_set.assign(g.size(), 0);
    for (std::size_t s : members) group.in_set[s] = 1;
    group.subordinated = sparse_subordinated_pattern(g, group.in_set);
    group.members = std::move(members);
    plan.groups.push_back(std::move(group));
  }
  return plan;
}

DspnSteadyStateResult DspnSteadyStateSolver::solve(
    const petri::TangibleReachabilityGraph& g) const {
  return solve(g, build_assembly_plan(g));
}

DspnSteadyStateResult DspnSteadyStateSolver::solve(
    const petri::TangibleReachabilityGraph& g, const AssemblyPlan& plan) const {
  const std::size_t n = g.size();
  NVP_EXPECTS(n > 0);
  NVP_EXPECTS(plan.states == n);
  NVP_EXPECTS(plan.has_deterministic == g.has_deterministic());

  if (fault::fire(fault::Site::kAlloc)) {
    fault::Context context;
    context.site = "markov.solver";
    context.states = n;
    context.detail = "injected";
    throw SolverError("DSPN solver: injected matrix-allocation failure",
                      fault::Category::kResource, std::move(context));
  }

  DspnSteadyStateResult result;
  result.states = n;
  result.backend_used = options_.backend == SolverBackend::kAuto
                            ? dispatch_backend(options_, dispatch_inputs(g, plan))
                            : options_.backend;

  static obs::Counter& ctmc_solves =
      obs::Registry::global().counter("markov.solver.ctmc_solves");
  static obs::Counter& mrgp_solves =
      obs::Registry::global().counter("markov.solver.mrgp_solves");
  static obs::Counter& dense_solves =
      obs::Registry::global().counter("markov.solver.dense_solves");
  static obs::Counter& sparse_solves =
      obs::Registry::global().counter("markov.solver.sparse_solves");
  static obs::Counter& mfree_solves =
      obs::Registry::global().counter("markov.solver.mfree_solves");
  static obs::Histogram& states_hist =
      obs::Registry::global().histogram("markov.solver.states");
  static obs::Histogram& nnz_hist =
      obs::Registry::global().histogram("markov.solver.matrix_nonzeros");
  const auto backend_counter = [&](SolverBackend backend) -> obs::Counter& {
    switch (backend) {
      case SolverBackend::kSparse:
        return sparse_solves;
      case SolverBackend::kMatrixFree:
        return mfree_solves;
      default:
        return dense_solves;
    }
  };
  const obs::ScopedSpan span(backend_span(result.backend_used));
  states_hist.observe(static_cast<double>(n));
  backend_counter(result.backend_used).add();

  if (!g.has_deterministic()) {
    ctmc_solves.add();
    result.pure_ctmc = true;
  } else {
    mrgp_solves.add();
    // Sanity: at most one deterministic transition enabled per marking, and
    // no fully absorbing tangible state.
    for (std::size_t s = 0; s < n; ++s) {
      if (g.deterministics(s).size() > 1)
        throw SolverError(
            "DSPN solver: marking " + petri::to_string(g.marking(s)) +
            " enables " + std::to_string(g.deterministics(s).size()) +
            " deterministic transitions (at most one is supported)");
      if (g.deterministics(s).empty() && g.exponential_edges(s).empty())
        throw SolverError("DSPN solver: absorbing tangible marking " +
                          petri::to_string(g.marking(s)) +
                          " has no stationary distribution");
    }
  }

  const auto solve_with = [&](SolverBackend backend) {
    if (result.pure_ctmc) {
      if (backend == SolverBackend::kDense) {
        result.matrix_nonzeros = n * n;
        const Ctmc chain = Ctmc::from_graph(g);
        const obs::ScopedSpan ctmc_span("markov.ctmc_steady_state");
        result.probabilities =
            ctmc_steady_state(chain.generator, options_.ctmc_method);
      } else {
        // kSparse and kMatrixFree share the CSR assembly for pure CTMCs:
        // the generator is genuinely sparse, so there is nothing for an
        // operator to avoid materializing (the mfree *fallback stage*
        // still runs matrix-free Krylov over it when configured).
        const SparseMatrixCsr q =
            plan.generator.pour(sparse_generator_values(g));
        result.matrix_nonzeros = q.nonzeros();
        const obs::ScopedSpan ctmc_span("markov.ctmc_steady_state_sparse");
        result.probabilities = ctmc_steady_state_sparse(q, options_);
      }
    } else if (backend == SolverBackend::kMatrixFree) {
      result.probabilities =
          solve_mrgp_matrix_free(g, plan, options_, result.matrix_nonzeros);
    } else if (backend == SolverBackend::kSparse) {
      result.probabilities =
          solve_mrgp_sparse(g, plan, options_, result.matrix_nonzeros);
    } else {
      result.matrix_nonzeros = 2 * n * n;  // the dense P and C
      result.probabilities = solve_mrgp_dense(g, plan, options_);
    }
  };

  const SolverBackend primary = result.backend_used;
  if (primary == SolverBackend::kDense) {
    solve_with(primary);
  } else {
    try {
      solve_with(primary);
    } catch (const std::exception& primary_error) {
      // Whole-solve degradation: if the chain keeps the dense oracle as its
      // last resort and the model is small enough to densify, rebuild on
      // the dense backend before giving up.
      const auto& stages = options_.fallback.stages;
      if (std::find(stages.begin(), stages.end(), FallbackStage::kDenseLu) ==
              stages.end() ||
          n > options_.dense_retry_limit)
        throw;
      static obs::Counter& backend_fallbacks =
          obs::Registry::global().counter("markov.solver.backend_fallbacks");
      backend_fallbacks.add();
      dense_solves.add();
      const char* primary_name = to_string(primary);
      result.backend_used = SolverBackend::kDense;
      try {
        const obs::ScopedSpan retry_span("markov.solve.backend_fallback");
        solve_with(SolverBackend::kDense);
      } catch (const std::exception& dense_error) {
        fault::Context context;
        context.site = "markov.solver";
        context.states = n;
        context.causes = {
            std::string(primary_name) + ": " + primary_error.what(),
            std::string("dense: ") + dense_error.what()};
        throw SolverError(
            "DSPN solver: " + std::string(primary_name) +
                " backend failed and the dense retry failed",
            fault::category_of(dense_error), std::move(context));
      }
    }
  }

  // Optional independent cross-check: re-solve through Erlangization and
  // record the disagreement. Shares no transient machinery with any of the
  // backends above, so a systematic bug in either shows up here.
  if (options_.erlang_stages > 0 && !result.pure_ctmc) {
    static obs::Histogram& deviation_hist = obs::Registry::global().histogram(
        "markov.erlang.crosscheck_deviation");
    const obs::ScopedSpan check_span("markov.erlang.crosscheck");
    const Vector erlang =
        erlangization_stationary(g, plan, options_.erlang_stages, options_);
    double deviation = 0.0;
    for (std::size_t s = 0; s < n; ++s)
      deviation =
          std::max(deviation, std::fabs(erlang[s] - result.probabilities[s]));
    deviation_hist.observe(deviation);
  }

  nnz_hist.observe(static_cast<double>(result.matrix_nonzeros));
  return result;
}

}  // namespace nvp::markov
