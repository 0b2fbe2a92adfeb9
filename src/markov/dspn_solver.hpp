#pragma once

#include "src/linalg/dense_matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/ctmc.hpp"
#include "src/markov/solver_config.hpp"
#include "src/petri/reachability.hpp"

namespace nvp::markov {

/// Rate-independent skeleton of the solver's matrix assembly for one
/// reachability-graph structure: the deterministic-group partition (which
/// states enable which deterministic transition) and the CSR slot patterns
/// of the sparse generators. Building it costs one pass over the edges plus
/// the pattern sorts; solving with a cached plan skips exactly that work.
/// A plan is valid for any graph repoured() from the structure it was built
/// on — the edge topology, and hence every pattern and group, is identical.
struct AssemblyPlan {
  std::size_t states = 0;
  bool has_deterministic = false;
  /// Pure-CTMC structures only: slot pattern of sparse_generator().
  linalg::CsrPattern generator;

  /// One deterministic transition and the states that enable it; all
  /// members share the subordinated generator, delay, and transient.
  struct Group {
    std::size_t transition = 0;
    std::vector<std::size_t> members;
    std::vector<char> in_set;  ///< membership mask over all states
    linalg::CsrPattern subordinated;
  };
  /// Ordered by deterministic transition index (the iteration order the
  /// fused solver used).
  std::vector<Group> groups;
};

/// Builds the assembly plan of a graph's structure.
AssemblyPlan build_assembly_plan(const petri::TangibleReachabilityGraph& g);

/// Result of a stationary DSPN analysis.
struct DspnSteadyStateResult {
  /// Stationary probability of each tangible marking.
  linalg::Vector probabilities;
  /// True if the model degenerated to a plain CTMC (no deterministic
  /// transition enabled anywhere).
  bool pure_ctmc = false;
  /// Number of tangible states.
  std::size_t states = 0;
  /// The backend that actually solved (kDense or kSparse, never kAuto).
  SolverBackend backend_used = SolverBackend::kDense;
  /// Stored nonzeros of the solver's main matrices — embedded chain +
  /// conversion factors for the MRGP path, the generator for the pure-CTMC
  /// path. The dense backend reports its full n^2 allocations, so
  /// sparse-vs-dense memory is directly comparable.
  std::size_t matrix_nonzeros = 0;
};

/// Stationary solver for DSPNs under the classical restriction that at most
/// one deterministic transition is enabled in any tangible marking
/// (Ajmone Marsan & Chiola; Lindemann; German). Implements the method of the
/// embedded Markov chain over regeneration points:
///
///  * In a tangible marking without an enabled deterministic transition the
///    regeneration period is the (exponential) sojourn; the embedded-chain
///    row is the usual competing-exponentials distribution.
///  * In a marking that enables deterministic transition d (constant delay
///    tau, enabling-memory policy), the subordinated CTMC runs over the
///    exponential transitions for up to tau time units. States in which d is
///    no longer enabled are absorbing: entering one resets d's timer and is
///    itself a regeneration point. If the process survives in the enabling
///    set until tau, d fires and the marking switches according to the
///    (vanishing-eliminated) firing distribution.
///
/// The transient quantities exp(Q_d tau) and \int_0^tau exp(Q_d t) dt are
/// computed by uniformization with doubling (see transient.hpp) once per
/// deterministic transition and shared by all starting states, and the
/// stationary distribution follows from the embedded chain's stationary
/// vector weighted by expected sojourn (conversion) factors.
///
/// Nets with no deterministic transition are solved directly as CTMCs, so
/// this is the single entry point used by the reliability analyzer for both
/// paper models.
///
/// Three backends implement the same mathematics (Options::backend): the
/// original dense path (LU + matrix-exponential doubling, the oracle), a
/// sparse path (CSR assembly from the reachability graph, per-row vector
/// uniformization fanned out on the runtime pool, Krylov stationary
/// solves), and a matrix-free path that never assembles the embedded chain
/// (see matrix_free.hpp). kAuto picks by model class and a cost model of
/// the two MRGP backends — see dispatch_backend().
class DspnSteadyStateSolver {
 public:
  /// All solver knobs now live in the shared markov::SolverConfig value
  /// type (one canonical hash for cache and coalescing keys); the alias
  /// keeps the historic DspnSteadyStateSolver::Options spelling working.
  using Options = SolverConfig;

  DspnSteadyStateSolver() = default;
  explicit DspnSteadyStateSolver(Options options) : options_(options) {}

  /// Computes the stationary distribution over tangible markings.
  /// Throws SolverError if a tangible marking enables two or more
  /// deterministic transitions, or if a state is absorbing.
  DspnSteadyStateResult solve(const petri::TangibleReachabilityGraph& g) const;

  /// Same computation with a prebuilt (typically cached) assembly plan for
  /// the graph's structure, skipping the group partition and the CSR
  /// pattern sorts. Bit-identical to solve(g); the plan must come from
  /// build_assembly_plan() on this graph or on any graph sharing its
  /// structure (repoured() copies).
  DspnSteadyStateResult solve(const petri::TangibleReachabilityGraph& g,
                              const AssemblyPlan& plan) const;

 private:
  Options options_{};
};

/// What the kAuto cost model reads of a model. Every field is a pure
/// function of the graph and its rates — never of measured time — so a
/// dispatch decision is reproducible across runs, job counts, processes and
/// the staged/cold paths. dispatch_inputs() fills it in O(edges).
struct DispatchInputs {
  std::size_t states = 0;
  bool has_deterministic = false;
  /// One entry per deterministic group (empty for pure CTMCs).
  struct Group {
    /// Stored nonzeros of the group's subordinated generator Q_d (its
    /// members' off-diagonal rates plus one diagonal slot each).
    std::size_t nonzeros = 0;
    /// Poisson mean lambda_d * tau_d of the group's uniformization: the
    /// largest member exit rate times the deterministic delay. The
    /// matrix-free propagation runs poisson_truncation(rate_horizon) terms
    /// per application (EmbeddedChainOperator::max_truncation()); the
    /// dense matrix exponential needs about log2(rate_horizon) doublings.
    double rate_horizon = 0.0;
  };
  std::vector<Group> groups;
};

/// The cost-model inputs of a graph and its assembly plan.
DispatchInputs dispatch_inputs(const petri::TangibleReachabilityGraph& g,
                               const AssemblyPlan& plan);

/// Predicted wall-clock seconds of one MRGP stationary solve on the dense
/// and on the matrix-free backend (single thread, Release build), fit to
/// bench_layers' grid (bench_results/BENCH_layers.json):
///
///   dense = b_d * (n^3 + 20 n^2) * (1 + sum_g (B_g + 2 D_g))
///   mfree = b_m * n^0.2 * (1 + max_g lt_g)^-0.2
///               * (n + sum_g (K_g + 1) * (nnz_g + 2 n))
///
/// where lt_g is the group's rate_horizon, D_g the number of halvings that
/// bring it to <= 1, B_g the Poisson terms of that base step, and K_g the
/// group's truncation depth. Dense pays the LU and one n x n product per
/// base term and two per doubling; the operator pays one sparse
/// propagation of K_g terms per group per Krylov iteration, and the
/// iteration count grows with n and falls with the horizon. Above
/// `dense_limit` states the dense estimate is +infinity. K_g is computed
/// only when dense is finite and its lower bound lt_g does not already
/// price the operator out; otherwise matrix_free_seconds holds the
/// lower-bound estimate.
struct MrgpCostEstimate {
  double dense_seconds = 0.0;
  double matrix_free_seconds = 0.0;
};
MrgpCostEstimate estimate_mrgp_costs(const DispatchInputs& inputs,
                                     std::size_t dense_limit);

/// The backend a config resolves to (never kAuto): an explicit backend
/// wins. For pure CTMCs kAuto picks kSparse at or above sparse_threshold
/// states (their generators are O(n) sparse) and dense below. For MRGPs it
/// picks whichever of dense and matrix-free the cost model predicts faster,
/// never dense above dense_retry_limit states; the explicit-sparse MRGP
/// assembly (its embedded chain is near-dense) is reachable only when
/// forced.
SolverBackend dispatch_backend(const SolverConfig& config,
                               const DispatchInputs& inputs);

}  // namespace nvp::markov
