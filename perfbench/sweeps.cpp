// interval_sweep_6v and mttc_sweep_n40: cold parameter sweeps through
// core::Engine::sweep at the default configuration.
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "layers.hpp"
#include "src/core/engine.hpp"
#include "src/core/staged.hpp"
#include "src/markov/erlangization.hpp"
#include "src/runtime/thread_pool.hpp"

namespace perfbench {
namespace {

using nvp::core::Engine;
using nvp::core::SystemParameters;

struct SweepSpec {
  const char* name;
  SystemParameters params;
  nvp::core::ParameterSetter setter;
  std::vector<double> values;
  int setup_repeats;
};

/// Runs the workload; `expected` gets the last sweep's E[R_sys] per point.
Outcome run_sweep(const Args& args, const SweepSpec& spec,
                  std::vector<double>* expected) {
  Outcome out;
  double structure_s = 0.0;
  std::size_t states = 0;
  const double setup_s =
      cold_setup(spec.params, spec.setup_repeats, &structure_s, &states);

  const Engine engine;
  std::vector<nvp::core::SweepPoint> last;
  std::vector<double> sweep_walls;
  StageTally tally;
  // One round: a cold sweep (every stage cache dropped first).
  auto round = [&] {
    nvp::core::clear_stage_caches();
    const auto t0 = Clock::now();
    {
      Trace::Op op(trace(), "bench.core::Engine::sweep");
      last = engine.sweep(spec.params, spec.setter, spec.values);
    }
    sweep_walls.push_back(seconds_between(t0, Clock::now()));
    tally.add(nvp::core::stage_cache_stats());
    out.attempted += last.size();
    for (const auto& p : last) out.failed += p.ok ? 0 : 1;
  };
  std::size_t rounds = 0;
  const auto start = Clock::now();
  do round(), ++rounds;
  while (seconds_between(start, Clock::now()) <
         (args.trace ? args.seconds / 2 : args.seconds));
  double wall = 0.0;
  for (double w : sweep_walls) wall += w;

  if (!args.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    out.set("throughput_per_s", double(out.attempted) / wall, "1/s");
    out.set("latency_p50_ms", median(sweep_walls) * 1e3, "ms");
  } else {
    // The same number of sweeps again, traced.
    sweep_walls.clear();
    tally = {};
    const Counters before;
    trace().enable();
    for (std::size_t i = 0; i < rounds; ++i) round();
    const Counters after;
    double traced_wall = 0.0;
    for (double w : sweep_walls) traced_wall += w;
    LayerInputs in;
    in.structure_ms = structure_s * 1e3;
    in.tangible_states = double(states);
    in.trace_overhead = traced_wall / wall;
    in.parallel_efficiency =
        trace().total("core.analyze") /
        (double(nvp::runtime::default_jobs()) * traced_wall);
    set_layer_metrics(out, in, before, after, tally);
    trace().write(args.out_dir + "/trace-" + spec.name + ".jsonl");
  }

  // Per-point views for the checks: after the last round every point is in
  // the whole-result cache, so these are lookups, not solves.
  std::vector<nvp::core::AnalysisResult> results(spec.values.size());
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    SystemParameters p = spec.params;
    spec.setter(p, spec.values[i]);
    results[i] = engine.analyze_raw(p);
  }
  for (const auto& p : last) expected->push_back(p.expected_reliability);
  out.checks.push_back({"sweep_matches_analyze", [=](bool perturb) {
    for (std::size_t i = 0; i < last.size(); ++i)
      if (!last[i].ok || last[i].expected_reliability !=
                             results[i].expected_reliability +
                                 (perturb ? 1e-15 : 0.0))
        return false;
    return true;
  }});
  const double mass_tol = 1e-12;
  out.checks.push_back({"class_mass", [=](bool perturb) {
    for (const auto& r : results) {
      double sum = 0.0;
      for (const auto& c : r.state_distribution) {
        if (!(c.probability >= 0.0)) return false;
        sum += c.probability;
      }
      if (std::fabs(sum - (perturb ? 1.0 + 10 * mass_tol : 1.0)) > mass_tol)
        return false;
    }
    return true;
  }});
  return out;
}

/// E[R_sys] of a tangible-state distribution under the default reward
/// model (paper-verbatim table, operational states only).
double reliability_of(const nvp::core::StructureArtifact& s,
                      const std::vector<double>& table,
                      const std::vector<double>& pi) {
  double e = 0.0;
  for (std::size_t i = 0; i < pi.size(); ++i) {
    const auto& sc = s.state_class[i];
    if (sc.down == 0 && sc.voter_up) e += pi[i] * table[s.class_of_state[i]];
  }
  return e;
}

}  // namespace

Outcome run_interval_sweep_6v(const Args& args) {
  SweepSpec spec{"interval_sweep_6v", SystemParameters::paper_six_version(),
                 nvp::core::set_rejuvenation_interval(), {}, 101};
  // 200 points over [100, 3000] s; each point moved by up to one second
  // (inward at the ends) from the even grid, drawn from the seed.
  Rng rng(args.seed, 1);
  const std::size_t n = 200;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 100.0 + 2900.0 * double(i) / double(n - 1);
    spec.values.push_back(i + 1 == n ? x - rng.uniform() : x + rng.uniform());
  }
  std::vector<double> swept;
  Outcome out = run_sweep(args, spec, &swept);

  // Dense-LU oracle of every point, through the same sweep entry point.
  nvp::core::ReliabilityAnalyzer::Options dense;
  dense.solver.backend = nvp::markov::SolverBackend::kDense;
  dense.use_cache = false;
  const auto oracle =
      Engine(dense).sweep(spec.params, spec.setter, spec.values);
  out.checks.push_back({"dense_oracle_1e-9", [=](bool perturb) {
    for (std::size_t i = 0; i < oracle.size(); ++i)
      if (!oracle[i].ok ||
          std::fabs(swept[i] - oracle[i].expected_reliability -
                    (perturb ? 2e-9 : 0.0)) > 1e-9)
        return false;
    return true;
  }});
  const double paper_6v =
      Engine().analyze_raw(SystemParameters::paper_six_version())
          .expected_reliability;
  out.checks.push_back({"paper_6v_0.5pct", [=](bool perturb) {
    const double reference = 0.93464665 * (perturb ? 1.01 : 1.0);
    return std::fabs(paper_6v - reference) <= 0.005 * reference;
  }});
  return out;
}

Outcome run_mttc_sweep_n40(const Args& args) {
  SystemParameters params = SystemParameters::paper_six_version();
  params.n_versions = 40;
  params.max_faulty = 2;
  params.max_rejuvenating = 4;
  SweepSpec spec{"mttc_sweep_n40", params,
                 nvp::core::set_mean_time_to_compromise(), {}, 11};
  // Four MTTC points, one in each quarter of [1000, 3000] s.
  Rng rng(args.seed, 2);
  for (int i = 0; i < 4; ++i)
    spec.values.push_back(std::round(1000.0 + 500.0 * (i + rng.uniform())));
  std::vector<double> swept;
  Outcome out = run_sweep(args, spec, &swept);

  // Erlangization of the first point: the deterministic clock replaced by
  // Erlang-k phases, solved as a plain CTMC (no code shared with the
  // uniformization path). Its gap to the MRGP answer shrinks as O(1/k), so
  // the gap at 2k is bounded by the k-to-2k difference times a margin.
  SystemParameters p = params;
  spec.setter(p, spec.values[0]);
  const double mrgp = swept[0];
  const auto structure = nvp::core::staged_structure(p, false);
  const auto table = nvp::core::staged_reward_table(
      p, nvp::core::RewardConvention::kPaperVerbatim, *structure, false);
  const std::size_t k = 4;
  const double e_k = reliability_of(
      *structure, *table,
      nvp::markov::erlangization_stationary(structure->graph,
                                            structure->plan, k));
  const double e_2k = reliability_of(
      *structure, *table,
      nvp::markov::erlangization_stationary(structure->graph,
                                            structure->plan, 2 * k));
  std::fprintf(stderr, "erlang: mrgp=%.9f k=%zu %.9f k=%zu %.9f\n", mrgp, k,
               e_k, 2 * k, e_2k);
  out.checks.push_back({"erlang_1_over_k", [=](bool perturb) {
    const double reference = mrgp + (perturb ? 0.01 : 0.0);
    const double gap_k = std::fabs(e_k - reference);
    const double gap_2k = std::fabs(e_2k - reference);
    return gap_2k < gap_k && gap_2k <= 2.0 * std::fabs(e_k - e_2k);
  }});
  return out;
}

}  // namespace perfbench
