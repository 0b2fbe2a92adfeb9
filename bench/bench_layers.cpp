// bench_layers — the grid the kAuto cost model is fit to, and its gate.
//
// Rejuvenating MRGP families from 22 to 10 935 tangible states, each solved
// at rejuvenation intervals that put the uniformization depth lambda_max*tau
// of the clock's group at 0.1, 1, 10, ..., 1e4. In every cell the same
// graph is solved with the dense backend forced, the matrix-free backend
// forced, and kAuto, timed round-robin on one thread and kept best-of-
// several, with the trace spans of each one's fastest solve reduced to
// per-layer self-times (embedded-chain assembly, uniformization,
// stationary solve, ...).
//
// A forced backend whose predicted solve time (markov::estimate_mrgp_costs)
// exceeds --budget-s seconds is left out of its cell — dense at thousands
// of states would take hours — and a cell where kAuto's own pick is over
// budget is skipped whole. Each cell records the cost-model inputs, both
// predictions, the measurements, the max-abs difference between the
// backends' stationary vectors, the time of the dispatch itself, and
// kAuto's time over the best forced time. kAuto's solve is its pick's
// solve plus the dispatch, so its time is the better of its own run and
// that sum. tools/check_bench_regression.py --layers fails when the ratio
// exceeds 1.25 in any cell, or when the backends disagree beyond 1e-9.
//
//   bench_layers [--quick] [--budget-s 2]   # writes BENCH_layers.json
//
// --quick drops the 1201-state row and the deepest column of the largest
// row, keeping the run near a minute for CI.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "src/core/model_factory.hpp"
#include "src/core/staged.hpp"
#include "src/linalg/poisson.hpp"
#include "src/markov/dspn_solver.hpp"
#include "src/obs/json.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/thread_pool.hpp"

namespace {

using namespace nvp;
using Clock = std::chrono::steady_clock;

struct Family {
  int n, f, r;
};

/// One backend's measurement in one cell.
struct Run {
  bool ran = false;
  std::string backend;
  double ms = 0.0;
  std::map<std::string, double> self_ms;  ///< span name -> self time
  linalg::Vector probabilities;
};

/// Self time of each span name: its wall time minus that of its direct
/// children, summed over every span of the name.
std::map<std::string, double> self_times(
    const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, double> child_wall;
  for (const obs::SpanRecord& span : spans)
    if (span.parent != 0) child_wall[span.parent] += span.wall_s;
  std::map<std::string, double> out;
  for (const obs::SpanRecord& span : spans) {
    const auto it = child_wall.find(span.id);
    const double children = it == child_wall.end() ? 0.0 : it->second;
    out[span.name] += 1e3 * std::max(0.0, span.wall_s - children);
  }
  return out;
}

/// Times the cell's configurations round-robin, so that a slow spell of
/// the machine hits all of them alike, and keeps each one's fastest solve:
/// at least five rounds and until 300 ms have been spent (at most 1000, so
/// that microsecond solves get many tries), or three rounds when one round
/// takes over a second, one over ten seconds.
void time_cell(const petri::TangibleReachabilityGraph& g,
               const markov::AssemblyPlan& plan,
               const std::vector<std::pair<markov::SolverBackend, Run*>>&
                   configs) {
  for (const auto& [backend, run] : configs) {
    run->ran = true;
    run->ms = std::numeric_limits<double>::infinity();
  }
  double spent_ms = 0.0;
  for (int round = 0; round < 1000; ++round) {
    double round_ms = 0.0;
    for (const auto& [backend, run] : configs) {
      markov::SolverConfig config;
      config.backend = backend;
      obs::TraceRecorder::global().clear();
      const auto t0 = Clock::now();
      markov::DspnSteadyStateResult result =
          markov::DspnSteadyStateSolver(config).solve(g, plan);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      round_ms += ms;
      if (ms < run->ms) {
        run->ms = ms;
        run->backend = markov::to_string(result.backend_used);
        run->self_ms = self_times(obs::TraceRecorder::global().finished());
        run->probabilities = std::move(result.probabilities);
      }
    }
    spent_ms += round_ms;
    if (round_ms > 10000.0) break;
    if (round_ms > 1000.0 && round >= 2) break;
    if (round >= 4 && spent_ms >= 300.0) break;
  }
}

double max_abs_diff(const linalg::Vector& a, const linalg::Vector& b) {
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff = std::max(diff, std::fabs(a[i] - b[i]));
  return diff;
}

void write_run(obs::JsonWriter& json, const char* name, const Run& run) {
  json.key(name);
  if (!run.ran) {
    json.null();
    return;
  }
  json.begin_object();
  json.kv("backend", run.backend);
  json.kv("ms", run.ms);
  json.key("layers_self_ms").begin_object();
  for (const auto& [span, ms] : run.self_ms) json.kv(span, ms);
  json.end_object();
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "layers",
                         "per-layer solve times of dense / matrix-free / "
                         "kAuto over states x lambda*tau");
  const bool quick = harness.args().has("quick");
  const double budget_s = harness.args().get_double("budget-s", 2.0);
  // One thread: the cost model predicts single-thread solves, and the
  // timings must not depend on what else the machine runs.
  runtime::set_default_jobs(1);
  obs::set_tracing(true);

  const std::vector<Family> families = {{3, 0, 1},  {6, 1, 1},  {10, 1, 1},
                                        {15, 2, 2}, {20, 2, 2}, {40, 2, 4}};
  const std::vector<double> depths = {0.1, 1.0, 10.0, 100.0, 1e3, 1e4};

  obs::JsonWriter json;
  json.begin_object();
  json.kv("schema_version", 1);
  json.kv("recorded", bench::utc_date());
  json.kv("source", std::string("bench_layers") + (quick ? " --quick" : ""));
  bench::machine_block(json);
  json.kv("note",
          "rate_horizon is lambda_max*tau of the rejuvenation clock's "
          "group; ms is the best of several single-thread solves; "
          "layers_self_ms holds per-span self times of that solve; null "
          "marks a forced backend predicted over budget_s; dispatch_ms is "
          "the cost-model evaluation alone; auto_over_best is kAuto's time "
          "(the better of its own run and its pick's forced run plus "
          "dispatch_ms) over the fastest forced backend measured.");
  json.kv("budget_s", budget_s);
  json.key("cells").begin_array();

  double worst_ratio = 0.0;
  std::size_t cells = 0;
  for (const Family& family : families) {
    if (quick && family.n == 20) continue;
    auto params = core::SystemParameters::paper_six_version();
    params.n_versions = family.n;
    params.max_faulty = family.f;
    params.max_rejuvenating = family.r;
    const auto structure = core::staged_structure(params, /*use_cache=*/false);
    const markov::AssemblyPlan& plan = structure->plan;

    // Exit-rate ceiling of the clock's group, read off the base graph.
    const double base_interval = params.rejuvenation_interval;
    double lambda = 0.0;
    const auto base_inputs = markov::dispatch_inputs(structure->graph, plan);
    for (std::size_t i = 0; i < plan.groups.size(); ++i)
      if (structure->graph.deterministics(plan.groups[i].members[0])[0]
              .delay == base_interval)
        lambda = base_inputs.groups[i].rate_horizon / base_interval;
    if (!(lambda > 0.0)) {
      std::fprintf(stderr, "family n=%d f=%d r=%d has no clock group\n",
                   family.n, family.f, family.r);
      return 1;
    }

    for (const double depth : depths) {
      if (quick && family.n == 40 && depth >= 1e4) continue;
      params.rejuvenation_interval = depth / lambda;
      const auto model = core::PerceptionModelFactory::build(params);
      const auto g = structure->graph.repoured(model.net);
      const auto inputs = markov::dispatch_inputs(g, plan);
      const markov::SolverConfig defaults;
      const auto predicted =
          markov::estimate_mrgp_costs(inputs, defaults.dense_retry_limit);
      const auto pick = markov::dispatch_backend(defaults, inputs);
      const double pick_s = pick == markov::SolverBackend::kDense
                                ? predicted.dense_seconds
                                : predicted.matrix_free_seconds;

      std::printf("n=%2d f=%d r=%d %6zu states  lambda*tau %7g  ", family.n,
                  family.f, family.r, g.size(), depth);
      if (pick_s > budget_s) {
        std::printf("skipped (kAuto predicted %.3g s)\n", pick_s);
        continue;
      }
      Run dense, mfree, kauto;
      std::vector<std::pair<markov::SolverBackend, Run*>> configs;
      if (predicted.dense_seconds <= budget_s)
        configs.emplace_back(markov::SolverBackend::kDense, &dense);
      if (predicted.matrix_free_seconds <= budget_s)
        configs.emplace_back(markov::SolverBackend::kMatrixFree, &mfree);
      configs.emplace_back(markov::SolverBackend::kAuto, &kauto);
      time_cell(g, plan, configs);

      // kAuto's solve is its pick's solve plus the dispatch, so the forced
      // run of the pick plus the separately timed dispatch is a second
      // measurement of the same work; the better of the two prices kAuto,
      // so that measurement noise between two runs of identical work does
      // not count against the choice.
      double dispatch_ms = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 20; ++rep) {
        const auto t0 = Clock::now();
        const auto backend = markov::dispatch_backend(
            defaults, markov::dispatch_inputs(g, plan));
        dispatch_ms = std::min(
            dispatch_ms,
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
        if (backend != pick) {  // a pure function of the model
          std::fprintf(stderr, "kAuto changed its pick between calls\n");
          return 1;
        }
      }
      double best_ms = std::numeric_limits<double>::infinity();
      if (dense.ran) best_ms = std::min(best_ms, dense.ms);
      if (mfree.ran) best_ms = std::min(best_ms, mfree.ms);
      const Run& picked = pick == markov::SolverBackend::kDense ? dense : mfree;
      const double auto_ms =
          picked.ran ? std::min(kauto.ms, picked.ms + dispatch_ms) : kauto.ms;
      const double ratio = auto_ms / best_ms;
      worst_ratio = std::max(worst_ratio, ratio);
      double diff = 0.0;
      for (const Run* run : {&dense, &mfree})
        if (run->ran)
          diff = std::max(diff,
                          max_abs_diff(run->probabilities, kauto.probabilities));
      ++cells;
      std::printf("dense %9s  mfree %9s  auto %-5s %8.3f ms  x%.2f  "
                  "|diff| %.1e\n",
                  dense.ran ? util::format("%.3f", dense.ms).c_str() : "-",
                  mfree.ran ? util::format("%.3f", mfree.ms).c_str() : "-",
                  kauto.backend.c_str(), kauto.ms, ratio, diff);

      json.begin_object();
      json.kv("n", family.n).kv("f", family.f).kv("r", family.r);
      json.kv("states", static_cast<std::uint64_t>(g.size()));
      json.kv("rate_horizon", depth);
      json.kv("interval_s", params.rejuvenation_interval);
      json.key("groups").begin_array();
      for (const auto& group : inputs.groups) {
        json.begin_object();
        json.kv("nonzeros", static_cast<std::uint64_t>(group.nonzeros));
        json.kv("rate_horizon", group.rate_horizon);
        json.kv("truncation",
                static_cast<std::uint64_t>(
                    linalg::poisson_truncation(group.rate_horizon, 1e-16)));
        json.end_object();
      }
      json.end_array();
      json.kv("predicted_dense_ms", 1e3 * predicted.dense_seconds);
      json.kv("predicted_mfree_ms", 1e3 * predicted.matrix_free_seconds);
      write_run(json, "dense", dense);
      write_run(json, "mfree", mfree);
      write_run(json, "auto", kauto);
      json.kv("dispatch_ms", dispatch_ms);
      json.kv("best_forced_ms", best_ms);
      json.kv("auto_over_best", ratio);
      json.kv("max_abs_diff", diff);
      json.end_object();
    }
  }
  json.end_array();
  json.kv("cells_measured", static_cast<std::uint64_t>(cells));
  json.kv("worst_auto_over_best", worst_ratio);
  json.end_object();

  const auto path = (bench::output_dir() / "BENCH_layers.json").string();
  std::ofstream out(path);
  out << json.str() << "\n";
  std::printf("%zu cells, worst kAuto/best %.2f\n[json written to %s]\n",
              cells, worst_ratio, path.c_str());
  return 0;
}
