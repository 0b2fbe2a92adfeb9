// monitor_drift: closed-loop rejuvenation sessions under a 10x step drift of
// the compromise rate on the paper's 6v model, hysteresis policy.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "layers.hpp"
#include "src/core/engine.hpp"
#include "src/core/staged.hpp"
#include "src/monitor/session.hpp"
#include "src/runtime/thread_pool.hpp"

namespace perfbench {
namespace {

using nvp::core::Engine;
using nvp::core::SystemParameters;
using nvp::monitor::SessionConfig;
using nvp::monitor::SessionResult;

constexpr double kHorizon = 20000.0;
/// One round is a cycle of this many sessions, the same ones in every
/// round, so the inputs do not depend on how many rounds fit in a run.
constexpr std::uint64_t kSessionsPerRound = 8;

SessionConfig session_config(std::uint64_t seed, std::uint64_t index) {
  SessionConfig config;
  config.params = SystemParameters::paper_six_version();
  config.schedule.kind = nvp::monitor::DriftSchedule::Kind::kStep;
  config.schedule.multiplier = 10.0;
  config.schedule.period = kHorizon / 2;  // the step lands mid-session
  config.duration = kHorizon;
  config.seed = nvp::util::substream_seed(seed, 100 + index);
  config.policy = "hysteresis";
  return config;
}

/// Controller timing of a session. By default only the update frames are
/// timed (their controller call holds the re-solve); the clock is not read
/// on other frames. With `per_frame` every frame is timed: the gap between
/// consecutive frame callbacks is the perception system's own work, the
/// callback is the controller (the estimators).
struct FrameClock {
  bool per_frame = false;
  std::vector<double> frame_s;
  std::vector<double> resolve_s;
  double controller_s = 0.0;
  Clock::time_point last_end{};
  bool started = false;
};

/// One session wired as monitor::run_monitor_session wires it (campaign
/// seed = substream 0 of the session seed, drift windows, retune callback),
/// with the controller timed as `clock` asks.
SessionResult drive_session(const Engine& engine, const SessionConfig& config,
                            FrameClock& clock) {
  nvp::perception::NVersionPerceptionSystem::Config system_config;
  system_config.params = config.params;
  system_config.frame_interval = config.frame_interval;
  system_config.seed = nvp::util::substream_seed(config.seed, 0);
  nvp::perception::NVersionPerceptionSystem system(system_config);
  for (const auto& window :
       nvp::monitor::make_drift_windows(config.schedule, config.duration))
    system.add_attack_window(window);

  nvp::monitor::MonitorController::Config controller_config =
      config.controller;
  controller_config.params = config.params;
  nvp::monitor::MonitorController controller(
      engine, controller_config,
      nvp::monitor::make_policy(config.policy, config.hysteresis));
  controller.set_retune_callback(
      [&system](double interval) { system.set_rejuvenation_interval(interval); });
  // The controller updates on the first frame at or past each multiple of
  // update_every.
  const double every = controller_config.update_every;
  double next_update = every;
  std::uint64_t timed_updates = 0;
  system.set_frame_observer(
      [&](const nvp::perception::Frame& frame,
          const std::vector<nvp::perception::ModuleAnswer>& answers,
          const nvp::perception::VoteResult&) {
        if (!clock.per_frame && frame.time < next_update) {
          controller.observe_frame(frame.time, config.frame_interval, answers,
                                   frame.label);
          return;
        }
        const auto t0 = Clock::now();
        if (clock.per_frame && clock.started)
          clock.frame_s.push_back(seconds_between(clock.last_end, t0));
        const auto resolves = controller.resolves();
        controller.observe_frame(frame.time, config.frame_interval, answers,
                                 frame.label);
        clock.last_end = Clock::now();
        clock.started = true;
        const double took = seconds_between(t0, clock.last_end);
        clock.controller_s += took;
        if (controller.resolves() != resolves) clock.resolve_s.push_back(took);
        if (frame.time >= next_update) {
          ++timed_updates;
          next_update = (std::floor(frame.time / every) + 1.0) * every;
        }
      });

  SessionResult result;
  result.campaign = system.run(config.duration);
  result.records = controller.records();
  result.updates = controller.updates();
  result.resolves = controller.resolves();
  result.retunes = controller.retunes();
  result.degraded_updates = controller.degraded_updates();
  if (timed_updates != result.updates)
    throw std::logic_error("monitor_drift timed " +
                           std::to_string(timed_updates) + " of " +
                           std::to_string(result.updates) + " updates");
  return result;
}

/// Record-by-record bit identity; `perturb` shifts the first reference row.
bool same_records(const SessionResult& a, const SessionResult& b,
                  bool perturb) {
  if (a.records.empty() || a.records.size() != b.records.size())
    return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& x = a.records[i];
    const auto& y = b.records[i];
    if (x.time + (perturb && i == 0 ? 1.0 : 0.0) != y.time ||
        x.target_interval != y.target_interval ||
        x.applied_interval != y.applied_interval ||
        x.expected_reliability != y.expected_reliability ||
        x.retuned != y.retuned || x.degraded != y.degraded)
      return false;
  }
  return true;
}

}  // namespace

Outcome run_monitor_drift(const Args& args) {
  Outcome out;
  const SystemParameters params = SystemParameters::paper_six_version();
  double structure_s = 0.0;
  std::size_t states = 0;
  const double setup_s = cold_setup(params, 101, &structure_s, &states);

  const Engine engine;
  auto& builds = nvp::obs::Registry::global().counter(
      "petri.reachability.builds");
  std::vector<SessionResult> sessions;
  std::vector<std::uint64_t> builds_per_session;
  std::vector<double> session_walls;
  FrameClock clock;
  std::uint64_t frames = 0;
  StageTally tally;
  // One session, every stage cache dropped first.
  auto play = [&](std::uint64_t i) {
    nvp::core::clear_stage_caches();
    const std::uint64_t builds0 = builds.value();
    const auto t0 = Clock::now();
    {
      Trace::Op op(trace(), "bench.monitor::session");
      sessions.push_back(
          drive_session(engine, session_config(args.seed, i), clock));
    }
    session_walls.push_back(seconds_between(t0, Clock::now()));
    builds_per_session.push_back(builds.value() - builds0);
    tally.add(nvp::core::stage_cache_stats());
    const SessionResult& s = sessions.back();
    frames += s.campaign.frames;
    out.attempted += s.updates;
    out.failed += s.degraded_updates;
  };
  // One round: sessions 0 .. kSessionsPerRound-1 of this seed.
  auto round = [&] {
    for (std::uint64_t i = 0; i < kSessionsPerRound; ++i) play(i);
  };
  std::uint64_t rounds = 0;
  const auto start = Clock::now();
  do round(), ++rounds;
  while (seconds_between(start, Clock::now()) <
         (args.trace ? args.seconds / 2 : args.seconds));
  double wall = 0.0;
  for (double w : session_walls) wall += w;
  if (!args.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    out.set("throughput_per_s", double(frames) / wall, "1/s");
    out.set("latency_p50_ms", median(clock.resolve_s) * 1e3, "ms");
  } else {
    // The same sessions again, traced.
    session_walls.clear();
    tally = {};
    const Counters before;
    trace().enable();
    for (std::uint64_t i = 0; i < rounds; ++i) round();
    const Counters after;
    double traced_wall = 0.0;
    for (double w : session_walls) traced_wall += w;

    LayerInputs in;
    in.structure_ms = structure_s * 1e3;
    in.tangible_states = double(states);
    in.trace_overhead = traced_wall / wall;
    in.parallel_efficiency =
        trace().total("core.analyze") /
        (double(nvp::runtime::default_jobs()) * trace().total("monitor.resolve"));
    // Static campaign, no re-solves: the perception frame step and the
    // estimators alone (the controller never reaches an update).
    SessionConfig quiet = session_config(args.seed, 0);
    quiet.policy = "static";
    quiet.controller.update_every = 2 * quiet.duration;
    FrameClock static_clock;
    static_clock.per_frame = true;
    const SessionResult s = drive_session(engine, quiet, static_clock);
    in.perception_frame_us_p50 = median(static_clock.frame_s) * 1e6;
    in.monitor_estimator_us_per_frame =
        static_clock.controller_s / double(s.campaign.frames) * 1e6;
    set_layer_metrics(out, in, before, after, tally);
    trace().write(args.out_dir + "/trace-monitor_drift.jsonl");
  }

  // The benchmark's session loop is the program's: replay the last session
  // through monitor::run_monitor_session (its solves are cached by now).
  const SessionResult replay = nvp::monitor::run_monitor_session(
      engine, session_config(args.seed, kSessionsPerRound - 1));
  out.checks.push_back({"session_loop_matches_program",
                        [replay, last = sessions.back()](bool perturb) {
                          return same_records(replay, last, perturb);
                        }});

  out.checks.push_back({"one_reachability_build", [=](bool perturb) {
    for (std::uint64_t b : builds_per_session)
      if (b != (perturb ? 2u : 1u)) return false;
    return true;
  }});

  // Every re-solve against a cold staged analyze at its point.
  struct Point {
    SystemParameters params;
    double expected = 0.0;
  };
  std::vector<Point> points;
  double min_applied = params.rejuvenation_interval;
  double max_applied = params.rejuvenation_interval;
  for (const SessionResult& s : sessions)
    for (const auto& r : s.records) {
      min_applied = std::min(min_applied, r.applied_interval);
      max_applied = std::max(max_applied, r.applied_interval);
      if (r.degraded || r.mttc_hat <= 0.0) continue;
      Point p{params, r.expected_reliability};
      p.params.mean_time_to_compromise = r.mttc_hat;
      p.params.p_prime = r.p_prime_hat;
      p.params.rejuvenation_interval = r.target_interval;
      points.push_back(p);
    }
  std::vector<double> cold(points.size());
  nvp::core::ReliabilityAnalyzer::Options cold_options;
  cold_options.use_cache = false;
  const Engine cold_engine(cold_options);
  nvp::runtime::parallel_for(points.size(), [&](std::size_t i) {
    cold[i] = cold_engine.analyze_raw(points[i].params).expected_reliability;
  });
  out.checks.push_back({"resolve_equals_cold_analyze", [=](bool perturb) {
    if (points.empty()) return false;
    for (std::size_t i = 0; i < points.size(); ++i)
      if (points[i].expected != cold[i] + (perturb ? 1e-15 : 0.0))
        return false;
    return true;
  }});
  out.checks.push_back({"interval_in_range", [=](bool perturb) {
    const nvp::monitor::MonitorController::Config bounds;
    // Perturbed: the lower bound moved just above the smallest interval.
    const double lo = perturb ? min_applied + 1e-9 : bounds.interval_lo;
    return min_applied >= lo && max_applied <= bounds.interval_hi;
  }});
  return out;
}

}  // namespace perfbench
