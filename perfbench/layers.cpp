#include "layers.hpp"

namespace perfbench {

void set_layer_metrics(Outcome& out, const LayerInputs& in,
                       const Counters& before, const Counters& after,
                       const StageTally& tally) {
  auto delta = [&](const std::string& prefix) {
    return double(after.sum(prefix) - before.sum(prefix));
  };
  auto ms = [](const std::vector<double>& seconds, double q) {
    return quantile(seconds, q).value_or(0.0) * 1e3;
  };
  const Trace& t = trace();

  out.set("core.structure_ms", in.structure_ms, "ms");
  out.set("petri.tangible_states", in.tangible_states, "count");
  out.set("petri.repour_ms_p50",
          ms(t.durations("petri.reachability.repour"), 0.5), "ms");

  const auto rates = t.durations("core.stage.rates");
  out.set("markov.rates_ms_p50", ms(rates, 0.5), "ms");
  out.set("markov.rates_ms_p90", ms(rates, 0.9), "ms");
  out.set("markov.solves.dense", delta("markov.solver.dense_solves"), "count");
  out.set("markov.solves.sparse", delta("markov.solver.sparse_solves"),
          "count");
  out.set("markov.solves.mfree", delta("markov.solver.mfree_solves"),
          "count");
  out.set("markov.solves",
          delta("markov.solver.dense_solves") +
              delta("markov.solver.sparse_solves") +
              delta("markov.solver.mfree_solves"),
          "count");
  out.set("markov.fallback.attempts", delta("markov.fallback.attempts."),
          "count");

  out.set("core.reward_table_ms",
          ms(t.durations("core.stage.reward_table"), 0.5), "ms");
  out.set("core.rewards_ms_p50", ms(t.durations("core.stage.rewards"), 0.5),
          "ms");
  for (std::size_t i = 0; i < StageTally::kLevels.size(); ++i) {
    const std::string level = StageTally::kLevels[i];
    const double lookups = double(tally.hits[i] + tally.misses[i]);
    out.set("core.hit_ratio." + level,
            lookups > 0 ? double(tally.hits[i]) / lookups : 0.0, "ratio");
    out.set("core.lookups." + level, lookups, "count");
  }
  out.set("runtime.parallel_efficiency", in.parallel_efficiency, "ratio");

  out.set("store.get_ms_p50", in.store_get_ms_p50, "ms");
  out.set("store.put_ms_p50", in.store_put_ms_p50, "ms");
  out.set("store.bytes_written", in.store_bytes_written, "B");
  out.set("store.entries_read", in.store_entries_read, "count");
  out.set("service.rtt_ms_p50", in.service_rtt_ms_p50, "ms");
  out.set("service.executed", in.service_executed, "count");
  out.set("service.coalesced", in.service_coalesced, "count");
  out.set("loadgen.lag_ms_p99", in.loadgen_lag_ms_p99, "ms");
  out.set("loadgen.latency_p99_ms", in.loadgen_latency_p99_ms, "ms");

  out.set("monitor.resolves", delta("monitor.resolves"), "count");
  out.set("monitor.retunes", delta("monitor.retunes"), "count");
  out.set("monitor.estimator_us_per_frame", in.monitor_estimator_us_per_frame,
          "us");
  out.set("perception.frame_us_p50", in.perception_frame_us_p50, "us");
  out.set("obs.trace_overhead", in.trace_overhead, "ratio");
}

}  // namespace perfbench
