// Per-layer metrics of a traced run: what the spans, the engine's obs
// counters and the stage caches say about each layer. Every traced run
// reports the engine layers; a layer a workload does not exercise reads 0.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "bench.hpp"
#include "src/core/staged.hpp"
#include "src/obs/metrics.hpp"

namespace perfbench {

/// Snapshot of the engine's obs counters.
struct Counters {
  std::map<std::string, std::uint64_t> values;
  Counters() : values(nvp::obs::Registry::global().snapshot().counters) {}
  /// Sum of every counter whose name starts with `prefix`.
  std::uint64_t sum(const std::string& prefix) const {
    std::uint64_t total = 0;
    for (auto it = values.lower_bound(prefix);
         it != values.end() && it->first.rfind(prefix, 0) == 0; ++it)
      total += it->second;
    return total;
  }
};

/// Stage-cache hits and misses summed over rounds (clear_stage_caches()
/// resets the caches' own counters, so each round is added separately).
struct StageTally {
  static constexpr std::array<const char*, 5> kLevels = {
      "structure", "rates", "reward_table", "rewards", "whole_result"};
  std::array<std::uint64_t, 5> hits{};
  std::array<std::uint64_t, 5> misses{};
  void add(const nvp::core::StageCacheStats& s) {
    const nvp::runtime::CacheStats* levels[5] = {
        &s.structure, &s.rates, &s.reward_table, &s.rewards, &s.whole_result};
    for (std::size_t i = 0; i < 5; ++i) {
      hits[i] += levels[i]->hits;
      misses[i] += levels[i]->misses;
    }
  }
};

/// Numbers only the workload itself can supply.
struct LayerInputs {
  double structure_ms = 0.0;
  double tangible_states = 0.0;
  double parallel_efficiency = 0.0;
  double trace_overhead = 0.0;
  double store_get_ms_p50 = 0.0;
  double store_put_ms_p50 = 0.0;
  double store_bytes_written = 0.0;
  double store_entries_read = 0.0;
  double service_rtt_ms_p50 = 0.0;
  double service_executed = 0.0;
  double service_coalesced = 0.0;
  double loadgen_lag_ms_p99 = 0.0;
  double loadgen_latency_p99_ms = 0.0;
  double monitor_estimator_us_per_frame = 0.0;
  double perception_frame_us_p50 = 0.0;
};

/// Fills every per-layer metric of `out` from `in`, the span trace, the
/// counter delta `before` → `after`, and the stage-cache tally.
void set_layer_metrics(Outcome& out, const LayerInputs& in,
                       const Counters& before, const Counters& after,
                       const StageTally& tally);

}  // namespace perfbench
