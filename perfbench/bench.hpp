// Shared pieces of the perfbench workloads: run arguments, the result
// record every workload fills, the percentile rule, correctness checks
// with reference perturbation, and the in-memory span trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/params.hpp"
#include "src/obs/trace.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Also re-run every correctness check against a perturbed reference and
  /// report which ones caught it (the benchmark's own tests use this).
  bool selfcheck = false;
  std::string out_dir = ".bench_build/perfbench-run";
  std::string nvpcli;  ///< daemon binary for nvpd_mixed
};

/// Deterministic input stream derived from --seed and a per-use label.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : gen_(nvp::util::substream_seed(seed, stream)) {}
  double uniform() { return double(gen_.next() >> 11) * 0x1.0p-53; }
  /// Integer in [lo, hi].
  long integer(long lo, long hi) {
    return lo + long(gen_.next() % std::uint64_t(hi - lo + 1));
  }

 private:
  nvp::util::Xoshiro256StarStar gen_;
};

/// Quantile q of `samples` (linear interpolation between order statistics),
/// or nullopt when the sample cannot support it: a tail quantile needs at
/// least ten samples beyond it (n * (1 - q) >= 10, so a p99 needs 1000
/// samples), and a median needs one sample.
std::optional<double> quantile(std::vector<double> samples, double q);
double median(const std::vector<double>& samples);  ///< 0 when empty

/// One correctness check. `run(perturb)` returns true when the check holds;
/// with `perturb` true the reference is moved just past the tolerance, so a
/// sound check must then fail.
struct Check {
  std::string name;
  std::function<bool(bool perturb)> run;
};

/// What one workload run produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<Check> checks;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();
/// Peak resident set of another process in MiB (VmHWM), 0 if unreadable.
double peak_rss_mb_of(int pid);

/// Median of `repeats` timed calls of `body`, in seconds.
double median_seconds(int repeats, const std::function<void()>& body);

/// Median over `repeats` of a cold set-up: stage caches dropped, engine
/// constructed, default pool up, structure stage built. `structure_s` gets
/// the median of the structure stage alone, `states` the tangible states.
double cold_setup(const nvp::core::SystemParameters& params, int repeats,
                  double* structure_s, std::size_t* states);

// ---------------------------------------------------------------------------
// Tracing. Spans are nvp::obs spans, so the engine's own spans (core.stage.*,
// markov.*, petri.*) nest under the benchmark's spans on the calling thread.
// Every benchmark operation gets one id; spans on pool threads are assigned
// to the operation whose time window contains them.

class Trace {
 public:
  /// Turns span recording on (traced runs) and clears earlier spans.
  void enable();

  /// RAII operation: a root span named `name` with a fresh operation id.
  class Op {
   public:
    Op(Trace& trace, const char* name);
    ~Op();
    Op(const Op&) = delete;
    Op& operator=(const Op&) = delete;

   private:
    std::unique_ptr<nvp::obs::ScopedSpan> span_;
  };

  /// All spans recorded so far, with self time and operation id.
  struct Row {
    nvp::obs::SpanRecord span;
    double self_s = 0.0;
    std::uint64_t op = 0;
  };
  std::vector<Row> rows() const;

  /// Wall durations (seconds) of every span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Sum of wall durations of every span named `name`.
  double total(const std::string& name) const;

  /// Writes the spans as JSON lines to `path` and prints the per-name
  /// self-time table to stderr.
  void write(const std::string& path) const;

 private:
  struct Window {
    std::uint64_t op = 0;
    std::uint64_t span = 0;
  };
  bool enabled_ = false;
  std::uint64_t next_op_ = 1;
  std::vector<Window> windows_;
};

Trace& trace();

/// Workload entry points. Each fills `out` and returns it; setup, the timed
/// phase and the checks are all inside.
Outcome run_interval_sweep_6v(const Args& args);
Outcome run_mttc_sweep_n40(const Args& args);
Outcome run_nvpd_mixed(const Args& args);
Outcome run_monitor_drift(const Args& args);

}  // namespace perfbench
