#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <unordered_map>

#include "src/core/engine.hpp"
#include "src/core/staged.hpp"
#include "src/obs/json.hpp"
#include "src/runtime/thread_pool.hpp"

namespace perfbench {

std::optional<double> quantile(std::vector<double> samples, double q) {
  const double n = double(samples.size());
  if (samples.empty() || q < 0.0 || q > 1.0) return std::nullopt;
  if (q > 0.5 && n * (1.0 - q) < 10.0 - 1e-9) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double pos = q * (n - 1.0);
  const auto lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - double(lo)) * (samples[hi] - samples[lo]);
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5).value_or(0.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double peak_rss_mb_of(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double median_seconds(int repeats, const std::function<void()>& body) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    body();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return median(times);
}

double cold_setup(const nvp::core::SystemParameters& params, int repeats,
                  double* structure_s, std::size_t* states) {
  std::vector<double> structure;
  const double setup = median_seconds(repeats, [&] {
    nvp::core::clear_stage_caches();
    const nvp::core::Engine engine;
    nvp::runtime::default_pool();
    const auto t0 = Clock::now();
    const auto artifact = nvp::core::staged_structure(params, true);
    structure.push_back(seconds_between(t0, Clock::now()));
    *states = artifact->graph.size();
  });
  *structure_s = median(structure);
  return setup;
}

// ---------------------------------------------------------------------------

Trace& trace() {
  static Trace instance;
  return instance;
}

void Trace::enable() {
  enabled_ = true;
  windows_.clear();
  nvp::obs::TraceRecorder::global().clear();
  nvp::obs::set_tracing(true);
}

Trace::Op::Op(Trace& trace, const char* name) {
  if (!trace.enabled_) return;
  span_ = std::make_unique<nvp::obs::ScopedSpan>(name);
  trace.windows_.push_back({trace.next_op_++, span_->id()});
}

Trace::Op::~Op() = default;

std::vector<Trace::Row> Trace::rows() const {
  const auto spans = nvp::obs::TraceRecorder::global().finished();
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::unordered_map<std::uint64_t, std::uint64_t> op_of_span;
  for (const Window& w : windows_) op_of_span[w.span] = w.op;

  std::vector<Row> rows(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    rows[i].span = spans[i];
    rows[i].self_s = spans[i].wall_s;
  }
  for (const auto& s : spans)
    if (auto it = index.find(s.parent); it != index.end())
      rows[it->second].self_s -= s.wall_s;
  for (Row& row : rows) {
    const nvp::obs::SpanRecord* root = &row.span;
    while (true) {
      auto it = index.find(root->parent);
      if (it == index.end()) break;
      root = &spans[it->second];
    }
    if (auto it = op_of_span.find(root->id); it != op_of_span.end()) {
      row.op = it->second;
      continue;
    }
    // A pool thread's span: the operation running when it started. A root
    // span outside every operation is an operation of its own.
    row.op = root->id;
    for (const Window& w : windows_) {
      auto it = index.find(w.span);
      if (it == index.end()) continue;
      const auto& op_span = spans[it->second];
      if (row.span.start_s >= op_span.start_s &&
          row.span.start_s <= op_span.start_s + op_span.wall_s) {
        row.op = w.op;
        break;
      }
    }
  }
  return rows;
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : nvp::obs::TraceRecorder::global().finished())
    if (s.name == name) out.push_back(s.wall_s);
  return out;
}

double Trace::total(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

void Trace::write(const std::string& path) const {
  const auto all = rows();
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    for (const Row& r : all)
      std::fprintf(f,
                   "{\"op\":%llu,\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"thread\":%zu,\"start_s\":%.9f,\"wall_s\":%.9f,"
                   "\"self_s\":%.9f}\n",
                   (unsigned long long)r.op, (unsigned long long)r.span.id,
                   (unsigned long long)r.span.parent, r.span.name.c_str(),
                   r.span.thread, r.span.start_s, r.span.wall_s, r.self_s);
    std::fclose(f);
  }
  struct Agg {
    std::size_t count = 0;
    double wall = 0.0;
    double self = 0.0;
    std::vector<double> selfs;
  };
  std::map<std::string, Agg> by_name;
  for (const Row& r : all) {
    Agg& a = by_name[r.span.name];
    ++a.count;
    a.wall += r.span.wall_s;
    a.self += r.self_s;
    a.selfs.push_back(r.self_s);
  }
  std::vector<std::pair<std::string, Agg>> sorted(by_name.begin(),
                                                  by_name.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::fprintf(stderr, "%-44s %8s %12s %12s %12s\n", "span", "count",
               "wall_ms", "self_ms", "self_p50_ms");
  for (const auto& [name, a] : sorted)
    std::fprintf(stderr, "%-44s %8zu %12.3f %12.3f %12.4f\n", name.c_str(),
                 a.count, a.wall * 1e3, a.self * 1e3, median(a.selfs) * 1e3);
  std::fprintf(stderr, "spans written to %s\n", path.c_str());
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <interval_sweep_6v|mttc_sweep_n40|"
               "nvpd_mixed|monitor_drift> [--seed N] [--seconds S] "
               "[--trace 0|1] [--selfcheck] [--out-dir DIR] "
               "[--nvpcli PATH]\n"
               "       perfbench selftest\n");
  return 2;
}

/// Unit checks of the statistics the metrics rest on.
int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> v999(999), v1000(1000);
  for (std::size_t i = 0; i < v1000.size(); ++i) v1000[i] = double(i);
  for (std::size_t i = 0; i < v999.size(); ++i) v999[i] = double(i);
  expect(!quantile(v999, 0.99).has_value(), "no p99 below 1000 samples");
  expect(quantile(v1000, 0.99).has_value(), "p99 at 1000 samples");
  expect(std::fabs(*quantile(v1000, 0.99) - 989.01) < 1e-9, "p99 value");
  expect(!quantile(std::vector<double>(99, 1.0), 0.9).has_value(),
         "no p90 below 100 samples");
  expect(quantile(std::vector<double>(100, 1.0), 0.9).has_value(),
         "p90 at 100 samples");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  expect(!quantile({}, 0.5).has_value(), "no median of nothing");
  std::printf("{\"selftest\": %s}\n", failures == 0 ? "true" : "false");
  return failures == 0 ? 0 : 1;
}

void print_result(const Outcome& out, bool correct) {
  nvp::obs::JsonWriter json;
  json.begin_object();
  json.kv("correct", correct);
  json.kv("attempted", static_cast<std::uint64_t>(out.attempted));
  json.kv("failed", static_cast<std::uint64_t>(out.failed));
  json.key("metrics");
  json.begin_object();
  for (const auto& [name, m] : out.metrics) {
    json.key(name);
    json.begin_object();
    json.kv("value", m.value);
    json.kv("unit", m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args args;
  args.workload = argv[1];
  if (args.workload == "selftest") return selftest();
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--seed") args.seed = std::stoull(value());
    else if (flag == "--seconds") args.seconds = std::stod(value());
    else if (flag == "--trace") args.trace = value() == "1";
    else if (flag == "--selfcheck") args.selfcheck = true;
    else if (flag == "--out-dir") args.out_dir = value();
    else if (flag == "--nvpcli") args.nvpcli = value();
    else return usage();
  }
  if (!(args.seconds > 0.0)) return usage();
  Outcome out;
  try {
    if (args.workload == "interval_sweep_6v") out = run_interval_sweep_6v(args);
    else if (args.workload == "mttc_sweep_n40") out = run_mttc_sweep_n40(args);
    else if (args.workload == "nvpd_mixed") out = run_nvpd_mixed(args);
    else if (args.workload == "monitor_drift") out = run_monitor_drift(args);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  bool correct = true;
  for (const Check& check : out.checks) {
    const bool ok = check.run(false);
    std::fprintf(stderr, "check %-28s %s\n", check.name.c_str(),
                 ok ? "ok" : "FAILED");
    correct = correct && ok;
  }
  if (args.selfcheck) {
    // Every check must reject its perturbed reference.
    std::printf("{\"selfcheck\": {");
    for (std::size_t i = 0; i < out.checks.size(); ++i)
      std::printf("%s\"%s\": %s", i ? ", " : "", out.checks[i].name.c_str(),
                  out.checks[i].run(true) ? "false" : "true");
    std::printf("}}\n");
  }
  print_result(out, correct);
  return correct ? 0 : 1;
}
