// nvpd_mixed: `nvpcli serve` on loopback at its default configuration (no
// store), driven from this one thread over two connections in a closed
// loop with a fixed window of requests in flight per connection. A traced
// run adds an open-loop phase at a fixed rate for the load generator's
// figures, and a store phase: one daemon process writes points to a
// `--store`, a later one reads them back.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "layers.hpp"
#include "src/core/engine.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/service/client.hpp"
#include "src/store/store.hpp"

extern char** environ;

namespace perfbench {
namespace {

using nvp::core::Engine;
using nvp::core::SystemParameters;
namespace fs = std::filesystem;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kBurst = 4;  // identical requests sent at once
constexpr double kOpenRate = 200.0;  // requests per second, open loop
constexpr std::size_t kWindow = 4;  // closed loop: requests in flight per connection
constexpr std::size_t kStorePoints = 32;  // traced store phase
constexpr int kDaemonStarts = 51;  // set-up: median of this many starts

// ---------------------------------------------------------------------------
// The daemon process.

class Daemon {
 public:
  /// Starts `nvpcli serve --port 0` (with `--store <store>` unless `store`
  /// is empty) with the NVP_* overrides removed from its environment, and
  /// waits for its port.
  Daemon(const std::string& nvpcli, const std::string& store,
         const std::string& log) {
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e)
      if (std::strncmp(*e, "NVP_", 4) != 0) env.emplace_back(*e);
    std::vector<char*> envp;
    for (auto& s : env) envp.push_back(s.data());
    envp.push_back(nullptr);
    std::vector<std::string> argv_s = {nvpcli, "serve", "--port", "0"};
    if (!store.empty()) argv_s.insert(argv_s.end(), {"--store", store});
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int rc = posix_spawn(&pid_, nvpcli.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + nvpcli);

    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (port_ == 0) {
      std::ifstream in(log);
      std::string line;
      while (std::getline(in, line))
        if (line.find("listening on ") != std::string::npos)
          port_ = std::atoi(line.c_str() + line.rfind(':') + 1);
      if (port_ != 0) break;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("nvpd exited before listening");
      }
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        throw std::runtime_error("nvpd did not start listening");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  int pid() const { return pid_; }

  /// Graceful stop through the protocol, then SIGKILL if it hangs.
  void stop() {
    if (pid_ < 0) return;
    nvp::service::Client client;
    std::string error;
    if (client.connect("127.0.0.1", port_, &error))
      client.call(1, R"({"id":1,"method":"shutdown"})", &error);
    else
      kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

nvp::service::Client connect_to(const Daemon& daemon) {
  nvp::service::Client client;
  std::string error;
  if (!client.connect("127.0.0.1", daemon.port(), &error))
    throw std::runtime_error("connect: " + error);
  return client;
}

// ---------------------------------------------------------------------------
// Request mix.

/// One distinct analyze point.
struct Point {
  std::string json;  ///< the request's "params" object
  SystemParameters params;
  std::vector<double> answers;  ///< E[R_sys] of every ok response
  bool issued = false;
};

class Mix {
 public:
  explicit Mix(std::uint64_t seed) : rng_(seed, 3) {
    // The paper's 4v default first: its answer is checked against the paper.
    add(SystemParameters::paper_four_version(), R"({"paper":"4v"})");
  }

  /// A point no request has used yet: 4v (CTMC) or 6v (MRGP) with MTTC in
  /// [1000, 3000] s and, for 6v, the interval in [100, 400] s. A cold 6v
  /// point is a real solve of about 10 ms; the daemon's workers, not the
  /// wake-ups between its threads, set the pace.
  std::size_t cold(bool six) {
    while (true) {
      const long mttc = rng_.integer(1000, 3000);
      const long interval = six ? rng_.integer(100, 400) : 0;
      if (!used_.insert({six, mttc, interval}).second) continue;
      SystemParameters p = six ? SystemParameters::paper_six_version()
                               : SystemParameters::paper_four_version();
      p.mean_time_to_compromise = double(mttc);
      std::string json = std::string(R"({"paper":")") + (six ? "6v" : "4v") +
                         R"(","mttc":)" + std::to_string(mttc);
      if (six) {
        p.rejuvenation_interval = double(interval);
        json += R"(,"interval":)" + std::to_string(interval);
      }
      return add(p, json + "}");
    }
  }
  /// One of the points requested so far, uniformly.
  std::size_t repeat() {
    return issued_[std::size_t(rng_.integer(0, long(issued_.size()) - 1))];
  }
  void mark_issued(std::size_t point) {
    if (!points_[point].issued) issued_.push_back(point);
    points_[point].issued = true;
  }
  double uniform() { return rng_.uniform(); }
  std::vector<Point>& points() { return points_; }

 private:
  std::size_t add(const SystemParameters& p, std::string json) {
    points_.push_back({std::move(json), p, {}, false});
    return points_.size() - 1;
  }
  Rng rng_;
  std::set<std::tuple<bool, long, long>> used_;
  std::vector<Point> points_;
  std::vector<std::size_t> issued_;
};

std::string analyze_request(std::uint64_t id, const Point& point) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"method":"analyze","params":)" + point.json + "}";
}

// ---------------------------------------------------------------------------
// Load loop: one thread, kConnections sockets, poll(2) between sends.

struct Pending {
  std::size_t point = 0;
  Clock::time_point due{};
  Clock::time_point sent{};
};

struct LoadStats {
  std::vector<double> latency_s;  ///< due → response
  std::vector<double> lag_s;      ///< due → actually sent
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Clock::time_point first_send{}, last_response{};
};

class Load {
 public:
  Load(std::vector<nvp::service::Client>& conns, Mix& mix, bool traced)
      : conns_(conns), mix_(mix), traced_(traced) {}

  void send(std::size_t conn, std::size_t point, Clock::time_point due,
            LoadStats& stats) {
    const std::uint64_t id = next_id_++;
    const auto now = Clock::now();
    if (stats.attempted == 0) stats.first_send = now;
    ++stats.attempted;
    mix_.mark_issued(point);
    stats.lag_s.push_back(seconds_between(due, now));
    if (!conns_[conn].send(analyze_request(id, mix_.points()[point]))) {
      ++stats.failed;
      return;
    }
    pending_[conn][id] = {point, due, now};
  }

  /// Waits up to `timeout` for responses and settles every one that
  /// arrived. Returns the connections that got a response.
  std::vector<std::size_t> receive(std::chrono::nanoseconds timeout,
                                   LoadStats& stats) {
    std::vector<pollfd> fds;
    for (auto& c : conns_) fds.push_back({c.fd(), POLLIN, 0});
    timespec ts{};
    const auto ns = std::max<long long>(0, timeout.count());
    ts.tv_sec = time_t(ns / 1000000000);
    ts.tv_nsec = long(ns % 1000000000);
    std::vector<std::size_t> answered;
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return answered;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].revents == 0) continue;
      std::string error;
      auto response = conns_[c].receive(&error);
      const auto now = Clock::now();
      if (!response) {  // transport error: everything in flight is lost
        stats.failed += pending_[c].size();
        pending_[c].clear();
        throw std::runtime_error("nvpd connection lost: " + error);
      }
      auto it = pending_[c].find(response->id);
      if (it == pending_[c].end()) continue;
      const Pending p = it->second;
      pending_[c].erase(it);
      stats.latency_s.push_back(seconds_between(p.due, now));
      stats.last_response = now;
      if (traced_) record_span(p.sent, now);
      const nvp::service::wire::Value* value =
          response->ok && response->result != nullptr
              ? response->result->get("expected_reliability")
              : nullptr;
      if (value != nullptr && value->is_number())
        mix_.points()[p.point].answers.push_back(value->as_number());
      else
        ++stats.failed;
      answered.push_back(c);
    }
    return answered;
  }

  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const auto& m : pending_) n += m.size();
    return n;
  }

 private:
  /// A request span (send → response) recorded directly: requests overlap
  /// on one thread, so they cannot be scoped spans.
  void record_span(Clock::time_point sent, Clock::time_point done) {
    nvp::obs::SpanRecord span;
    span.id = (1ull << 62) + next_span_++;
    span.name = "bench.service::request";
    span.start_s = seconds_between(nvp::obs::TraceRecorder::global().epoch(),
                                   sent);
    span.wall_s = seconds_between(sent, done);
    nvp::obs::TraceRecorder::global().record(span);
  }

  std::vector<nvp::service::Client>& conns_;
  Mix& mix_;
  bool traced_;
  std::uint64_t next_id_ = 100;
  std::uint64_t next_span_ = 0;
  std::map<std::uint64_t, Pending> pending_[kConnections];
};

/// Open loop: slot i is due at i / kOpenRate; the mix of each slot is drawn
/// from the seed: 60% a cold 6v point, 10% a cold 4v point, 5% a burst
/// (kBurst identical requests for one new 6v point at the same instant, so
/// the daemon coalesces them), and otherwise a repeat of an earlier point.
/// Its median moves with how fast idle threads wake (0.16-0.44 quartile
/// spread between runs), so it feeds only the traced run's tail figures.
LoadStats open_loop(Load& load, Mix& mix, std::size_t slots) {
  LoadStats stats;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto due_of = [&](std::size_t slot) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(slot / kOpenRate));
  };
  std::size_t slot = 0, conn = 0;
  while (slot < slots || load.in_flight() > 0) {
    const auto now = Clock::now();
    while (slot < slots && due_of(slot) <= now) {
      const auto due = due_of(slot);
      const double u = mix.uniform();
      if (u < 0.60) {
        load.send(conn++ % kConnections, mix.cold(true), due, stats);
      } else if (u < 0.70) {
        load.send(conn++ % kConnections, mix.cold(false), due, stats);
      } else if (u < 0.75) {
        const std::size_t point = mix.cold(true);
        for (std::size_t i = 0; i < kBurst; ++i)
          load.send(conn++ % kConnections, point, due, stats);
      } else {
        load.send(conn++ % kConnections, mix.repeat(), due, stats);
      }
      ++slot;
    }
    load.receive(slot < slots ? due_of(slot) - Clock::now()
                              : std::chrono::milliseconds(50),
                 stats);
  }
  return stats;
}

/// Closed loop: kWindow requests in flight per connection for `seconds`;
/// each finished request is replaced at once: 75% a cold 6v point, 5% the
/// point sent last (often still in flight, so the daemon coalesces the
/// two), and otherwise a repeat of an earlier point.
LoadStats closed_loop(Load& load, Mix& mix, double seconds) {
  LoadStats stats;
  std::size_t last = 0;
  auto next_point = [&] {
    const double u = mix.uniform();
    if (u < 0.75) last = mix.cold(true);
    else if (u >= 0.80) last = mix.repeat();
    return last;
  };
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < kConnections; ++c)
    for (std::size_t w = 0; w < kWindow; ++w)
      load.send(c, next_point(), Clock::now(), stats);
  while (load.in_flight() > 0) {
    for (std::size_t c : load.receive(std::chrono::milliseconds(50), stats))
      if (Clock::now() < end) load.send(c, next_point(), Clock::now(), stats);
  }
  return stats;
}

/// The daemon's `stats` payload.
nvp::service::wire::Value daemon_stats(nvp::service::Client& client) {
  std::string error;
  auto response = client.call(7, R"({"id":7,"method":"stats"})", &error);
  if (!response || !response->ok || response->result == nullptr)
    throw std::runtime_error("stats request failed: " + error);
  return *response->result;
}

double field(const nvp::service::wire::Value& v, const char* object,
             const char* key) {
  const auto* o = v.get(object);
  return o == nullptr ? 0.0 : o->number_or(key, 0.0);
}

double seconds_to_first_answer(const std::string& nvpcli,
                               const std::string& log,
                               std::unique_ptr<Daemon>* keep) {
  const auto t0 = Clock::now();
  auto daemon = std::make_unique<Daemon>(nvpcli, "", log);
  auto client = connect_to(*daemon);
  std::string error;
  if (!client.call(2, R"({"id":2,"method":"ping"})", &error))
    throw std::runtime_error("ping failed: " + error);
  const double s = seconds_between(t0, Clock::now());
  client.close();
  if (keep != nullptr) *keep = std::move(daemon);
  return s;
}

/// Asks `daemon` for every point in `points` on one connection and keeps
/// the answers; returns the number of failed requests.
std::uint64_t ask_all(const Daemon& daemon, Mix& mix,
                      const std::vector<std::size_t>& points) {
  auto client = connect_to(daemon);
  std::uint64_t failed = 0;
  std::string error;
  for (std::size_t i = 0; i < points.size(); ++i) {
    Point& point = mix.points()[points[i]];
    std::optional<nvp::service::Response> r;
    {
      Trace::Op op(trace(), "bench.service::Client::call");
      r = client.call(10 + i, analyze_request(10 + i, point), &error);
    }
    const auto* value = r && r->ok && r->result != nullptr
                            ? r->result->get("expected_reliability")
                            : nullptr;
    if (value != nullptr && value->is_number())
      point.answers.push_back(value->as_number());
    else
      ++failed;
  }
  return failed;
}

/// Replays the store's entries through store::Store::get and ::put (into
/// a second directory) in-process; returns (get p50 ms, put p50 ms).
std::pair<double, double> replay_store(const std::string& dir,
                                       const std::string& copy_dir) {
  std::string error;
  fs::remove_all(copy_dir);
  auto store = nvp::store::Store::open(dir, {}, &error);
  auto copy = nvp::store::Store::open(copy_dir, {}, &error);
  if (!store || !copy) throw std::runtime_error("store open: " + error);
  const std::map<std::string, nvp::store::Kind> kinds = {
      {"structure", nvp::store::Kind::kStructure},
      {"rates", nvp::store::Kind::kRates},
      {"reward_table", nvp::store::Kind::kRewardTable},
      {"rewards", nvp::store::Kind::kRewards},
      {"whole_result", nvp::store::Kind::kWholeResult}};
  std::vector<double> get_s, put_s;
  for (const auto& entry : fs::directory_iterator(dir + "/entries")) {
    const std::string name = entry.path().stem().string();
    const auto dash = name.rfind('-');
    auto kind = kinds.find(name.substr(0, dash));
    if (dash == std::string::npos || kind == kinds.end()) continue;
    const std::uint64_t key = std::stoull(name.substr(dash + 1), nullptr, 16);
    auto t0 = Clock::now();
    std::optional<std::vector<std::uint8_t>> bytes;
    {
      Trace::Op op(trace(), "bench.store::Store::get");
      bytes = store->get(kind->second, key);
    }
    get_s.push_back(seconds_between(t0, Clock::now()));
    if (!bytes) continue;
    t0 = Clock::now();
    {
      Trace::Op op(trace(), "bench.store::Store::put");
      copy->put(kind->second, key, bytes->data(), bytes->size());
    }
    put_s.push_back(seconds_between(t0, Clock::now()));
  }
  return {median(get_s) * 1e3, median(put_s) * 1e3};
}

/// The traced store phase: a daemon with `--store` solves kStorePoints
/// cold points and writes them; a later daemon process is asked the same
/// points and reads them from the store. Then the entries are replayed
/// in-process through Store::get and ::put.
void store_phase(const Args& args, Mix& mix, LayerInputs& in, Outcome& out) {
  const std::string store = args.out_dir + "/nvpd-store";
  const std::string log = args.out_dir + "/nvpd-store.log";
  fs::remove_all(store);
  std::vector<std::size_t> points;
  for (std::size_t i = 0; i < kStorePoints; ++i)
    points.push_back(mix.cold(true));
  for (int pass = 0; pass < 2; ++pass) {
    Daemon daemon(args.nvpcli, store, log);
    auto client = connect_to(daemon);
    const auto before = daemon_stats(client);
    out.attempted += points.size();
    out.failed += ask_all(daemon, mix, points);
    const auto after = daemon_stats(client);
    if (pass == 0)
      in.store_bytes_written =
          field(after, "store", "bytes") - field(before, "store", "bytes");
    else
      in.store_entries_read =
          field(after, "store", "hits") - field(before, "store", "hits");
  }
  std::tie(in.store_get_ms_p50, in.store_put_ms_p50) =
      replay_store(store, args.out_dir + "/nvpd-store-copy");
}

}  // namespace

Outcome run_nvpd_mixed(const Args& args) {
  if (args.nvpcli.empty()) throw std::runtime_error("--nvpcli is required");
  Outcome out;
  const std::string log = args.out_dir + "/nvpd.log";
  Mix mix(args.seed);

  // Set-up: daemon start until its first answer; the last daemon serves
  // the run.
  std::unique_ptr<Daemon> daemon;
  std::vector<double> starts;
  for (int i = 0; i < kDaemonStarts; ++i)
    starts.push_back(seconds_to_first_answer(
        args.nvpcli, log, i == kDaemonStarts - 1 ? &daemon : nullptr));
  std::vector<nvp::service::Client> conns;
  for (std::size_t c = 0; c < kConnections; ++c)
    conns.push_back(connect_to(*daemon));
  const auto stats0 = daemon_stats(conns[0]);
  // Point 0, the paper's 4v default, first: repeats draw from the points
  // already asked.
  out.attempted = 1;
  out.failed = ask_all(*daemon, mix, {0});
  mix.mark_issued(0);

  Load load(conns, mix, false);
  auto rate = [](const LoadStats& s) {
    return double(s.latency_s.size()) /
           seconds_between(s.first_send, s.last_response);
  };
  if (!args.trace) {
    const LoadStats closed = closed_loop(load, mix, args.seconds);
    out.attempted += closed.attempted;
    out.failed += closed.failed;
    out.set("setup_s", median(starts), "s");
    out.set("throughput_per_s", rate(closed), "1/s");
    out.set("latency_p50_ms", median(closed.latency_s) * 1e3, "ms");
    out.set("peak_rss_mb", peak_rss_mb_of(daemon->pid()), "MiB");
  } else {
    // Open loop, untraced, at least 1000 requests (the p99 rule); then the
    // closed loop for half the run untraced and half traced.
    const LoadStats open = open_loop(load, mix, 1000);
    const LoadStats closed = closed_loop(load, mix, args.seconds / 2);
    out.attempted += open.attempted + closed.attempted;
    out.failed += open.failed + closed.failed;
    LayerInputs in;
    in.loadgen_latency_p99_ms =
        quantile(open.latency_s, 0.99).value_or(0.0) * 1e3;
    in.loadgen_lag_ms_p99 = quantile(open.lag_s, 0.99).value_or(0.0) * 1e3;
    const Counters before;
    trace().enable();
    Load traced_load(conns, mix, true);
    const LoadStats traced = closed_loop(traced_load, mix, args.seconds / 2);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    in.trace_overhead = rate(closed) / rate(traced);
    // Round trip of a cache hit to the now idle daemon.
    std::vector<double> rtt;
    std::string error;
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      {
        Trace::Op op(trace(), "bench.service::Client::call");
        if (!conns[0].call(3, analyze_request(3, mix.points()[0]), &error))
          throw std::runtime_error("rtt request failed: " + error);
      }
      rtt.push_back(seconds_between(t0, Clock::now()));
    }
    in.service_rtt_ms_p50 = median(rtt) * 1e3;
    const auto stats1 = daemon_stats(conns[0]);
    in.service_executed =
        field(stats1, "service", "executed") - field(stats0, "service", "executed");
    in.service_coalesced = field(stats1, "service", "coalesced") -
                           field(stats0, "service", "coalesced");
    StageTally tally;
    const auto* c0 = stats0.get("caches");
    const auto* c1 = stats1.get("caches");
    if (c0 == nullptr || c1 == nullptr)
      throw std::runtime_error("stats reply has no caches table");
    for (std::size_t i = 0; i < StageTally::kLevels.size(); ++i) {
      tally.hits[i] = std::uint64_t(field(*c1, StageTally::kLevels[i], "hits") -
                                    field(*c0, StageTally::kLevels[i], "hits"));
      tally.misses[i] =
          std::uint64_t(field(*c1, StageTally::kLevels[i], "misses") -
                        field(*c0, StageTally::kLevels[i], "misses"));
    }
    for (auto& c : conns) c.close();
    daemon->stop();
    store_phase(args, mix, in, out);
    const Counters after;
    set_layer_metrics(out, in, before, after, tally);
    trace().write(args.out_dir + "/trace-nvpd_mixed.jsonl");
  }
  for (auto& c : conns) c.close();
  daemon->stop();

  // Every answer against an in-process analyze of the same parameters.
  auto& points = mix.points();
  std::vector<double> local(points.size());
  const Engine engine;
  nvp::runtime::parallel_for(points.size(), [&](std::size_t i) {
    if (!points[i].answers.empty())
      local[i] = engine.analyze_raw(points[i].params).expected_reliability;
  });
  out.checks.push_back({"response_equals_analyze", [=](bool perturb) {
    std::size_t compared = 0;
    for (std::size_t i = 0; i < points.size(); ++i)
      for (double answer : points[i].answers) {
        if (answer != local[i] + (perturb ? 1e-15 : 0.0)) return false;
        ++compared;
      }
    return compared > 0;
  }});
  const double paper_4v =
      points[0].answers.empty() ? 0.0 : points[0].answers.front();
  out.checks.push_back({"paper_4v_0.5pct", [=](bool perturb) {
    const double reference = 0.8233477 * (perturb ? 1.01 : 1.0);
    return std::fabs(paper_4v - reference) <= 0.005 * reference;
  }});
  return out;
}

}  // namespace perfbench
