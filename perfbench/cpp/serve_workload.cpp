/// serve_mix: a dopf_serve --workers 2 subprocess driven open loop.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/solve_model.hpp"
#include "core/solve_session.hpp"
#include "opf/model.hpp"
#include "robust/preflight.hpp"
#include "runtime/scenario.hpp"
#include "serve/client.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Offered load: Poisson arrivals at half the capacity of two workers on
/// this mix, and the p95 latency limit goodput counts against.
/// BENCHMARK.json states both. The capacity is the median of six
/// --closed-loop runs (682 requests each, seeds 1-6, four lanes) on a
/// shared 4-core x86-64 host: 36.8-39.3 requests/s, median 37.8/s. The
/// capacity moves with the host's load: other sets on the same host read
/// 24.6-36.4/s (busier) and 42.0-44.2/s (quieter).
constexpr double kRatePerSecond = 18.9;
constexpr double kLatencyLimit = 1.0;
constexpr int kWorkers = 2;
constexpr double kShareIeee123 = 0.15;

/// A dopf_serve subprocess. The destructor kills and reaps a server that
/// was not drained, so no child outlives the bench on any path.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const std::string& dir, int index)
      : socket_path_(dir + "/s" + std::to_string(index) + ".sock"),
        stdout_path_(dir + "/server" + std::to_string(index) + ".out") {
    std::vector<std::string> args = {bin,         "--socket",
                                     socket_path_, "--workers",
                                     std::to_string(kWorkers),
                                     "--metrics-json"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid_ == 0) {
      // Child, async-signal-safe calls only. The server gets SIGTERM (a
      // clean drain) if the bench dies first, so it never outlives it.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) ::_exit(127);
      const int fd =
          ::open(stdout_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0) ::_exit(127);
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  const std::string& socket_path() const { return socket_path_; }

  /// Poll with single-attempt pings until one is answered.
  bool wait_ready(double timeout_s) {
    const auto t0 = Clock::now();
    dopf::serve::ClientOptions co;
    co.socket_path = socket_path_;
    co.retries = 0;
    while (seconds_between(t0, Clock::now()) < timeout_s) {
      dopf::serve::Client probe(co);
      if (probe.ping(1)) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return false;
  }

  /// SIGTERM, wait, return the exit code (-1 when killed by a signal) and
  /// the server's --metrics-json line.
  int drain(std::string* metrics_json) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    std::ifstream in(stdout_path_);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] == '{') *metrics_json = line;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
  std::string stdout_path_;
};

/// Value of a nested key ("rejected.overload") in the server's flat,
/// well-formed metrics object: each component is searched after its
/// parent's position.
double json_field(const std::string& json, const std::string& path) {
  std::size_t pos = 0;
  std::istringstream parts(path);
  std::string part;
  while (std::getline(parts, part, '.')) {
    pos = json.find("\"" + part + "\":", pos);
    if (pos == std::string::npos) {
      throw std::runtime_error("metrics json lacks " + path);
    }
    pos += part.size() + 3;
  }
  return std::strtod(json.c_str() + pos, nullptr);
}

struct RequestSpec {
  std::string feeder;  ///< "ieee13" or "ieee123"
  std::string scale;   ///< "%.3f" load scale
};

dopf::serve::SolveRequest make_request(const RequestSpec& spec,
                                       std::uint64_t id) {
  dopf::serve::SolveRequest req;
  req.request_id = id;
  req.feeder = "builtin:" + spec.feeder;
  req.scenario = "load * scale " + spec.scale + "\n";
  req.eps_rel = kEpsRel;
  req.check_every = kCheckEvery;
  return req;
}

/// The server's documented contract: a response equals a solo cold
/// SolveSession solve of the same request (same preflight, projector
/// options and equilibration as the worker's cold path). Returns the
/// encoded response with request id 0.
std::string solo_response(const dopf::serve::SolveRequest& req,
                          const std::string& feeder, SpanRecorder* rec) {
  const auto net = make_network(feeder);
  const auto base_model = dopf::opf::build_model(net);
  dopf::robust::PreflightOptions popt;
  popt.policy = dopf::robust::parse_policy(req.preflight);
  dopf::opf::DistributedProblem problem;
  const auto pre =
      dopf::robust::run_preflight(net, base_model, &problem, popt);
  dopf::opf::DecomposeOptions dec;
  dec.equilibrate_rows = pre.equilibrated;
  dopf::core::SolveModel model(problem, pre.projector_options());
  dopf::core::ScenarioBinding binding(model);

  std::istringstream in("scenario request\n" + req.scenario + "end\n");
  const auto sc = dopf::runtime::parse_scenarios(in).at(0);
  dopf::opf::DistributedProblem problem_s;
  {
    // The worker's per-request re-decompose, timed on identical inputs.
    ScopedSpan span(rec, "opf.decompose", -1);
    const auto net_s = dopf::runtime::apply_scenario(net, sc);
    problem_s = dopf::opf::decompose(net_s, dopf::opf::build_model(net_s),
                                     dec);
  }
  dopf::core::AdmmOptions opt;
  opt.rho = req.rho;
  opt.eps_rel = req.eps_rel;
  opt.max_iterations = static_cast<int>(req.max_iterations);
  opt.check_every = static_cast<int>(req.check_every);
  opt.projector = pre.projector_options();
  dopf::core::SolveSession session(binding, opt);
  session.rebind(problem_s);
  const auto res = session.solve();
  dopf::serve::SolveResponse resp;
  resp.status = static_cast<std::uint8_t>(res.status);
  resp.converged = res.converged;
  resp.iterations = static_cast<std::uint32_t>(res.iterations);
  resp.objective = res.objective;
  resp.primal_residual = res.primal_residual;
  resp.dual_residual = res.dual_residual;
  resp.model_fp = binding.model_fingerprint();
  resp.scenario_fp = binding.scenario_fingerprint();
  return resp.encode();
}

struct RequestResult {
  bool response = false;
  std::string error;  ///< typed reject or ClientError text
  int attempts = 0;
  double latency = 0.0;   ///< from scheduled send to response
  double lateness = 0.0;  ///< how late the generator sent it
  bool traced = false;
  std::string bytes;  ///< encoded response, request id zeroed
  Clock::time_point finished;
};

}  // namespace

void run_serve_mix(const Options& opt, Report& report) {
  const std::string bin = opt.bin_dir + "/dopf_serve";
  const double seconds = opt.short_mode ? std::min(opt.seconds, 2.0)
                                        : opt.seconds;
  const int lanes = capped_nproc(4);
  std::mt19937_64 rng(opt.seed);

  // Inputs: a small seeded set of load scales and the arrival schedule.
  std::vector<std::string> scales;
  while (scales.size() < 4) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.3f", uniform(rng, 0.98, 1.02));
    if (std::find(scales.begin(), scales.end(), buf) == scales.end()) {
      scales.push_back(buf);
    }
  }
  // Poisson arrivals conditioned on their count: n uniform send times.
  const auto n =
      static_cast<std::size_t>(std::lround(kRatePerSecond * seconds));
  std::vector<double> send_at(n);
  std::vector<RequestSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    send_at[i] = uniform(rng, 0.0, seconds);
  }
  std::sort(send_at.begin(), send_at.end());
  // The mix is fixed and only its order is seeded: exactly 15% ieee123
  // requests, one at a seeded position in each of n123 equal blocks of
  // the arrival order, and each feeder's requests take the scales in
  // turn. A drawn mix moved the run's p95 with the binomial count and the
  // clustering of the slow ieee123 requests.
  const auto n123 = static_cast<std::size_t>(std::lround(kShareIeee123 * n));
  for (auto& spec : specs) spec.feeder = "ieee13";
  for (std::size_t b = 0; b < n123; ++b) {
    const std::size_t lo = b * n / n123;
    const std::size_t hi = (b + 1) * n / n123;
    specs[lo + rng() % (hi - lo)].feeder = "ieee123";
  }
  std::size_t dealt[2] = {rng() % scales.size(), rng() % scales.size()};
  for (auto& spec : specs) {
    spec.scale = scales[dealt[spec.feeder == "ieee123"]++ % scales.size()];
  }
  if (opt.closed_loop) {
    std::printf("serve_mix: %zu requests closed loop", n);
  } else {
    std::printf("serve_mix: %zu requests over %.1f s (%.1f/s Poisson)", n,
                seconds, kRatePerSecond);
  }
  std::printf(", %d lanes, %d workers, scales", lanes, kWorkers);
  for (const auto& s : scales) std::printf(" %s", s.c_str());
  std::printf(", p95 limit %.2f s\n", kLatencyLimit);

  std::unique_ptr<SpanRecorder> rec;
  if (opt.traced) rec = std::make_unique<SpanRecorder>();

  // Set-up: server spawn to first answered ping, several times; the last
  // server serves the load.
  std::vector<double> setup;
  std::unique_ptr<ServerProcess> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(bin, opt.work_dir, rep);
    if (!server->wait_ready(30.0)) {
      report.fail("server did not answer a ping within 30 s");
      return;
    }
    setup.push_back(seconds_between(t0, Clock::now()));
    if (rep + 1 < kSetupReps) {
      std::string ignored;
      const int code = server->drain(&ignored);
      if (code != 0) {
        report.fail("set-up server exited " + std::to_string(code));
      }
    }
  }

  dopf::serve::ClientOptions co;
  co.socket_path = server->socket_path();
  long long responses = 0;
  std::map<std::string, std::string> reference;  // "feeder scale" -> bytes
  std::vector<std::pair<std::string, dopf::serve::SolveResponse>> received;

  // Ping round trips and the unloaded closed-loop pass, one lane; both
  // feed per-layer metrics only, so untraced runs skip them.
  std::vector<double> rtt, unloaded13, unloaded123;
  if (opt.traced) {
    dopf::serve::Client client(co);
    for (int i = 0; i < 20; ++i) {
      const auto t0 = Clock::now();
      if (!client.ping(100 + i)) report.fail("ping unanswered");
      rtt.push_back(seconds_between(t0, Clock::now()));
    }
    const int reps = opt.short_mode ? 2 : 6;
    std::uint64_t id = 500;
    for (int rep = 0; rep < reps; ++rep) {
      for (const char* feeder : {"ieee13", "ieee123"}) {
        const RequestSpec spec{feeder, scales[rep % scales.size()]};
        const auto t0 = Clock::now();
        const auto out = client.submit(make_request(spec, ++id));
        const double dt = seconds_between(t0, Clock::now());
        if (out.kind != dopf::serve::Outcome::Kind::kResponse) {
          report.fail("unloaded request rejected: " + out.reject.message);
          continue;
        }
        ++responses;
        received.emplace_back(spec.feeder + " " + spec.scale, out.response);
        // The first two passes fill the two workers' caches; skip them.
        if (rep >= 2 || opt.short_mode) {
          (spec.feeder == "ieee13" ? unloaded13 : unloaded123).push_back(dt);
        }
      }
    }
  }

  // Load phase: open loop, each lane takes the next scheduled request.
  std::vector<RequestResult> results(n);
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto lane_main = [&](int lane) {
    dopf::serve::ClientOptions lco = co;
    lco.seed = static_cast<std::uint64_t>(lane) + 1;
    dopf::serve::Client client(lco);
    for (std::size_t i = next++; i < n; i = next++) {
      const auto due =
          opt.closed_loop
              ? std::max(start, Clock::now())
              : start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(send_at[i]));
      std::this_thread::sleep_until(due);
      RequestResult& r = results[i];
      r.lateness = seconds_between(due, Clock::now());
      // Traced runs trace every other request, so traced and untraced
      // requests share one load period.
      r.traced = opt.traced && i % 2 == 1;
      try {
        ScopedSpan span(r.traced ? rec.get() : nullptr, "serve.submit",
                        static_cast<std::int64_t>(i));
        const auto out = client.submit(make_request(specs[i], 1000 + i));
        r.attempts = out.attempts;
        if (out.kind == dopf::serve::Outcome::Kind::kResponse) {
          r.response = true;
          auto resp = out.response;
          resp.request_id = 0;
          r.bytes = resp.encode();
        } else {
          r.error = std::string(dopf::serve::to_string(out.reject.code)) +
                    ": " + out.reject.message;
        }
      } catch (const dopf::serve::ClientError& e) {
        r.attempts = co.retries + 1;
        r.error = e.what();
      }
      r.finished = Clock::now();
      r.latency = seconds_between(due, r.finished);
    }
  };
  {
    std::vector<std::thread> threads;
    for (int lane = 0; lane < lanes; ++lane) {
      threads.emplace_back(lane_main, lane);
    }
    for (auto& t : threads) t.join();
  }

  // Drain: SIGTERM, exit 0 required, then the server's counters.
  std::string metrics;
  const int code = server->drain(&metrics);
  server.reset();
  if (code != 0) report.fail("server drain exited " + std::to_string(code));
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  if (::waitpid(-1, nullptr, WNOHANG) != -1 || errno != ECHILD) {
    report.fail("a child process outlived the drain");
  }

  // Per-request accounting and the byte-identity check against solo
  // solves of each distinct request, outside the timed region.
  auto ref_for = [&](const RequestSpec& spec) -> const std::string& {
    const std::string key = spec.feeder + " " + spec.scale;
    auto it = reference.find(key);
    if (it == reference.end()) {
      it = reference
               .emplace(key, solo_response(make_request(spec, 0), spec.feeder,
                                           rec.get()))
               .first;
    }
    return it->second;
  };
  for (auto& [key, resp] : received) {
    const auto sp = key.find(' ');
    resp.request_id = 0;
    if (resp.encode() != ref_for({key.substr(0, sp), key.substr(sp + 1)})) {
      report.fail("unloaded response differs from a solo solve: " + key);
      ++report.failed;
    }
  }
  std::vector<double> lat, lateness, lat_traced, lat_untraced;
  long long good = 0, attempts = 0;
  auto end = start;
  for (std::size_t i = 0; i < n; ++i) {
    const RequestResult& r = results[i];
    ++report.attempted;
    attempts += r.attempts;
    lat.push_back(r.latency);
    lateness.push_back(r.lateness);
    (r.traced ? lat_traced : lat_untraced).push_back(r.latency);
    end = std::max(end, r.finished);
    if (!r.response) {
      ++report.failed;
      std::fprintf(stderr, "request %zu failed: %s\n", i, r.error.c_str());
      continue;
    }
    ++responses;
    if (r.bytes != ref_for(specs[i])) {
      report.fail("response " + std::to_string(i) +
                  " differs from a solo solve of the same request");
      ++report.failed;
      continue;
    }
    if (r.latency <= kLatencyLimit) ++good;
  }
  const double wall = seconds_between(start, end);
  if (opt.closed_loop) {
    const auto answered = std::count_if(
        results.begin(), results.end(),
        [](const RequestResult& r) { return r.response; });
    std::printf("closed loop: %ld responses in %.3f s = %.2f/s\n",
                static_cast<long>(answered), wall,
                static_cast<double>(answered) / wall);
  }

  double admitted = 0, solved = 0;
  try {
    admitted = json_field(metrics, "admitted");
    solved = json_field(metrics, "solved");
    const double post_admission =
        json_field(metrics, "rejected.deadline") +
        json_field(metrics, "rejected.preflight") +
        json_field(metrics, "rejected.bad_request") +
        json_field(metrics, "drained_checkpointed");
    if (admitted != solved + post_admission) {
      report.fail("admitted != solved + typed rejects");
    }
    if (solved != static_cast<double>(responses)) {
      report.fail("server solved " + std::to_string(solved) +
                  " but the bench received " + std::to_string(responses));
    }
  } catch (const std::exception& e) {
    report.fail(e.what());
  }
  std::printf("served %lld responses, %lld failed; %s\n", responses,
              report.failed,
              report.correct ? "every response equals its solo solve"
                             : "CHECK FAILED");

  report.end_to_end.set("setup_s", median(setup), kSetupReps,
                        "server spawn to first answered ping");
  set_latency(report, lat);
  report.end_to_end.set("throughput_ops_s",
                        static_cast<double>(good) / wall,
                        static_cast<long long>(n),
                        "goodput: correct responses within " +
                            std::to_string(kLatencyLimit) + " s / wall");
  report.end_to_end.set("peak_rss_mb",
                        static_cast<double>(ru.ru_maxrss) / 1024.0, 1,
                        "largest server-side process (RUSAGE_CHILDREN)");

  if (!opt.traced || metrics.empty()) return;
  auto& l = report.per_layer;
  const auto nn = static_cast<long long>(n);
  l.set("serve.unloaded_s.ieee13", median(unloaded13),
        static_cast<long long>(unloaded13.size()), "closed loop, one lane");
  l.set("serve.unloaded_s.ieee123", median(unloaded123),
        static_cast<long long>(unloaded123.size()), "closed loop, one lane");
  l.set("serve.ping_rtt_s", median(rtt), static_cast<long long>(rtt.size()));
  l.set("serve.attempts_per_request",
        static_cast<double>(attempts) / static_cast<double>(nn), nn,
        std::to_string(attempts) + " attempts / " + std::to_string(nn) +
            " requests");
  l.set("serve.overload_retries", static_cast<double>(attempts - nn), nn,
        "attempts beyond the first (no transport faults are injected)");
  l.set("serve.gen_late_p95_s", percentile(lateness, 0.95), nn);
  const double hits = json_field(metrics, "cache.hits");
  const double misses = json_field(metrics, "cache.misses");
  l.set("serve.cache_hit_rate", hits / std::max(1.0, hits + misses), 1,
        std::to_string(static_cast<long long>(hits)) + " hits / " +
            std::to_string(static_cast<long long>(hits + misses)) +
            " lookups");
  l.set("serve.refactorizations_per_request",
        json_field(metrics, "session.refactorizations") /
            std::max(1.0, solved),
        static_cast<long long>(solved));
  l.set("serve.rhs_rebinds_per_request",
        json_field(metrics, "session.rhs_rebinds") / std::max(1.0, solved),
        static_cast<long long>(solved));
  for (const char* c : {"overload", "deadline", "preflight", "bad_request",
                        "wire", "shutdown", "quarantined", "degraded"}) {
    l.set(std::string("serve.rejected.") + c,
          json_field(metrics, std::string("rejected.") + c), 1);
  }
  l.set("serve.worker_restarts", json_field(metrics, "workers.restarts"), 1);
  span_metric(*rec, "opf.decompose", "opf.decompose_s", "opf.decompose_calls",
              report);
  overhead_metric(lat_untraced, lat_traced, report);
  rec->write_chrome_json(opt.trace_path);
}

}  // namespace perfbench
