/// cold8500_serial / cold8500_threads: cold ieee8500 solves, closed loop.
/// stream123_day: a seeded 288-step ieee123 day through one warm session.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/admm.hpp"
#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "core/solve_session.hpp"
#include "feeders/ieee13.hpp"
#include "feeders/synthetic.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"
#include "robust/preflight.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/scenario.hpp"
#include "runtime/threaded_backend.hpp"
#include "stream/driver.hpp"
#include "stream/profile.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::string fixed3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

dopf::core::AdmmOptions admm_options() {
  dopf::core::AdmmOptions o;
  o.eps_rel = kEpsRel;
  o.check_every = kCheckEvery;
  return o;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Median of op-span coverage: the share of each operation span that its
/// direct child spans account for. admm.solve is one of those children and
/// encloses the whole solve, so this shows only the untraced glue between
/// the children; whether the kernels account for the solve is checked by
/// kernel_metrics.
void coverage_metric(const SpanRecorder& rec, const char* op_span,
                     Report& report) {
  std::vector<double> cov;
  for (const Span& s : rec.spans()) {
    if (std::strcmp(s.name, op_span) == 0 && s.duration() > 0.0) {
      cov.push_back(s.child / s.duration());
    }
  }
  report.per_layer.set("trace.coverage_frac", median(cov),
                       static_cast<long long>(cov.size()),
                       std::string("child spans / ") + op_span);
}

}  // namespace

int capped_nproc(int cap) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, cap);
}

double uniform(std::mt19937_64& rng, double lo, double hi) {
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

dopf::network::Network make_network(const std::string& name) {
  if (name == "ieee13") return dopf::feeders::ieee13();
  if (name == "ieee123") {
    return dopf::feeders::synthetic_feeder(dopf::feeders::ieee123_spec());
  }
  if (name == "ieee8500") {
    return dopf::feeders::synthetic_feeder(dopf::feeders::ieee8500_spec());
  }
  throw std::invalid_argument("unknown feeder " + name);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------

void run_cold8500(const Options& opt, bool threaded, Report& report) {
  const std::string instance = opt.short_mode ? "ieee13" : "ieee8500";
  const int threads = capped_nproc(kMaxBackendThreads);
  auto make_backend = [&] {
    return threaded ? dopf::runtime::make_threaded_backend(threads)
                    : dopf::core::make_serial_backend();
  };

  // Input: one global load scale per seed, from a band in which every
  // scale converges at ε_rel = 1e-3.
  std::mt19937_64 rng(opt.seed);
  const double scale = std::round(uniform(rng, 0.990, 1.010) * 1000) / 1000;
  const std::string scenario_text =
      "scenario seeded\n  load * scale " + fixed3(scale) + "\nend\n";
  std::printf("%s: %s, load scale %s, backend %s\n", opt.workload.c_str(),
              instance.c_str(), fixed3(scale).c_str(),
              threaded ? ("threaded T=" + std::to_string(threads)).c_str()
                       : "serial");

  std::unique_ptr<SpanRecorder> rec;
  if (opt.traced) rec = std::make_unique<SpanRecorder>();

  // Set-up: build the instance from the generated input.
  std::vector<double> setup;
  dopf::opf::DistributedProblem problem;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    std::istringstream in(scenario_text);
    const auto scenarios = dopf::runtime::parse_scenarios(in);
    const auto net =
        dopf::runtime::apply_scenario(make_network(instance), scenarios.at(0));
    {
      ScopedSpan span(rec.get(), "opf.decompose", -1);
      problem = dopf::opf::decompose(net, dopf::opf::build_model(net));
    }
    setup.push_back(seconds_between(t0, Clock::now()));
  }

  const auto options = admm_options();
  std::int64_t op_id = 0;
  std::vector<double> lat_untraced, lat_traced;
  std::map<std::int64_t, long long> iterations_traced;  // per traced op
  dopf::core::AdmmResult first;
  bool have_first = false;

  const auto start = Clock::now();
  auto end = start;
  for (int i = 0;; ++i) {
    // Traced runs alternate untraced and traced operations, so the
    // tracing overhead is measured on the same inputs in one process.
    const bool traced_op = opt.traced && i % 2 == 1;
    SpanRecorder* r = traced_op ? rec.get() : nullptr;
    op_id = i;
    const auto t0 = Clock::now();
    dopf::core::AdmmResult res;
    {
      ScopedSpan op(r, "op.cold_solve", i);
      std::unique_ptr<dopf::core::SolveModel> model;
      {
        ScopedSpan s(r, "core.factorize", i);
        model = std::make_unique<dopf::core::SolveModel>(problem);
      }
      std::unique_ptr<dopf::core::ScenarioBinding> binding;
      {
        ScopedSpan s(r, "core.pack", i);
        binding = std::make_unique<dopf::core::ScenarioBinding>(*model);
      }
      dopf::core::SolverFreeAdmm admm(*binding, options);
      std::unique_ptr<dopf::core::ExecutionBackend> backend = make_backend();
      if (traced_op) {
        backend = std::make_unique<TimingBackend>(std::move(backend), *rec,
                                                  op_id);
      }
      admm.set_backend(std::move(backend));
      {
        ScopedSpan s(r, "admm.solve", i);
        res = admm.solve();
      }
    }
    end = Clock::now();
    const double dt = seconds_between(t0, end);
    (traced_op ? lat_traced : lat_untraced).push_back(dt);
    if (traced_op) iterations_traced[i] = res.iterations;
    ++report.attempted;
    bool ok = res.converged;
    if (!ok) report.fail("op " + std::to_string(i) + " did not converge");
    if (!have_first) {
      first = res;
      have_first = true;
    } else if (res.iterations != first.iterations ||
               !same_bits(res.objective, first.objective)) {
      report.fail("op " + std::to_string(i) +
                  " differs from op 0 on identical input (" +
                  std::to_string(res.iterations) + " vs " +
                  std::to_string(first.iterations) + " iterations)");
      ok = false;
    }
    if (!ok) ++report.failed;
    // Start another solve only while it is expected to end in time.
    const double elapsed = seconds_between(start, end);
    const bool both_kinds = !opt.traced || !lat_traced.empty();
    if (both_kinds && elapsed + dt > opt.seconds) break;
  }
  const double wall = seconds_between(start, end);
  const double rss = self_peak_rss_mb();

  // Cross-backend check, outside the timed region: a serial solve of the
  // same input must give identical iterations and objective bits. Run on
  // the threaded workload only; the serial workload is the reference.
  if (threaded) {
    dopf::core::SolverFreeAdmm serial(problem, options);
    const auto res = serial.solve();
    if (res.iterations != first.iterations ||
        !same_bits(res.objective, first.objective)) {
      report.fail(std::string("serial and threaded disagree: ") +
                  std::to_string(res.iterations) + " vs " +
                  std::to_string(first.iterations) + " iterations");
      ++report.failed;
    }
  }
  std::printf("solve: %d iterations, objective %.17g, %s\n", first.iterations,
              first.objective,
              !report.correct ? "MISMATCH"
              : threaded      ? "threaded == serial, bit-identical"
                              : "every op bit-identical");

  report.end_to_end.set("setup_s", median(setup), kSetupReps,
                        "instance build: network, scenario, decompose");
  set_latency(report, lat_untraced);
  report.end_to_end.set(
      "throughput_ops_s",
      static_cast<double>(report.attempted - report.failed) / wall,
      report.attempted, "successful cold solves / measured wall");
  report.end_to_end.set("peak_rss_mb", rss, 1, "bench process");

  if (!opt.traced) return;
  // The pack of this input, for the computed bytes per phase.
  dopf::core::SolveModel model(problem);
  const dopf::core::ScenarioBinding binding(model);
  const auto& pack = binding.pack();
  span_metric(*rec, "opf.decompose", "opf.decompose_s", "opf.decompose_calls",
              report);
  span_metric(*rec, "core.factorize", "core.factorize_s", "", report);
  span_metric(*rec, "core.pack", "core.pack_s", "", report);
  report.per_layer.set("kernel.pack_bytes",
                       static_cast<double>(pack.bytes()), 1);
  kernel_metrics(*rec, "admm.solve", iterations_traced, pack, report);
  coverage_metric(*rec, "op.cold_solve", report);
  overhead_metric(lat_untraced, lat_traced, report);
  triad_metrics(report);
  rec->write_chrome_json(opt.trace_path);
}

// ---------------------------------------------------------------------------

namespace {

/// The two switching events: fixed lines and factors (those of the
/// streaming bench), at seeded steps. A seeded choice of lines moved the
/// day's p95 step latency by up to 20% between seeds.
const char* const kSwitchLines[2] = {"l17", "l43"};
constexpr double kSwitchFactors[2] = {2.0, 1.5};

/// The seeded day: the streaming bench's double-peak load curve with each
/// peak shifted by up to half an hour and scaled by up to ±5%, times ±0.1%
/// jitter per step, and the two re-rates at steps drawn from windows of
/// steps/24 around one third and two thirds of the day. Warm-step
/// iterations follow the step-to-step load change, so the seed reshapes
/// the curve smoothly rather than jittering each step widely; ±1% per-step
/// jitter moved the day's median step latency by up to 35% between seeds.
std::string make_day_profile(std::mt19937_64& rng, int steps) {
  const int window = steps / 24 + 1;
  const int s1 = steps / 3 - steps / 48 + static_cast<int>(rng() % window);
  const int s2 =
      2 * steps / 3 - steps / 48 + static_cast<int>(rng() % window);
  const double morning_h = 8.5 + uniform(rng, -0.5, 0.5);
  const double evening_h = 19.0 + uniform(rng, -0.5, 0.5);
  const double morning_a = 0.18 * uniform(rng, 0.95, 1.05);
  const double evening_a = 0.25 * uniform(rng, 0.95, 1.05);
  std::ostringstream out;
  out << "profile day\nsteps " << steps << "\ndt 300\n";
  for (int k = 0; k < steps; ++k) {
    const double h = 24.0 * k / steps;
    const double morning =
        std::exp(-0.5 * std::pow((h - morning_h) / 2.5, 2.0));
    const double evening =
        std::exp(-0.5 * std::pow((h - evening_h) / 3.0, 2.0));
    const double curve = 0.85 + morning_a * morning + evening_a * evening;
    out << "step " << k << "\n  load constant scale "
        << fixed3(curve * uniform(rng, 0.999, 1.001)) << "\n";
    // Blocks are absolute against base: an actuated switch repeats in
    // every later block.
    for (int e = 0; e < 2; ++e) {
      if (k >= (e == 0 ? s1 : s2)) {
        out << "  switch " << kSwitchLines[e] << " impedance-scale "
            << kSwitchFactors[e] << "\n";
      }
    }
  }
  return out.str();
}

/// One day's set-up: instance, profile, base decomposition and the
/// session's one-time precompute.
struct DayState {
  dopf::network::Network net;
  dopf::stream::StreamProfile profile;
  std::unique_ptr<dopf::core::SolveModel> model;
  std::unique_ptr<dopf::core::ScenarioBinding> binding;
  std::unique_ptr<dopf::core::SolveSession> session;
};

DayState build_day(const std::string& profile_text,
                   const dopf::core::AdmmOptions& options, SpanRecorder* r) {
  DayState st;
  st.net = make_network("ieee123");
  std::istringstream in(profile_text);
  st.profile = dopf::stream::parse_profile(in);
  dopf::opf::DistributedProblem base_problem;
  {
    ScopedSpan s(r, "opf.decompose", -1);
    base_problem =
        dopf::opf::decompose(st.net, dopf::opf::build_model(st.net));
  }
  {
    ScopedSpan s(r, "core.factorize", -1);
    st.model = std::make_unique<dopf::core::SolveModel>(base_problem,
                                                        options.projector);
  }
  {
    ScopedSpan s(r, "core.pack", -1);
    st.binding = std::make_unique<dopf::core::ScenarioBinding>(*st.model);
  }
  st.session = std::make_unique<dopf::core::SolveSession>(*st.binding, options);
  return st;
}

}  // namespace

void run_stream_day(const Options& opt, Report& report) {
  const int steps = opt.short_mode ? 24 : 288;
  const int checkpoint_every = opt.short_mode ? 6 : 24;
  std::mt19937_64 rng(opt.seed);
  const std::string profile_text = make_day_profile(rng, steps);
  const auto options = admm_options();
  dopf::robust::PreflightOptions popt;
  popt.policy = dopf::robust::parse_policy("warn");

  std::unique_ptr<SpanRecorder> rec;
  if (opt.traced) rec = std::make_unique<SpanRecorder>();

  std::vector<double> setup;
  std::vector<double> lat_untraced, lat_traced;
  std::vector<std::vector<std::string>> day_lines;
  std::vector<double> day_untraced;  // wall time of each untraced day
  std::map<std::int64_t, long long> iterations_traced;  // per traced step
  long long iterations_per_day = 0;
  std::int64_t op_id = 0;
  dopf::core::SessionStats traced_session;
  long long retries = 0;
  double checkpoint_bytes = 0.0;
  std::unique_ptr<dopf::core::PackedLocalSolvers> traced_pack;

  // Set-up repetitions beyond the one each day pays, so setup_s is a
  // median of several.
  for (int rep = 1; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    build_day(profile_text, options, nullptr);
    setup.push_back(seconds_between(t0, Clock::now()));
  }

  const auto start = Clock::now();
  auto end = start;
  double last_day = 0.0;
  for (int day = 0;; ++day) {
    const bool traced_day = opt.traced && day % 2 == 1;
    SpanRecorder* r = traced_day ? rec.get() : nullptr;
    const auto day_start = Clock::now();
    DayState st = build_day(profile_text, options, r);
    if (traced_day) {
      st.session->set_backend(std::make_unique<TimingBackend>(
          dopf::core::make_serial_backend(), *rec, op_id));
    }
    const std::string ckpt =
        opt.work_dir + "/stream-day" + std::to_string(day) + ".ckpt";
    dopf::runtime::CheckpointStore store(ckpt);
    dopf::runtime::AdmmCheckpoint last_good;
    setup.push_back(seconds_between(day_start, Clock::now()));
    const auto& net = st.net;
    const auto& profile = st.profile;
    auto& model = st.model;
    auto& binding = st.binding;
    auto& session = *st.session;

    std::vector<std::string> lines;
    for (int k = 0; k < steps; ++k) {
      ++op_id;
      const auto s0 = Clock::now();
      dopf::stream::StreamStepRecord srec;
      srec.step = k;
      {
        ScopedSpan op(r, "op.step", op_id);
        dopf::opf::DistributedProblem problem_k;
        {
          ScopedSpan s(r, "opf.decompose", op_id);
          const auto net_k = dopf::stream::network_at_step(net, profile, k);
          problem_k =
              dopf::opf::decompose(net_k, dopf::opf::build_model(net_k));
        }
        {
          ScopedSpan s(r, "robust.preflight", op_id);
          const auto pre = dopf::robust::run_scenario_preflight(
              model->problem(), problem_k, popt);
          srec.preflight_ran = true;
          srec.preflight_reused = pre.scenario_components_reused;
          if (!pre.accepted) report.fail("preflight rejected a step");
        }
        {
          ScopedSpan s(r, "session.rebind", op_id);
          srec.rebind = session.rebind(problem_k);
        }
        srec.switched = srec.rebind.refactorizations > 0;
        dopf::core::AdmmResult res;
        {
          ScopedSpan s(r, "admm.solve", op_id);
          res = session.solve();
        }
        srec.status = res.status;
        srec.converged = res.converged;
        srec.warm_started = res.warm_started;
        srec.iterations = res.iterations;
        srec.watchdog_stalls = res.watchdog.stalls;
        srec.objective = res.objective;
        srec.primal_residual = res.primal_residual;
        srec.dual_residual = res.dual_residual;
        srec.model_fp = binding->model_fingerprint();
        srec.scenario_fp = binding->scenario_fingerprint();
        // As StreamDriver::run with a checkpoint path: the state after
        // every completed step is captured, every checkpoint_every-th one
        // is saved durably.
        last_good = dopf::runtime::AdmmCheckpoint::capture(session.solver(),
                                                           k, profile.name);
        if ((k + 1) % checkpoint_every == 0) {
          ScopedSpan s(r, "durable.save", op_id);
          const auto io = store.save(last_good);
          if (traced_day) retries += io.retries;
        }
      }
      const double dt = seconds_between(s0, Clock::now());
      (traced_day ? lat_traced : lat_untraced).push_back(dt);
      if (traced_day) iterations_traced[op_id] = srec.iterations;
      ++report.attempted;
      if (!srec.converged) {
        report.fail("day " + std::to_string(day) + " step " +
                    std::to_string(k) + " did not converge");
        ++report.failed;
      }
      lines.push_back(dopf::stream::record_line(srec));
      if (day == 0) iterations_per_day += srec.iterations;
    }
    if (traced_day) {
      traced_session = session.stats();
      checkpoint_bytes =
          static_cast<double>(std::filesystem::file_size(store.slot_a()));
      traced_pack =
          std::make_unique<dopf::core::PackedLocalSolvers>(binding->pack());
    }
    day_lines.push_back(std::move(lines));
    end = Clock::now();
    last_day = seconds_between(day_start, end);
    if (!traced_day) day_untraced.push_back(last_day);
    // Whole days only: start another while it is expected to end in time.
    const double elapsed = seconds_between(start, end);
    const bool both_kinds = !opt.traced || day >= 1;
    if (both_kinds && elapsed + last_day > opt.seconds) break;
  }
  const double wall = seconds_between(start, end);
  const double rss = self_peak_rss_mb();

  // Output check, outside the timed region: every step's record line must
  // equal the one StreamDriver::run produces for the same profile, with
  // the same checkpoint cadence. The reference day is timed from network
  // build to the end of run(), as a bench day is, so a drift between the
  // driver and the steps timed above shows in stream.driver_over_copy.
  double driver_day = 0.0;
  {
    const auto t0 = Clock::now();
    const auto net = make_network("ieee123");
    std::istringstream in(profile_text);
    const auto profile = dopf::stream::parse_profile(in);
    dopf::stream::StreamOptions sopt;
    sopt.admm = options;
    sopt.checkpoint_every_steps = checkpoint_every;
    sopt.checkpoint_path = opt.work_dir + "/stream-reference.ckpt";
    dopf::stream::StreamDriver driver(net, profile, sopt);
    const auto ref = driver.run();
    driver_day = seconds_between(t0, Clock::now());
    for (std::size_t d = 0; d < day_lines.size(); ++d) {
      long long mismatches = 0;
      for (std::size_t k = 0; k < day_lines[d].size(); ++k) {
        if (k >= ref.steps.size() ||
            day_lines[d][k] != dopf::stream::record_line(ref.steps[k])) {
          ++mismatches;
        }
      }
      if (mismatches > 0 || day_lines[d].size() != ref.steps.size()) {
        report.fail("day " + std::to_string(d) + ": " +
                    std::to_string(mismatches) +
                    " step record(s) differ from StreamDriver::run");
        report.failed += mismatches;
      }
    }
  }
  std::printf("%zu day(s) of %d steps, %lld iterations per day, %s\n",
              day_lines.size(), steps, iterations_per_day,
              report.correct ? "every step record matches StreamDriver::run"
                             : "RECORD MISMATCH");

  report.end_to_end.set("setup_s", median(setup),
                        static_cast<long long>(setup.size()),
                        "instance, profile, base decompose, precompute");
  set_latency(report, lat_untraced);
  report.end_to_end.set(
      "throughput_ops_s",
      static_cast<double>(report.attempted - report.failed) / wall,
      report.attempted, "successful steps / measured wall");
  report.end_to_end.set("peak_rss_mb", rss, 1, "bench process");

  if (!opt.traced) return;
  span_metric(*rec, "opf.decompose", "opf.decompose_s", "opf.decompose_calls",
              report);
  span_metric(*rec, "robust.preflight", "robust.preflight_s",
              "robust.preflight_calls", report);
  span_metric(*rec, "core.factorize", "core.factorize_s", "", report);
  span_metric(*rec, "core.pack", "core.pack_s", "", report);
  span_metric(*rec, "session.rebind", "session.rebind_s", "", report);
  report.per_layer.set("kernel.pack_bytes",
                       static_cast<double>(traced_pack->bytes()), 1);
  report.per_layer.set("session.rhs_rebinds", traced_session.rhs_rebinds, 1,
                       "per traced day");
  report.per_layer.set("session.refactorizations",
                       traced_session.refactorizations, 1, "per traced day");
  report.per_layer.set("session.precompute_reuses",
                       traced_session.precompute_reuses, 1, "per traced day");
  span_metric(*rec, "durable.save", "durable.save_s", "durable.saves",
              report);
  report.per_layer.set("durable.bytes", checkpoint_bytes, 1,
                       "bytes per checkpoint file (A/B slots, fsync on)");
  report.per_layer.set("durable.retries", static_cast<double>(retries), 1);
  kernel_metrics(*rec, "admm.solve", iterations_traced, *traced_pack, report);
  coverage_metric(*rec, "op.step", report);
  report.per_layer.set("stream.driver_day_s", driver_day, 1,
                       "StreamDriver::run, one day, network build to end");
  report.per_layer.set("stream.driver_over_copy",
                       driver_day / median(day_untraced),
                       static_cast<long long>(day_untraced.size()),
                       "StreamDriver::run day / median untraced bench day");
  overhead_metric(lat_untraced, lat_traced, report);
  triad_metrics(report);
  rec->write_chrome_json(opt.trace_path);
}

}  // namespace perfbench
