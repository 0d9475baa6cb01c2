/// Per-layer metrics computed from a traced run's spans, and the roofline
/// inputs: computed bytes per kernel phase and an in-binary triad.

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

double phase_bytes(Phase phase, const dopf::core::PackedLocalSolvers& pack) {
  const double n = static_cast<double>(pack.num_global());
  const double l = static_cast<double>(pack.total_local());
  const double s = static_cast<double>(pack.num_components());
  const double a = static_cast<double>(pack.abar.size());
  switch (phase) {
    case kGlobal:
      // gather_ptr, gather_pos; z and lambda gathered; c, lb, ub; x written.
      return 8 * (n + 1) + 8 * l + 16 * l + 24 * n + 8 * n;
    case kLocal:
      // Stage: global_idx, x gathered, lambda, y written. Project: Abar,
      // y, bbar, z written; descriptors (offset, abar offset, n_s).
      return (4 + 8 + 8 + 8) * l + 8 * a + (8 + 8 + 8) * l + 20 * s;
    case kDual:
      // global_idx, x gathered, z, lambda read and written.
      return (4 + 8 + 8 + 16) * l;
    case kResidual:
      // global_idx, x gathered, z, z_prev, lambda.
      return (4 + 8 + 8 + 8 + 8) * l;
    default:
      return 0.0;
  }
}

void set_latency(Report& report, const std::vector<double>& lat) {
  const auto n = static_cast<long long>(lat.size());
  report.end_to_end.set("latency_p50_s", median(lat), n);
  if (n >= 200) {
    report.end_to_end.set("latency_p95_s", percentile(lat, 0.95), n);
  } else {
    // Too few samples for a p95 with ten beyond it: the field repeats the
    // median (the result line must carry every end-to-end metric, and the
    // slowest of a few operations only tracks the host's worst moment).
    report.end_to_end.set("latency_p95_s", median(lat), n,
                          "n<200: no p95, repeats the median");
  }
}

void overhead_metric(const std::vector<double>& untraced,
                     const std::vector<double>& traced, Report& report) {
  const double base = median(untraced);
  report.per_layer.set(
      "trace.overhead_frac", base > 0.0 ? median(traced) / base - 1.0 : 0.0,
      static_cast<long long>(untraced.size() + traced.size()),
      "traced p50 / untraced p50 - 1 (" + std::to_string(traced.size()) +
          " traced, " + std::to_string(untraced.size()) + " untraced ops)");
}

void span_metric(const SpanRecorder& rec, const char* name,
                 const std::string& seconds_metric,
                 const std::string& calls_metric, Report& report) {
  std::vector<double> d;
  for (const Span& s : rec.spans()) {
    if (std::strcmp(s.name, name) == 0) d.push_back(s.duration());
  }
  const auto n = static_cast<long long>(d.size());
  report.per_layer.set(seconds_metric, median(d), n, "median per call");
  if (!calls_metric.empty()) {
    report.per_layer.set(calls_metric, static_cast<double>(n), 1,
                         "calls in the traced operations and set-up");
  }
}

void kernel_metrics(const SpanRecorder& rec, const char* solve_span,
                    const std::map<std::int64_t, long long>& op_iterations,
                    const dopf::core::PackedLocalSolvers& pack,
                    Report& report) {
  const auto totals = rec.kernel_totals();
  long long iterations = 0;
  for (const auto& [op, it] : op_iterations) iterations += it;
  const auto ops = static_cast<long long>(op_iterations.size());
  const double iters = static_cast<double>(std::max(1LL, iterations));

  long long mismatched = 0;
  std::string first_mismatch;
  for (const auto& [op, it] : op_iterations) {
    const auto found = totals.find(op);
    for (int p = 0; p < kNumPhases; ++p) {
      const long long want = p == kResidual ? it / kCheckEvery : it;
      const long long got =
          found == totals.end() ? 0 : found->second[p].calls;
      if (got != want && mismatched++ == 0) {
        first_mismatch = "op " + std::to_string(op) + " made " +
                         std::to_string(got) + " " + kPhaseNames[p] +
                         " calls for " + std::to_string(it) + " iterations";
      }
    }
  }
  if (mismatched > 0) {
    report.fail("kernel calls do not match the iterations (" +
                std::to_string(mismatched) + " op phases): " +
                first_mismatch);
  }
  for (int p = 0; p < kNumPhases; ++p) {
    std::vector<double> per_op_s, per_op_calls;
    double seconds = 0.0;
    double calls = 0.0;
    for (const auto& [op, phases] : totals) {
      per_op_s.push_back(phases[p].seconds);
      per_op_calls.push_back(static_cast<double>(phases[p].calls));
      seconds += phases[p].seconds;
      calls += static_cast<double>(phases[p].calls);
    }
    const std::string k = std::string("kernel.") + kPhaseNames[p];
    const double bytes = phase_bytes(static_cast<Phase>(p), pack);
    report.per_layer.set(k + "_s", median(per_op_s), ops, "median per op");
    report.per_layer.set(k + "_iter_us", seconds / iters * 1e6, iterations,
                         "phase seconds / iterations");
    report.per_layer.set(k + "_calls", median(per_op_calls), ops,
                         "median per op");
    report.per_layer.set(k + "_bytes", bytes, 1,
                         "computed from pack array sizes, per call");
    report.per_layer.set(k + "_gbs",
                         seconds > 0.0 ? bytes * calls / seconds / 1e9 : 0.0,
                         static_cast<long long>(calls),
                         "computed bytes / measured phase time");
  }

  std::vector<double> solve_total, driver_self, kernel_share;
  for (const Span& s : rec.spans()) {
    if (std::strcmp(s.name, solve_span) != 0) continue;
    solve_total.push_back(s.duration());
    driver_self.push_back(s.self());
    const auto found = totals.find(s.op);
    if (found != totals.end() && s.duration() > 0.0) {
      double kernel = 0.0;
      for (const PhaseTotals& t : found->second) kernel += t.seconds;
      kernel_share.push_back(kernel / s.duration());
    }
  }
  report.per_layer.set("admm.iterations", static_cast<double>(iterations) /
                                              static_cast<double>(ops),
                       ops, "mean per op of exact counts");
  report.per_layer.set("admm.iter_us", sum(solve_total) / iters * 1e6,
                       iterations, "solve wall / iterations");
  report.per_layer.set("admm.driver_self_s", median(driver_self),
                       static_cast<long long>(driver_self.size()),
                       "solve span minus kernel spans, median per op");
  report.per_layer.set("trace.kernel_share", median(kernel_share),
                       static_cast<long long>(kernel_share.size()),
                       "kernel time / solve span, median per op");
}

void triad_metrics(Report& report) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::string source = "sysconf L3";
  if (llc <= 0) {
    llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
    source = "sysconf L2 (no L3 reported)";
  }
  if (llc <= 0) {
    llc = 32L << 20;
    source = "assumed 32 MiB (sysconf reports none)";
  }
  // Three arrays whose total is 4x the LLC, capped at 1.5 GiB so the
  // calibration stays small on hosts that report very large caches.
  constexpr std::size_t kCap = 3ull << 29;
  const std::size_t total =
      std::min<std::size_t>(4 * static_cast<std::size_t>(llc), kCap);
  const std::size_t n = total / 3 / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0;
  }
  std::vector<double> gbs;
  for (int rep = 0; rep < 5; ++rep) {
    // A different scalar per pass, so no pass repeats another's stores.
    const double scalar = 1.0 + rep;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scalar * c[i];
    const double dt = seconds_between(t0, Clock::now());
    gbs.push_back(3.0 * 8.0 * static_cast<double>(n) / dt / 1e9);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  const double arrays = static_cast<double>(3 * n * sizeof(double));
  report.per_layer.set("mem.triad_gbs", median(gbs),
                       static_cast<long long>(gbs.size()),
                       "a = b + s*c, 24 B per element, median of passes");
  report.per_layer.set("mem.llc_bytes", static_cast<double>(llc), 1, source);
  report.per_layer.set(
      "mem.triad_bytes", arrays, 1,
      "three arrays, " + std::to_string(arrays / static_cast<double>(llc)) +
          "x LLC" + (total == kCap ? " (capped at 1.5 GiB)" : ""));
}

}  // namespace perfbench
