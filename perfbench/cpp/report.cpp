#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

void MetricTable::declare(const std::string& name, const std::string& unit) {
  metrics_.push_back(Metric{name, 0.0, unit, 0, ""});
}

void MetricTable::set(const std::string& name, double value,
                      long long samples, const std::string& note) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.samples = samples;
      m.note = note;
      return;
    }
  }
  throw std::logic_error("undeclared metric " + name);
}

void Report::fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void declare_metrics(Report& report) {
  MetricTable& e = report.end_to_end;
  e.declare("setup_s", "s");
  e.declare("latency_p50_s", "s");
  e.declare("latency_p95_s", "s");
  e.declare("throughput_ops_s", "1/s");
  e.declare("peak_rss_mb", "MB");

  MetricTable& l = report.per_layer;
  l.declare("opf.decompose_s", "s");
  l.declare("opf.decompose_calls", "count");
  l.declare("robust.preflight_s", "s");
  l.declare("robust.preflight_calls", "count");
  l.declare("core.factorize_s", "s");
  l.declare("core.pack_s", "s");
  l.declare("kernel.pack_bytes", "B");
  l.declare("session.rebind_s", "s");
  l.declare("session.rhs_rebinds", "count");
  l.declare("session.refactorizations", "count");
  l.declare("session.precompute_reuses", "count");
  l.declare("admm.iterations", "count");
  l.declare("admm.iter_us", "us");
  l.declare("admm.driver_self_s", "s");
  for (const char* p : {"global", "local", "dual", "residual"}) {
    const std::string k = std::string("kernel.") + p;
    l.declare(k + "_s", "s");
    l.declare(k + "_iter_us", "us");
    l.declare(k + "_calls", "count");
    l.declare(k + "_bytes", "B");
    l.declare(k + "_gbs", "GB/s");
  }
  l.declare("mem.triad_gbs", "GB/s");
  l.declare("mem.llc_bytes", "B");
  l.declare("mem.triad_bytes", "B");
  l.declare("durable.save_s", "s");
  l.declare("durable.saves", "count");
  l.declare("durable.bytes", "B");
  l.declare("durable.retries", "count");
  l.declare("stream.driver_day_s", "s");
  l.declare("stream.driver_over_copy", "ratio");
  l.declare("serve.unloaded_s.ieee13", "s");
  l.declare("serve.unloaded_s.ieee123", "s");
  l.declare("serve.ping_rtt_s", "s");
  l.declare("serve.attempts_per_request", "ratio");
  l.declare("serve.overload_retries", "count");
  l.declare("serve.gen_late_p95_s", "s");
  l.declare("serve.cache_hit_rate", "ratio");
  l.declare("serve.refactorizations_per_request", "ratio");
  l.declare("serve.rhs_rebinds_per_request", "ratio");
  for (const char* code : {"overload", "deadline", "preflight", "bad_request",
                           "wire", "shutdown", "quarantined", "degraded"}) {
    l.declare(std::string("serve.rejected.") + code, "count");
  }
  l.declare("serve.worker_restarts", "count");
  l.declare("trace.overhead_frac", "ratio");
  l.declare("trace.coverage_frac", "ratio");
  l.declare("trace.kernel_share", "ratio");
  l.declare("error_rate", "ratio");
}

namespace {

void print_table(const char* title, const MetricTable& table) {
  std::printf("%s\n", title);
  for (const Metric& m : table.all()) {
    std::printf("  %-36s %18.9g %-6s n=%-8lld %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
}

}  // namespace

void print_report(const Report& report, const std::string& workload,
                  bool traced) {
  std::printf("workload %s (%s run): attempted %lld, failed %lld, "
              "error_rate %.6g, outputs %s\n",
              workload.c_str(), traced ? "traced" : "untraced",
              report.attempted, report.failed,
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0,
              report.correct ? "correct" : "INCORRECT");
  const MetricTable& table = traced ? report.per_layer : report.end_to_end;
  print_table(traced ? "per-layer metrics:" : "end-to-end metrics:", table);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false", report.attempted,
              report.failed);
  bool first = true;
  for (const Metric& m : table.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
