#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/packed_solvers.hpp"
#include "network/network.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Small instances and few operations: the benchmark's own tests.
  bool short_mode = false;
  /// serve_mix only: send each request as soon as a client lane is free
  /// instead of at its scheduled time. Measures the two-worker capacity
  /// on the mix, from which the open-loop rate is set.
  bool closed_loop = false;
  /// Scratch directory for this run (checkpoints, sockets, trace file);
  /// created by main, removed by main.
  std::string work_dir;
  /// Where a traced run writes its Chrome trace-event JSON.
  std::string trace_path;
  /// Directory holding the dopf_serve binary built beside this one.
  std::string bin_dir;
};

/// ε_rel and termination-check cadence of every solve the benchmark runs
/// (the dopf_serve request default).
inline constexpr double kEpsRel = 1e-3;
inline constexpr int kCheckEvery = 10;

/// Repetitions of the set-up per run; setup_s is their median.
inline constexpr int kSetupReps = 9;

/// min(cap, nproc).
int capped_nproc(int cap);

/// ThreadedBackend threads on cold8500_threads. Three, not four: on a
/// shared 4-core host T=4 swung between 4.8 and 8.2 s per ieee8500 solve
/// over five runs, while T=3 stayed within 5.0-5.4 s.
inline constexpr int kMaxBackendThreads = 3;

/// Uniform in [lo, hi) from the top 53 bits of one draw, so a seed gives
/// the same inputs on every standard library.
double uniform(std::mt19937_64& rng, double lo, double hi);

/// "ieee13", "ieee123" or "ieee8500": the builtin feeder's network only
/// (runtime::make_instance also decomposes it).
dopf::network::Network make_network(const std::string& name);

void run_cold8500(const Options& opt, bool threaded, Report& report);
void run_stream_day(const Options& opt, Report& report);
void run_serve_mix(const Options& opt, Report& report);

/// Peak resident set of this process, MB.
double self_peak_rss_mb();

/// Roofline inputs: computed bytes one call of each phase moves over
/// `pack` (each array touched once, gathered entries counted once).
double phase_bytes(Phase phase, const dopf::core::PackedLocalSolvers& pack);

/// Fill the kernel.*, admm.* and trace.kernel_share per-layer metrics from
/// a traced run's spans: `op_iterations` maps each traced operation to its
/// iterations, `solve_span` names the span wrapping each solve call. Fails
/// the report unless every traced operation made one global, local and
/// dual call per iteration and one residual call per termination check,
/// so a kernel call the decorator missed cannot pass as driver time.
void kernel_metrics(const SpanRecorder& rec, const char* solve_span,
                    const std::map<std::int64_t, long long>& op_iterations,
                    const dopf::core::PackedLocalSolvers& pack,
                    Report& report);

/// latency_p50_s, and latency_p95_s once 200 samples put ten beyond the
/// p95; with fewer, latency_p95_s repeats the median.
void set_latency(Report& report, const std::vector<double>& lat);

/// trace.overhead_frac: traced p50 over untraced p50, minus one.
void overhead_metric(const std::vector<double>& untraced,
                     const std::vector<double>& traced, Report& report);

/// Per-call median and call count of every span named `name`.
void span_metric(const SpanRecorder& rec, const char* name,
                 const std::string& seconds_metric,
                 const std::string& calls_metric, Report& report);

/// Time a STREAM-style triad over arrays sized from the LLC; sets mem.*.
void triad_metrics(Report& report);

}  // namespace perfbench
