#pragma once

/// Bench-side tracing: an in-memory span recorder and an ExecutionBackend
/// decorator that times every kernel call. Only traced runs construct
/// either, so untraced timings carry no tracing cost.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/backend.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// One timed interval. `parent` indexes the enclosing span on the same
/// thread (-1 for a root); `op` is the operation the span belongs to;
/// `child` is the time covered by its direct children.
struct Span {
  const char* name = "";  ///< always a string literal
  double start = 0.0;     ///< seconds since the recorder's epoch
  double end = 0.0;
  double child = 0.0;
  int parent = -1;
  int tid = 0;
  std::int64_t op = -1;

  double duration() const { return end - start; }
  double self() const { return duration() - child; }
};

enum Phase { kGlobal, kLocal, kDual, kResidual, kNumPhases };
inline constexpr const char* kPhaseNames[kNumPhases] = {"global", "local",
                                                        "dual", "residual"};

/// Per-operation kernel totals for one phase.
struct PhaseTotals {
  double seconds = 0.0;
  long long calls = 0;
};

/// Collects spans in memory; thread-safe. Each thread keeps its own stack
/// of open spans, so nesting is tracked per thread.
///
/// Kernel calls are too many to keep one span each (a streamed day makes
/// over a million), so they are "leaves": every call is added to its
/// parent's child time and to per-operation phase totals, and only the
/// first kMaxStoredLeaves are kept as spans for the trace file.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxStoredLeaves = 20000;

  SpanRecorder();

  int begin(const char* name, std::int64_t op);
  void end(int index);
  void leaf(Phase phase, std::int64_t op, Clock::time_point t0,
            Clock::time_point t1);

  std::vector<Span> spans() const;
  std::map<std::int64_t, std::array<PhaseTotals, kNumPhases>> kernel_totals()
      const;
  /// Write every stored span as Chrome trace-event JSON ("X" events).
  void write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::size_t stored_leaves_ = 0;
  std::map<std::int64_t, std::array<PhaseTotals, kNumPhases>> kernels_;
};

/// Opens a span on construction and closes it on destruction. A null
/// recorder makes it a no-op, so call sites read the same in both modes.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::int64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_ = -1;
};

/// Forwards every call to the wrapped backend and records it as a kernel
/// leaf of the current operation (`op` is read at call time).
class TimingBackend final : public dopf::core::ExecutionBackend {
 public:
  TimingBackend(std::unique_ptr<dopf::core::ExecutionBackend> inner,
                SpanRecorder& rec, const std::int64_t& op);

  const char* name() const override { return inner_->name(); }
  void global_update(const dopf::core::PackedLocalSolvers& pack,
                     dopf::core::PackedState& state) override;
  void local_update(const dopf::core::PackedLocalSolvers& pack,
                    dopf::core::PackedState& state) override;
  void dual_update(const dopf::core::PackedLocalSolvers& pack,
                   dopf::core::PackedState& state) override;
  dopf::core::ResidualSums residual_sums(
      const dopf::core::PackedLocalSolvers& pack,
      const dopf::core::PackedState& state) override;

 private:
  std::unique_ptr<dopf::core::ExecutionBackend> inner_;
  SpanRecorder* rec_;
  const std::int64_t* op_;
};

}  // namespace perfbench
