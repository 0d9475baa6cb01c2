#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_stack;

int thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next++;
  return id;
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

int SpanRecorder::begin(const char* name, std::int64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.tid = thread_id();
  s.parent = t_stack.empty() ? -1 : t_stack.back();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int>(spans_.size());
    s.start = seconds_between(epoch_, Clock::now());
    spans_.push_back(s);
  }
  t_stack.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  const double now = seconds_between(epoch_, Clock::now());
  if (t_stack.empty() || t_stack.back() != index) {
    throw std::logic_error("span closed out of order");
  }
  t_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = now;
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child += s.duration();
  }
}

void SpanRecorder::leaf(Phase phase, std::int64_t op, Clock::time_point t0,
                        Clock::time_point t1) {
  const int parent = t_stack.empty() ? -1 : t_stack.back();
  const double dur = seconds_between(t0, t1);
  std::lock_guard<std::mutex> lock(mu_);
  PhaseTotals& tot = kernels_[op][phase];
  tot.seconds += dur;
  ++tot.calls;
  if (parent >= 0) spans_[static_cast<std::size_t>(parent)].child += dur;
  if (stored_leaves_ < kMaxStoredLeaves) {
    static constexpr const char* kNames[kNumPhases] = {
        "kernel.global", "kernel.local", "kernel.dual", "kernel.residual"};
    Span s;
    s.name = kNames[phase];
    s.start = seconds_between(epoch_, t0);
    s.end = seconds_between(epoch_, t1);
    s.parent = parent;
    s.tid = thread_id();
    s.op = op;
    spans_.push_back(s);
    ++stored_leaves_;
  }
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::int64_t, std::array<PhaseTotals, kNumPhases>>
SpanRecorder::kernel_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kernels_;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                 "\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.tid, s.start * 1e6,
                 s.duration() * 1e6, static_cast<long long>(s.op), i,
                 s.parent);
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                  "\"kernel_leaves_dropped\":%s}}\n",
               stored_leaves_ >= kMaxStoredLeaves ? "true" : "false");
  std::fclose(f);
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* name, std::int64_t op)
    : rec_(rec) {
  if (rec_ != nullptr) index_ = rec_->begin(name, op);
}

ScopedSpan::~ScopedSpan() {
  if (rec_ != nullptr) rec_->end(index_);
}

TimingBackend::TimingBackend(
    std::unique_ptr<dopf::core::ExecutionBackend> inner, SpanRecorder& rec,
    const std::int64_t& op)
    : inner_(std::move(inner)), rec_(&rec), op_(&op) {}

void TimingBackend::global_update(const dopf::core::PackedLocalSolvers& pack,
                                  dopf::core::PackedState& state) {
  const auto t0 = Clock::now();
  inner_->global_update(pack, state);
  rec_->leaf(kGlobal, *op_, t0, Clock::now());
}

void TimingBackend::local_update(const dopf::core::PackedLocalSolvers& pack,
                                 dopf::core::PackedState& state) {
  const auto t0 = Clock::now();
  inner_->local_update(pack, state);
  rec_->leaf(kLocal, *op_, t0, Clock::now());
}

void TimingBackend::dual_update(const dopf::core::PackedLocalSolvers& pack,
                                dopf::core::PackedState& state) {
  const auto t0 = Clock::now();
  inner_->dual_update(pack, state);
  rec_->leaf(kDual, *op_, t0, Clock::now());
}

dopf::core::ResidualSums TimingBackend::residual_sums(
    const dopf::core::PackedLocalSolvers& pack,
    const dopf::core::PackedState& state) {
  const auto t0 = Clock::now();
  const auto sums = inner_->residual_sums(pack, state);
  rec_->leaf(kResidual, *op_, t0, Clock::now());
  return sums;
}

}  // namespace perfbench
