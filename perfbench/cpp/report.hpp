#pragma once

/// Metric tables, order statistics and the result line every run prints.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1]; 0 if empty.
double percentile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 0;  ///< how many measurements the value rests on
  std::string note;       ///< printed beside the value (bases, sizes)
};

class MetricTable {
 public:
  /// Declare a metric with no measurement yet (value 0, 0 samples).
  void declare(const std::string& name, const std::string& unit);
  /// Set a declared metric; throws if the name was never declared, so a
  /// workload cannot emit a metric the benchmark does not define.
  void set(const std::string& name, double value, long long samples,
           const std::string& note = "");
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Everything one run measures and checks.
struct Report {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  MetricTable end_to_end;
  MetricTable per_layer;

  /// Record a failed output check (makes the run exit non-zero).
  void fail(const std::string& what);
};

/// Declare the benchmark's metrics (the names BENCHMARK.json lists).
void declare_metrics(Report& report);

/// Print the human-readable table and, last, the one-line JSON result
/// (end-to-end metrics untraced, per-layer metrics traced).
void print_report(const Report& report, const std::string& workload,
                  bool traced);

}  // namespace perfbench
