/// perfbench — the repository benchmark's measuring binary.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--short] [--closed-loop] [--scratch DIR]
///
/// Workloads: cold8500_serial, cold8500_threads, stream123_day, serve_mix.
/// Prints a metric table and, as its last line, one JSON result object.
/// Exit 0 when every output check passed, 1 when one failed, 2 on usage
/// or set-up errors. perfbench/run.py builds and invokes it.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--short] [--closed-loop] [--scratch DIR]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string scratch = ".bench_build";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = next();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(next());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (arg == "--trace") {
        opt.traced = next() == "1";
      } else if (arg == "--short") {
        opt.short_mode = true;
      } else if (arg == "--closed-loop") {
        opt.closed_loop = true;
      } else if (arg == "--scratch") {
        scratch = next();
      } else {
        usage(argv[0]);
      }
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }
  if (opt.workload.empty() || !have_seed || !(opt.seconds > 0)) {
    usage(argv[0]);
  }

  opt.bin_dir =
      std::filesystem::canonical("/proc/self/exe").parent_path().string();
  std::filesystem::create_directories(scratch + "/traces");
  opt.trace_path = scratch + "/traces/" + opt.workload + "-seed" +
                   std::to_string(opt.seed) + ".json";
  std::string dir_template = scratch + "/run-XXXXXX";
  if (mkdtemp(dir_template.data()) == nullptr) {
    std::perror("mkdtemp");
    return 2;
  }
  opt.work_dir = dir_template;

  perfbench::Report report;
  perfbench::declare_metrics(report);
  int code = 0;
  try {
    if (opt.workload == "cold8500_serial") {
      perfbench::run_cold8500(opt, /*threaded=*/false, report);
    } else if (opt.workload == "cold8500_threads") {
      perfbench::run_cold8500(opt, /*threaded=*/true, report);
    } else if (opt.workload == "stream123_day") {
      perfbench::run_stream_day(opt, report);
    } else if (opt.workload == "serve_mix") {
      perfbench::run_serve_mix(opt, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      code = 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(), e.what());
    code = 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  if (code != 0) return code;

  if (report.attempted > 0) {
    report.per_layer.set("error_rate",
                         static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted),
                         report.attempted, "failed / attempted operations");
  }
  perfbench::print_report(report, opt.workload, opt.traced);
  return report.correct && report.failed == 0 ? 0 : 1;
}
