// perfbench: the SHOAL benchmark driver.
//
//   perfbench --workload build|refresh|serve --seed N --seconds S
//             --trace 0|1 --work-dir DIR --out-dir DIR --serve-bin PATH
//   perfbench --selftest 1 --work-dir DIR --serve-bin PATH
//
// Untraced runs (--trace 0) measure the end-to-end metrics of one
// workload. A traced run (--trace 1) times every layer's public calls
// from outside on all three workloads, so each per-layer metric is
// present whichever workload is named, and writes a Chrome trace plus a
// per-layer JSON into --out-dir. Every run checks the program's outputs
// and prints, as its last stdout line, one JSON object with the keys
// correct / attempted / failed / metrics. perfbench/run.py builds this
// binary and supplies the directories.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, RunOptions& options, bool& selftest) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else if (key == "--serve-bin") {
      options.serve_bin = value;
    } else if (key == "--selftest") {
      selftest = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "flags take one value each\n");
    return false;
  }
  if (options.work_dir.empty() || options.serve_bin.empty()) {
    std::fprintf(stderr, "--work-dir and --serve-bin are required\n");
    return false;
  }
  if (selftest) return true;
  if (options.workload != "build" && options.workload != "refresh" &&
      options.workload != "serve") {
    std::fprintf(stderr, "--workload must be build, refresh or serve\n");
    return false;
  }
  if (!(options.seconds > 0.0) || (options.trace && options.out_dir.empty())) {
    std::fprintf(stderr, "--seconds must be > 0; --trace 1 needs --out-dir\n");
    return false;
  }
  return true;
}

// Metrics from a build that is not optimised measure the compiler, not
// the program.
bool ReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

int Run(int argc, char** argv) {
  RunOptions options;
  bool selftest = false;
  if (!ParseArgs(argc, argv, options, selftest)) return 2;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : -1;
  std::printf("perfbench: nproc %d, build type %s, seed %llu, workload %s, "
              "seconds %g, trace %d\n",
              nproc, PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(options.seed),
              selftest ? "selftest" : options.workload.c_str(),
              options.seconds, options.trace ? 1 : 0);
  if (!ReleaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report metrics from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  shoal::util::SetLogLevel(shoal::util::LogLevel::kWarning);
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  if (selftest) {
    const int rc = RunSelftest(options);
    std::filesystem::remove_all(options.work_dir);
    return rc;
  }

  Report report;
  if (options.trace) {
    Spans::Global().Enable();
    RunBuild(options, report);
    RunRefresh(options, report);
    RunServe(options, report);
    std::filesystem::create_directories(options.out_dir);
    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed);
    if (!Spans::Global().WriteChrome(stem + ".trace.json")) {
      report.CheckFailed("cannot write " + stem + ".trace.json");
    }
    std::ofstream layers(stem + ".layers.json");
    layers << report.MetricsJson() << "\n";
    std::printf("wrote %s.trace.json and %s.layers.json\n", stem.c_str(),
                stem.c_str());
  } else if (options.workload == "build") {
    RunBuild(options, report);
  } else if (options.workload == "refresh") {
    RunRefresh(options, report);
  } else {
    RunServe(options, report);
  }
  std::filesystem::remove_all(options.work_dir);
  report.PrintOperations();
  std::printf("correct %s\n", report.correct() ? "yes" : "NO");
  std::printf("%s\n", report.ResultLine().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
