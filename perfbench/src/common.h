#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark driver: run options, the result
// sink (metrics + operation counts + check failures), resource probes
// and the benchmark's own span recorder for traced runs.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;  // build | refresh | serve
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch inputs, removed at exit
  std::string out_dir;    // trace + per-layer JSON of traced runs
  std::string serve_bin;  // the shoal_serve binary
};

// Everything a run reports. Metrics are keyed by name; a metric set
// twice keeps the last value.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;

  // Operation accounting, per kind ("builds", "cycles", "requests", ...).
  void Attempt(const std::string& kind, uint64_t n = 1);
  void Fail(const std::string& kind, uint64_t n = 1);
  uint64_t attempted() const;
  uint64_t failed() const;

  // A failed output check. The run still prints its metrics, with
  // correct = false.
  void CheckFailed(const std::string& what);
  // Records `errors` (empty = pass) under `check` and logs the verdict.
  void Check(const std::string& check, const std::vector<std::string>& errors);
  bool correct() const { return check_failures_.empty(); }

  void PrintOperations() const;
  // The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;
  // {"name": {"value", "unit"}} of every metric, for the per-layer file.
  std::string MetricsJson() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> ops_;
  std::vector<std::string> check_failures_;
};

// Span recorder for traced runs: complete events ("ph":"X") kept in
// memory and written as Chrome trace-event JSON (Perfetto loadable).
// Independent of the program's own obs::Tracer, which stays off.
class Spans {
 public:
  static Spans& Global();
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  struct Event {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    uint64_t tid = 0;
    std::map<std::string, double> args;
  };
  void Add(Event event);
  bool WriteChrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

// Times one public call from outside: wall and process CPU seconds, and
// the process high-water RSS when it returns. Records a span when the
// recorder is enabled.
class Timed {
 public:
  explicit Timed(std::string name);
  ~Timed() { Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  // Idempotent; returns wall seconds.
  double Stop();
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }
  double rss_mb() const { return rss_mb_; }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  double cpu_start_ = 0.0;
  bool stopped_ = false;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  double rss_mb_ = 0.0;
};

double NowSeconds();                 // steady clock
double ProcessCpuSeconds();          // user + system, all threads
double PeakRssMb();                  // this process's VmHWM
double PeakRssMbOf(int pid);         // another process's VmHWM, -1 if gone
double ProcessCpuSecondsOf(int pid); // utime + stime of pid, -1 if gone

double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);  // nearest rank

// Exact bytes of a file ("" when unreadable).
std::string FileBytes(const std::string& path);

// Prints one progress line to stderr (stdout carries the result).
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
