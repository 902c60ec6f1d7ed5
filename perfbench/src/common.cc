#include "common.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

// Shortest text that reads back as exactly `value`.
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Reads "<key>: <n> kB" from a /proc/<pid>/status file; -1 if absent.
double StatusKb(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::atof(line.c_str() + key.size() + 1);
    }
  }
  return -1.0;
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Attempt(const std::string& kind, uint64_t n) {
  ops_[kind].first += n;
}

void Report::Fail(const std::string& kind, uint64_t n) {
  ops_[kind].second += n;
}

uint64_t Report::attempted() const {
  uint64_t total = 0;
  for (const auto& [kind, counts] : ops_) total += counts.first;
  return total;
}

uint64_t Report::failed() const {
  uint64_t total = 0;
  for (const auto& [kind, counts] : ops_) total += counts.second;
  return total;
}

void Report::CheckFailed(const std::string& what) {
  Log("CHECK FAILED: %s", what.c_str());
  check_failures_.push_back(what);
}

void Report::Check(const std::string& check,
                   const std::vector<std::string>& errors) {
  if (errors.empty()) {
    Log("check %-28s ok", check.c_str());
    return;
  }
  for (size_t i = 0; i < errors.size() && i < 5; ++i) {
    CheckFailed(check + ": " + errors[i]);
  }
  if (errors.size() > 5) {
    CheckFailed(check + ": ... " + std::to_string(errors.size() - 5) +
                " more");
  }
}

void Report::PrintOperations() const {
  for (const auto& [kind, counts] : ops_) {
    std::printf("operations %-10s attempted %llu failed %llu\n", kind.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"value\": " + Number(value.value) +
           ", \"unit\": " + Quote(value.unit) + "}";
  }
  return out + "}";
}

std::string Report::ResultLine() const {
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted()) +
         ", \"failed\": " + std::to_string(failed()) +
         ", \"metrics\": " + MetricsJson() + "}";
}

Spans& Spans::Global() {
  static Spans spans;
  return spans;
}

void Spans::Add(Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

bool Spans::WriteChrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out << "{\"name\": " << Quote(e.name)
        << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << e.tid << ", \"ts\": " << Number(e.start_us)
        << ", \"dur\": " << Number(e.dur_us) << ", \"args\": {";
    bool first = true;
    for (const auto& [key, value] : e.args) {
      if (!first) out << ", ";
      first = false;
      out << Quote(key) << ": " << Number(value);
    }
    out << "}}" << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Timed::Timed(std::string name)
    : name_(std::move(name)),
      start_(std::chrono::steady_clock::now()),
      cpu_start_(ProcessCpuSeconds()) {}

double Timed::Stop() {
  if (stopped_) return wall_s_;
  stopped_ = true;
  const auto end = std::chrono::steady_clock::now();
  wall_s_ = std::chrono::duration<double>(end - start_).count();
  cpu_s_ = ProcessCpuSeconds() - cpu_start_;
  rss_mb_ = PeakRssMb();
  Spans& spans = Spans::Global();
  if (spans.enabled()) {
    Spans::Event event;
    event.name = name_;
    event.start_us = std::chrono::duration<double, std::micro>(
                         start_.time_since_epoch())
                         .count();
    event.dur_us = wall_s_ * 1e6;
    event.tid = static_cast<uint64_t>(::syscall(SYS_gettid));
    event.args["cpu_s"] = cpu_s_;
    event.args["rss_mb"] = rss_mb_;
    spans.Add(std::move(event));
  }
  return wall_s_;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  return StatusKb("/proc/self/status", "VmHWM") / 1024.0;
}

double PeakRssMbOf(int pid) {
  const double kb =
      StatusKb("/proc/" + std::to_string(pid) + "/status", "VmHWM");
  return kb < 0 ? -1.0 : kb / 1024.0;
}

double ProcessCpuSecondsOf(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = -1.0;
  double stime = -1.0;
  for (int i = 3; fields >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) {
      stime = std::atof(field.c_str());
      break;
    }
  }
  if (utime < 0 || stime < 0) return -1.0;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void Log(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::fprintf(stderr, "[perfbench] ");
  std::vfprintf(stderr, format, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

}  // namespace perfbench
