// The `serve` workload: the shoal_serve binary answers /v1/query over
// loopback keep-alive connections while a second index version is
// published and reloaded at a fixed interval.
//
// One process generates the load. The server runs kServerThreads
// reactors and the generator kConnections busy workers, so the two
// together use no more threads than the machine's 4 cores (the reload
// thread and both main threads sleep). The run rotates 1-second slices
// of three phases, so every phase's aggregate spans the same host-noise
// stretches:
//   open — open loop at kOpenLoopRate on the popularity mix, latency
//          timed from each request's intended send time;
//   hit  — closed loop on the popularity mix (the response cache helps);
//   scan — closed loop cycling through the whole dictionary, which is
//          larger than the response cache, so almost every request
//          misses it.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "checks.h"
#include "core/shoal.h"
#include "data/shoal_adapter.h"
#include "http_client.h"
#include "serve/http_message.h"
#include "serve/service.h"
#include "serve/serving_index.h"
#include "util/json.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace core = shoal::core;
namespace data = shoal::data;
namespace serve = shoal::serve;

namespace {

constexpr size_t kServerThreads = 1;
constexpr size_t kConnections = 2;
constexpr double kSliceSeconds = 1.0;
constexpr double kOpenLoopRate = 2000.0;  // requests per second, total
constexpr double kReloadInterval = 1.0;   // seconds between publishes
constexpr size_t kTopK = 5;
// Closed-loop requests each connection keeps in flight (HTTP/1.1
// pipelining), so the reactor never idles between requests.
constexpr size_t kPipelineDepth = 8;
constexpr size_t kPopularitySequence = 1 << 16;
enum Phase { kOpen = 0, kHit = 1, kScan = 2, kPhases = 3 };
const char* const kPhaseName[kPhases] = {"open", "hit", "scan"};

uint64_t Fnv(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

// Sleeps until steady-clock time `t` (seconds), without timer slack
// when the calling thread has set it to the minimum.
void SleepUntil(double t) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t);
  ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// The reactor and each generator worker get a core of their own when
// the machine has at least 4: left to the scheduler, a worker woken by
// a response is often pulled onto the reactor's core, which slows the
// reactor by an amount that changes from run to run. Core 0 is left to
// the sleeping threads. `slot` 0 is the reactor, 1.. the workers.
void PinToOwnCore(size_t slot) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < static_cast<int>(kConnections + 2)) {
    return;
  }
  size_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ == slot + 1) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

// One shoal_serve child process; stopped and reaped on destruction.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const std::string& index_path,
                uint16_t port, const std::string& log_path)
      : port_(port) {
    const std::vector<std::string> args = {
        bin, "--index=" + index_path, "--port=" + std::to_string(port),
        "--threads=" + std::to_string(kServerThreads), "--log-level=warning"};
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The server must not outlive a driver that dies mid-run.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) ::_exit(1);
      PinToOwnCore(0);
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                            0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      std::vector<char*> argv;
      for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int pid() const { return pid_; }
  uint16_t port() const { return port_; }

  // Polls /readyz until it answers 200; false after `timeout` seconds
  // or if the process died.
  bool WaitReady(double timeout) {
    const double deadline = NowSeconds() + timeout;
    while (NowSeconds() < deadline) {
      KeepAliveClient client(port_);
      if (client.Get("/readyz", nullptr) == 200) return true;
      int status = 0;
      if (pid_ <= 0 || ::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      ::usleep(200);
    }
    return false;
  }

  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  int pid_ = -1;
  uint16_t port_;
};

// The two index versions the run publishes, their verified bodies, and
// the query mixes.
struct Corpus {
  std::string files[2];  // v1, v2
  std::unique_ptr<serve::ServingIndex> index[2];
  std::vector<std::string> texts;    // distinct dictionary texts
  std::vector<std::string> targets;  // /v1/query?q=...&k=5 per query
  std::vector<uint64_t> verified[2];  // body hash per query and version
  std::vector<uint32_t> popular;     // popularity-weighted sequence
  std::vector<uint32_t> scan;        // shuffled dictionary
};

// Replaces the live index file with version slot `slot` (hard link +
// rename: the server mmaps whatever the path names at reload time).
bool Publish(const Corpus& corpus, int slot, const std::string& live) {
  const std::string tmp = live + ".tmp";
  ::unlink(tmp.c_str());
  return ::link(corpus.files[slot].c_str(), tmp.c_str()) == 0 &&
         ::rename(tmp.c_str(), live.c_str()) == 0;
}

// What one worker saw in one slice.
struct SliceResult {
  uint64_t requests = 0;
  uint64_t failures = 0;
  double last_done = 0.0;  // completion time of the last request
  std::vector<double> latencies_us;  // open loop only
  std::vector<double> lag_us;        // open loop only
  std::string first_error;
};

// One slice, summed over the workers.
struct Slice {
  Phase phase = kOpen;
  double begin = 0.0;
  double end = 0.0;  // last completion over the workers
  uint64_t requests = 0;
  uint64_t failures = 0;
  double server_cpu_s = 0.0;
  uint64_t cache_hits = 0, cache_misses = 0;  // traced runs only
  std::vector<double> latencies_us, lag_us;
  std::string first_error;
};

struct Measured {
  std::vector<Slice> slices;
  std::vector<double> reload_s;
  uint64_t reloads = 0;
  uint64_t reload_failures = 0;
};

// Position `pos` of a worker's scan, wrapping within its own share
// (positions step by kConnections).
size_t ScanIndex(size_t& pos, size_t size) {
  const size_t share = size - size % kConnections;
  const size_t index = pos % share;
  pos += kConnections;
  return index;
}

// One generator worker: runs every slice of `schedule` (slice k starts
// at start + k * kSliceSeconds) on its own keep-alive connection.
void Worker(const Corpus& corpus, uint16_t port, size_t worker,
            double start, const std::vector<Phase>& schedule,
            std::vector<SliceResult>* out) {
  // Wake on time for open-loop sends (the default slack is 50 us).
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PinToOwnCore(1 + worker);
  KeepAliveClient client(port);
  size_t hit_pos = worker * (corpus.popular.size() / kConnections);
  // Each worker scans its own share of the dictionary (every
  // kConnections-th query), so no query is requested by two workers
  // whose positions could drift close enough to hit each other's cache
  // entries.
  size_t scan_pos = worker;
  std::vector<uint32_t> batch;
  std::vector<const std::string*> targets;
  std::vector<int> statuses(1);
  std::vector<std::string> bodies(1);
  // Counts `batch`'s responses; each must be 200 with a verified body.
  auto account = [&](SliceResult& slice) {
    for (size_t i = 0; i < batch.size(); ++i) {
      const uint32_t q = batch[i];
      const uint64_t h = i < bodies.size() ? Fnv(bodies[i]) : 0;
      ++slice.requests;
      if (i >= statuses.size() || statuses[i] != 200 ||
          (h != corpus.verified[0][q] && h != corpus.verified[1][q])) {
        ++slice.failures;
        if (slice.first_error.empty()) {
          slice.first_error = "failed or unverified response for '" +
                              corpus.texts[q] + "'";
        }
      }
    }
    slice.last_done = NowSeconds();
  };
  for (size_t k = 0; k < schedule.size(); ++k) {
    SliceResult slice;
    const double begin = start + static_cast<double>(k) * kSliceSeconds;
    const double end = begin + kSliceSeconds;
    SleepUntil(begin);
    if (schedule[k] == kOpen) {
      // This worker's share of one schedule: request i is due at
      // begin + i / rate and worker w takes i = w, w + W, ...
      for (size_t i = worker;; i += kConnections) {
        const double due = begin + static_cast<double>(i) / kOpenLoopRate;
        if (due >= end) break;
        SleepUntil(due);
        const double now = NowSeconds();
        batch.assign(1, corpus.popular[hit_pos++ % corpus.popular.size()]);
        statuses[0] = client.Get(corpus.targets[batch[0]], &bodies[0]);
        account(slice);
        slice.latencies_us.push_back((slice.last_done - due) * 1e6);
        slice.lag_us.push_back((now - due) * 1e6);
      }
    } else {
      while (NowSeconds() < end) {
        batch.clear();
        targets.clear();
        for (size_t i = 0; i < kPipelineDepth; ++i) {
          batch.push_back(
              schedule[k] == kHit
                  ? corpus.popular[hit_pos++ % corpus.popular.size()]
                  : corpus.scan[ScanIndex(scan_pos, corpus.scan.size())]);
          targets.push_back(&corpus.targets[batch.back()]);
        }
        if (!client.Pipeline(targets, &statuses, &bodies)) statuses.clear();
        account(slice);
      }
    }
    out->push_back(std::move(slice));
  }
}

// Cache counters from the server's /metrics JSON.
std::pair<uint64_t, uint64_t> CacheCounters(uint16_t port) {
  KeepAliveClient client(port);
  std::string body;
  if (client.Get("/metrics", &body) != 200) return {0, 0};
  auto parsed = shoal::util::JsonValue::Parse(body);
  if (!parsed.ok() || parsed->Find("counters") == nullptr) return {0, 0};
  const auto* counters = parsed->Find("counters");
  auto value = [&](const char* name) {
    const auto* v = counters->Find(name);
    return v == nullptr ? uint64_t{0} : static_cast<uint64_t>(v->number());
  };
  return {value("serve.cache.hits"), value("serve.cache.misses")};
}

// Runs whole rotations of `phases`, one kSliceSeconds slice each,
// until `seconds` are covered, with a reload every kReloadInterval.
Measured Drive(const Corpus& corpus, ServerProcess& server,
               const std::string& live, double seconds,
               const std::vector<Phase>& phases, bool trace) {
  const double rotation = kSliceSeconds * static_cast<double>(phases.size());
  const size_t rotations =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(seconds / rotation)));
  std::vector<Phase> schedule;
  for (size_t r = 0; r < rotations; ++r) {
    schedule.insert(schedule.end(), phases.begin(), phases.end());
  }
  const double start = NowSeconds() + 0.05;
  const double stop =
      start + static_cast<double>(schedule.size()) * kSliceSeconds;

  Measured measured;
  std::vector<std::vector<SliceResult>> per_worker(kConnections);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kConnections; ++w) {
    workers.emplace_back(Worker, std::cref(corpus), server.port(), w, start,
                         std::cref(schedule), &per_worker[w]);
  }
  // The reload thread publishes the other version, then asks for a
  // reload, every kReloadInterval from the first slice's start. A swap
  // clears the response cache, so every slice starts with an empty one
  // and a scan slice cannot hit entries a hit slice left behind.
  std::thread reloader([&] {
    KeepAliveClient client(server.port());
    int slot = 1;
    for (double due = start; due < stop;
         due += kReloadInterval) {
      SleepUntil(due);
      const double begin = NowSeconds();
      ++measured.reloads;
      if (!Publish(corpus, slot, live) ||
          client.Get("/admin/reload", nullptr) != 200) {
        ++measured.reload_failures;
      }
      measured.reload_s.push_back(NowSeconds() - begin);
      slot = 1 - slot;
    }
  });
  // Server CPU (and, traced, cache counters) at every slice boundary.
  measured.slices.resize(schedule.size());
  double cpu = ProcessCpuSecondsOf(server.pid());
  std::pair<uint64_t, uint64_t> cache =
      trace ? CacheCounters(server.port()) : std::make_pair(0ul, 0ul);
  for (size_t k = 0; k < schedule.size(); ++k) {
    SleepUntil(start + static_cast<double>(k + 1) * kSliceSeconds);
    const double now_cpu = ProcessCpuSecondsOf(server.pid());
    measured.slices[k].phase = schedule[k];
    measured.slices[k].server_cpu_s = now_cpu - cpu;
    cpu = now_cpu;
    if (trace) {
      const auto counters = CacheCounters(server.port());
      measured.slices[k].cache_hits = counters.first - cache.first;
      measured.slices[k].cache_misses = counters.second - cache.second;
      cache = counters;
    }
  }
  for (auto& worker : workers) worker.join();
  reloader.join();
  for (const auto& results : per_worker) {
    for (size_t k = 0; k < results.size(); ++k) {
      const SliceResult& r = results[k];
      Slice& slice = measured.slices[k];
      slice.begin = start + static_cast<double>(k) * kSliceSeconds;
      slice.end = std::max(slice.end, r.last_done);
      slice.requests += r.requests;
      slice.failures += r.failures;
      slice.latencies_us.insert(slice.latencies_us.end(),
                                r.latencies_us.begin(), r.latencies_us.end());
      slice.lag_us.insert(slice.lag_us.end(), r.lag_us.begin(),
                          r.lag_us.end());
      if (slice.first_error.empty()) slice.first_error = r.first_error;
    }
  }
  return measured;
}

// Verifies every dictionary query's body against both index files once
// (untimed; the measured phase then compares body hashes).
bool Verify(Corpus& corpus, ServerProcess& server, const std::string& live,
            Report& report) {
  KeepAliveClient client(server.port());
  std::string body;
  for (int slot : {1, 0}) {
    report.Attempt("reloads");
    if (!Publish(corpus, slot, live) ||
        client.Get("/admin/reload", nullptr) != 200) {
      report.Fail("reloads");
      report.CheckFailed("warm-up reload failed");
      return false;
    }
    corpus.verified[slot].assign(corpus.texts.size(), 0);
    Errors errors;
    for (uint32_t q = 0; q < corpus.texts.size(); ++q) {
      report.Attempt("requests");
      const int status = client.Get(corpus.targets[q], &body);
      if (status != 200) {
        report.Fail("requests");
        errors.push_back("status " + std::to_string(status));
        continue;
      }
      Errors body_errors =
          CheckQueryBody(body, *corpus.index[slot], corpus.texts[q], kTopK);
      if (body_errors.empty()) {
        corpus.verified[slot][q] = Fnv(body);
      } else {
        errors.insert(errors.end(), body_errors.begin(), body_errors.end());
      }
    }
    report.Check("query bodies v" + std::to_string(slot + 1), errors);
    if (!errors.empty()) return false;
  }
  return true;
}

// Median per-call microseconds of fn over `batch`-call batches.
template <typename Fn>
double MedianCallUs(size_t calls, Fn fn) {
  constexpr size_t kBatch = 256;
  std::vector<double> per_call;
  for (size_t done = 0; done < calls; done += kBatch) {
    const double begin = NowSeconds();
    for (size_t i = 0; i < kBatch; ++i) fn(done + i);
    per_call.push_back((NowSeconds() - begin) * 1e6 / kBatch);
  }
  return Median(per_call);
}

// In-process layer timings on the same index (traced runs).
void InProcessLayers(const Corpus& corpus, Report& report) {
  std::vector<double> loads;
  for (int i = 0; i < 5; ++i) {
    Timed timed("serve.index_load");
    auto loaded = serve::ReadServingIndexFile(corpus.files[0]);
    loads.push_back(timed.Stop());
    if (!loaded.ok()) report.CheckFailed("index load failed");
  }
  report.Set("serve.index_load_s", Median(loads), "s");

  std::vector<serve::HttpRequest> popular, scan;
  for (size_t i = 0; i < 4096; ++i) {
    popular.push_back(serve::ParseRequestTarget(
        "GET", corpus.targets[corpus.popular[i]]));
    scan.push_back(serve::ParseRequestTarget(
        "GET", corpus.targets[corpus.scan[i % corpus.scan.size()]]));
  }
  auto loaded = serve::ReadServingIndexFile(corpus.files[0]);
  SHOAL_CHECK(loaded.ok()) << loaded.status().ToString();
  std::shared_ptr<const serve::ServingIndex> index =
      std::make_shared<serve::ServingIndex>(std::move(loaded).value());
  serve::ServiceOptions cached;  // default response cache
  serve::ServiceOptions uncached;
  uncached.cache_entries = 0;
  serve::ServingService hit_service(index, cached);
  serve::ServingService miss_service(index, uncached);
  for (const auto& request : popular) hit_service.Handle(request);  // warm
  {
    Timed timed("serve.handle_hit");
    report.Set("serve.handle_hit_us", MedianCallUs(40960, [&](size_t i) {
                 hit_service.Handle(popular[i % popular.size()]);
               }),
               "us");
  }
  {
    Timed timed("serve.handle_miss");
    report.Set("serve.handle_miss_us", MedianCallUs(40960, [&](size_t i) {
                 miss_service.Handle(scan[i % scan.size()]);
               }),
               "us");
  }
  {
    Timed timed("serve.find");
    volatile uint32_t sink = 0;
    report.Set("serve.find_us", MedianCallUs(40960, [&](size_t i) {
                 const uint32_t q = corpus.scan[i % corpus.scan.size()];
                 sink = index->Find(corpus.texts[q]).query;
               }),
               "us");
    (void)sink;
  }
}

}  // namespace

void RunServe(const RunOptions& run, Report& report) {
  // Untimed: build the taxonomy and compile two index versions.
  auto dataset = data::GenerateDataset(ScaledDataset(kEntities, run.seed));
  SHOAL_CHECK(dataset.ok()) << dataset.status().ToString();
  const data::ShoalInputBundle bundle = data::MakeShoalInput(*dataset);
  const core::ShoalInput input = bundle.View();
  auto model = core::BuildShoal(input, BuildOptions());
  SHOAL_CHECK(model.ok()) << model.status().ToString();
  Corpus corpus;
  for (int slot = 0; slot < 2; ++slot) {
    auto compiled = CompileIndex(*model, input, slot + 1);
    SHOAL_CHECK(compiled.ok()) << compiled.status().ToString();
    corpus.files[slot] =
        run.work_dir + "/index-v" + std::to_string(slot + 1) + ".idx";
    SHOAL_CHECK(serve::WriteServingIndexFile(corpus.files[slot], *compiled)
                    .ok());
    auto loaded = serve::ReadServingIndexFile(corpus.files[slot]);
    SHOAL_CHECK(loaded.ok()) << loaded.status().ToString();
    corpus.index[slot] =
        std::make_unique<serve::ServingIndex>(std::move(*loaded));
  }
  const serve::ServingIndex& v1 = *corpus.index[0];

  // The query mixes: popularity = window clicks per query.
  std::unordered_map<std::string, double> clicks_of;
  for (uint32_t q = 0; q < bundle.query_texts.size(); ++q) {
    double clicks = 0.0;
    for (const auto& link : bundle.query_item_graph.LeftNeighbors(q)) {
      clicks += link.count;
    }
    clicks_of[bundle.query_texts[q]] += clicks;
  }
  std::vector<double> cumulative;
  // Distinct texts only: two dictionary entries with one text share a
  // request target, and so a response-cache entry.
  std::unordered_set<std::string> seen;
  for (uint32_t q = 0; q < v1.num_queries(); ++q) {
    if (!seen.emplace(v1.query_text(q)).second) continue;
    corpus.texts.emplace_back(v1.query_text(q));
    corpus.targets.push_back("/v1/query?q=" + UrlEncode(corpus.texts.back()) +
                             "&k=" + std::to_string(kTopK));
    cumulative.push_back((cumulative.empty() ? 0.0 : cumulative.back()) +
                         clicks_of[corpus.texts.back()]);
  }
  shoal::util::Rng rng(run.seed * 7919 + 17);
  for (size_t i = 0; i < kPopularitySequence; ++i) {
    const double x = rng.UniformDouble() * cumulative.back();
    corpus.popular.push_back(static_cast<uint32_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), x) -
        cumulative.begin()));
  }
  for (uint32_t q = 0; q < corpus.texts.size(); ++q) corpus.scan.push_back(q);
  rng.Shuffle(corpus.scan);

  // Set-up: spawn until /readyz answers, three times; keep the last.
  const std::string live = run.work_dir + "/live.idx";
  const std::string server_log = run.work_dir + "/server.log";
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < 3; ++i) {
    server.reset();
    SHOAL_CHECK(Publish(corpus, 0, live));
    report.Attempt("spawns");
    Timed timed("serve.spawn_ready");
    server = std::make_unique<ServerProcess>(run.serve_bin, live,
                                             PickFreePort(), server_log);
    const bool ready = server->WaitReady(30.0);
    setups.push_back(timed.Stop());
    if (!ready) {
      report.Fail("spawns");
      report.CheckFailed("shoal_serve did not become ready; see " +
                         server_log);
      return;
    }
  }
  if (!Verify(corpus, *server, live, report)) return;

  // Untraced runs measure the end-to-end op (a scan request) in every
  // slice; traced runs rotate all three phases for the per-layer view.
  const std::vector<Phase> phases =
      run.trace ? std::vector<Phase>{kOpen, kHit, kScan}
                : std::vector<Phase>{kScan};
  const Measured measured =
      Drive(corpus, *server, live, run.seconds, phases, run.trace);
  const double server_rss = PeakRssMbOf(server->pid());
  server->Stop();
  report.Attempt("reloads", measured.reloads);
  report.Fail("reloads", measured.reload_failures);
  if (measured.reload_failures > 0) report.CheckFailed("a reload failed");

  // Per phase: totals, and the per-slice figures whose median is
  // reported (a stall of a few seconds moves a few slices, not the
  // median). A closed-loop slice's service time is its span (start to
  // the last completion) over the requests it completed.
  struct PhaseTotals {
    uint64_t requests = 0;
    double span_s = 0.0;
    double cpu_s = 0.0;
    uint64_t hits = 0, misses = 0;
    std::vector<double> slice_service_s, slice_cpu_s, latencies_us, lag_us;
  } totals[kPhases];
  for (const Slice& slice : measured.slices) {
    PhaseTotals& p = totals[slice.phase];
    report.Attempt("requests", slice.requests);
    report.Fail("requests", slice.failures);
    if (!slice.first_error.empty()) {
      report.CheckFailed(std::string(kPhaseName[slice.phase]) + " phase: " +
                         slice.first_error);
    }
    if (slice.requests == 0) {
      report.CheckFailed(std::string(kPhaseName[slice.phase]) +
                         " slice completed no request");
      return;
    }
    p.requests += slice.requests;
    p.span_s += slice.end - slice.begin;
    p.cpu_s += slice.server_cpu_s;
    p.hits += slice.cache_hits;
    p.misses += slice.cache_misses;
    p.slice_service_s.push_back((slice.end - slice.begin) / slice.requests);
    p.slice_cpu_s.push_back(slice.server_cpu_s / slice.requests);
    p.latencies_us.insert(p.latencies_us.end(), slice.latencies_us.begin(),
                          slice.latencies_us.end());
    p.lag_us.insert(p.lag_us.end(), slice.lag_us.begin(), slice.lag_us.end());
  }
  const PhaseTotals& open = totals[kOpen];
  const PhaseTotals& hit = totals[kHit];
  const PhaseTotals& scan = totals[kScan];
  Log("serve: scan %.1f us per request (median slice), %llu reloads",
      Median(scan.slice_service_s) * 1e6,
      static_cast<unsigned long long>(measured.reloads));

  if (run.trace) {
    report.Set("serve.query_rps", hit.requests / hit.span_s, "1/s");
    report.Set("serve.scan_rps", scan.requests / scan.span_s, "1/s");
    report.Set("serve.query_p50_us", Quantile(open.latencies_us, 0.5), "us");
    report.Set("serve.query_p99_us", Quantile(open.latencies_us, 0.99), "us");
    report.Set("serve.generator_lag_us", Quantile(open.lag_us, 0.99), "us");
    report.Set("serve.server_cpu_us_per_request_query",
               hit.cpu_s * 1e6 / hit.requests, "us");
    report.Set("serve.server_cpu_us_per_request_scan",
               scan.cpu_s * 1e6 / scan.requests, "us");
    report.Set("serve.cache_hit_ratio",
               hit.hits + hit.misses == 0
                   ? 0.0
                   : static_cast<double>(hit.hits) /
                         static_cast<double>(hit.hits + hit.misses),
               "ratio");
    // Misses rather than hits, so the figure reads 1, not 0, when the
    // scan bypasses the cache as designed.
    report.Set("serve.scan_cache_miss_ratio",
               scan.hits + scan.misses == 0
                   ? 0.0
                   : static_cast<double>(scan.misses) /
                         static_cast<double>(scan.hits + scan.misses),
               "ratio");
    report.Set("serve.reload_s", Median(measured.reload_s), "s");
    report.Set("serve.setup_s", Median(setups), "s");
    report.Set("serve.server_rss_mb", server_rss, "MB");
    InProcessLayers(corpus, report);
    // What an unloaded request spends outside the handler: sockets,
    // wake-ups and queueing (the open loop sends the popularity mix).
    report.Set("serve.transport_us",
               report.Get("serve.query_p50_us") -
                   report.Get("serve.handle_hit_us"),
               "us");
  } else {
    report.Set("setup_s", Median(setups), "s");
    report.Set("op_s", Median(scan.slice_service_s), "s");
    report.Set("op_cpu_s", Median(scan.slice_cpu_s), "s");
    report.Set("peak_rss_mb", server_rss, "MB");
    report.Set("root_nmi", RootNmi(model->taxonomy(), *dataset), "ratio");
    report.Set("placement_precision",
               PlacementPrecision(model->taxonomy(), *dataset), "ratio");
    // The two published versions carry the same taxonomy.
    report.Set("topic_stability",
               TopicStability(IndexTopics(*corpus.index[0]),
                              IndexTopics(*corpus.index[1])),
               "ratio");
    report.Set("description_exact_share",
               DescriptionExactShare(v1, model->taxonomy()), "ratio");
  }
}

}  // namespace perfbench
