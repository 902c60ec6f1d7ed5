// The `refresh` workload: TaxonomyDaemon keeps a 7-day window fresh,
// one cycle per day file, at its default single thread.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "checks.h"
#include "core/entity_graph.h"
#include "core/topic_describer.h"
#include "daemon/daemon.h"
#include "data/drift_log.h"
#include "serve/serving_index.h"
#include "workloads.h"

namespace perfbench {

namespace core = shoal::core;
namespace daemon = shoal::daemon;
namespace data = shoal::data;
namespace serve = shoal::serve;

namespace {

constexpr size_t kWindow = 7;
// Steady-state cycles after the window fills: a fixed count (about
// 15 s here), so every run does the same work and the quality ratios,
// which depend on the last day, are a pure function of the seed.
constexpr size_t kSteadyCycles = 32;

// Entities whose click counts differ between the day entering the
// window and the day leaving it: the delta's footprint, from the day
// files alone.
std::set<uint32_t> TouchedEntities(const data::DriftLog& log, size_t day) {
  std::map<std::pair<uint32_t, uint32_t>, int64_t> net;
  for (const auto& c : log.days[day].clicks) ++net[{c.query, c.entity}];
  if (day >= kWindow) {
    for (const auto& c : log.days[day - kWindow].clicks) {
      --net[{c.query, c.entity}];
    }
  }
  std::set<uint32_t> touched;
  for (const auto& [pair, count] : net) {
    if (count != 0) touched.insert(pair.second);
  }
  return touched;
}

size_t DayOf(const std::string& file) {
  return static_cast<size_t>(std::stoul(file.substr(4, 4)));  // day-NNNN
}

daemon::DaemonOptions Options(const std::string& spool,
                              const std::string& dir) {
  daemon::DaemonOptions options;
  options.spool_dir = spool;
  options.index_path = dir + "/published.idx";
  options.snapshot_path = dir + "/window.snap";
  options.window_days = kWindow;
  std::filesystem::create_directories(dir);
  return options;
}

// What the run checks and measures after every cycle of the kept
// daemon, from the day files and the published index files.
struct CycleAudit {
  std::vector<uint64_t> versions;
  std::unique_ptr<serve::ServingIndex> previous;
  TopicImages previous_topics;
  size_t untouched = 0;
  size_t stable = 0;

  void After(const data::DriftLog& log, const daemon::CycleReport& cycle,
             const std::string& index_path, bool steady, Report& report) {
    versions.push_back(cycle.published_version);
    auto loaded = serve::ReadServingIndexFile(index_path);
    if (!loaded.ok()) {
      report.CheckFailed("published index does not load: " +
                         loaded.status().ToString());
      return;
    }
    auto index = std::make_unique<serve::ServingIndex>(std::move(*loaded));
    if (index->version() != cycle.published_version) {
      report.CheckFailed("index file version differs from the cycle's");
    }
    const size_t day = DayOf(cycle.day_file);
    std::vector<std::string> born;
    for (uint32_t q : log.days[day].born_queries) {
      born.push_back(log.catalog.queries[q].text);
    }
    report.Check("day " + std::to_string(day) + " births resolve",
                 CheckQueriesResolve(*index, born));
    TopicImages topics = IndexTopics(*index);
    if (steady && previous != nullptr) {
      const std::set<uint32_t> touched = TouchedEntities(log, day);
      for (const auto& [members, image] : previous_topics) {
        bool hit = false;
        for (uint32_t e : members) {
          if (touched.count(e)) {
            hit = true;
            break;
          }
        }
        if (hit) continue;
        ++untouched;
        auto it = topics.find(members);
        stable += it != topics.end() && it->second == image ? 1 : 0;
      }
    }
    previous = std::move(index);
    previous_topics = std::move(topics);
  }
};

std::unique_ptr<daemon::TaxonomyDaemon> Create(
    const daemon::DaemonOptions& options, Report& report) {
  auto created = daemon::TaxonomyDaemon::Create(options);
  if (!created.ok()) {
    report.CheckFailed("daemon create: " + created.status().ToString());
    return nullptr;
  }
  return std::move(created).value();
}

// One RunOnce, counted; nullopt on failure or when no day is waiting.
std::optional<daemon::CycleReport> Cycle(daemon::TaxonomyDaemon& live,
                                         Report& report) {
  report.Attempt("cycles");
  auto cycle = live.RunOnce();
  if (!cycle.ok() || !cycle->has_value()) {
    report.Fail("cycles");
    report.CheckFailed("cycle: " + (cycle.ok() ? std::string("no day file")
                                               : cycle.status().ToString()));
    return std::nullopt;
  }
  return **cycle;
}

// After the last cycle: the standing graph against a from-scratch
// build of the same window, and the published descriptions against a
// fresh describe of the same taxonomy over the same window.
void FinalChecks(const data::DriftLog& log, daemon::TaxonomyDaemon& live,
                 const daemon::DaemonOptions& options, size_t end_day,
                 const serve::ServingIndex& published, bool trace,
                 Report& report) {
  const shoal::graph::BipartiteGraph window =
      data::BuildWindowGraph(log, end_day - kWindow, end_day);
  core::EntityGraphOptions graph_options = options.entity_graph;
  graph_options.num_threads = kBuildThreads;  // same graph at any count
  auto scratch = core::BuildEntityGraph(window, live.title_words(),
                                        live.word_vectors(), graph_options);
  auto maintained = live.graph().Materialize();
  if (!scratch.ok() || !maintained.ok()) {
    report.CheckFailed("graph rebuild failed");
  } else {
    report.Check("standing graph == rebuild",
                 CheckSameGraph(*scratch, *maintained));
  }

  std::vector<std::vector<uint32_t>> query_words;
  std::vector<std::string> query_texts;
  for (const auto& q : live.catalog().queries) {  // the daemon's vocabulary
    query_words.push_back(q.words);
    query_texts.push_back(q.text);
  }
  core::Taxonomy fresh = live.taxonomy();
  core::DescriberInput input;
  input.taxonomy = &fresh;
  input.query_item_graph = &window;
  input.query_words = &query_words;
  input.query_texts = &query_texts;
  input.entity_title_words = &live.title_words();
  auto described =
      core::TopicDescriber::Describe(fresh, input, options.describer);
  if (!described.ok() || fresh.num_topics() != published.num_topics()) {
    report.CheckFailed("fresh describe failed or topic counts differ");
    return;
  }
  report.Set(trace ? "daemon.description_exact_share"
                   : "description_exact_share",
             DescriptionExactShare(published, fresh), "ratio");
  const WindowClicks clicks = AllClicks(
      [&] {
        std::vector<data::ClickEvent> all;
        for (size_t d = end_day - kWindow; d < end_day; ++d) {
          all.insert(all.end(), log.days[d].clicks.begin(),
                     log.days[d].clicks.end());
        }
        return all;
      }(),
      log.catalog.queries.size(), log.catalog.entities.size());
  report.Check("description clicks",
               CheckDescriptionClicks(live.taxonomy(), clicks, query_texts));
  report.Check("taxonomy nesting", CheckTaxonomyShape(live.taxonomy()));
}

}  // namespace

void RunRefresh(const RunOptions& run, Report& report) {
  auto log = data::GenerateDriftLog(
      DriftWorkload(kEntities, kWindow + kSteadyCycles, run.seed));
  SHOAL_CHECK(log.ok()) << log.status().ToString();
  const std::string spool = run.work_dir + "/spool";
  std::filesystem::create_directories(spool);
  SHOAL_CHECK(data::ExportDriftCatalog(*log, spool).ok());
  for (size_t d = 0; d < log->days.size(); ++d) {
    SHOAL_CHECK(data::ExportDriftDay(*log, d, spool).ok());
  }

  // Set-up: Create + every cycle until the window is full (the first is
  // a full rebuild). Untraced runs repeat it and keep the last daemon.
  const int setups_wanted = run.trace ? 1 : 3;
  std::vector<double> setups;
  std::unique_ptr<daemon::TaxonomyDaemon> live;
  daemon::DaemonOptions options;
  CycleAudit audit;
  for (int i = 0; i < setups_wanted; ++i) {
    live.reset();
    audit = CycleAudit();
    options = Options(spool, run.work_dir + "/daemon-" + std::to_string(i));
    Timed create("daemon.create");
    live = Create(options, report);
    create.Stop();
    if (live == nullptr) return;
    // The per-cycle audit reads index files; it is not set-up time.
    double fill_s = 0.0;
    for (size_t d = 0; d < kWindow; ++d) {
      Timed timed("daemon.fill_cycle");
      auto cycle = Cycle(*live, report);
      fill_s += timed.Stop();
      if (!cycle) return;
      audit.After(*log, *cycle, options.index_path, false, report);
    }
    setups.push_back(create.wall_s() + fill_s);
    if (run.trace) {
      report.Set("daemon.create_s", create.wall_s(), "s");
      report.Set("daemon.fill_s", fill_s, "s");
    }
  }
  if (!run.trace) report.Set("setup_s", Median(setups), "s");

  // Steady state: one cycle per remaining day.
  std::vector<double> walls, cpus, ingest, graph, cluster, describe, publish,
      snapshot, delta, rescored, touched, carried, dirty, snapshot_bytes,
      stage_share;
  size_t end_day = kWindow;
  while (end_day < log->days.size()) {
    Timed timed("daemon.cycle");
    auto cycle = Cycle(*live, report);
    timed.Stop();
    if (!cycle) return;
    end_day = DayOf(cycle->day_file) + 1;
    walls.push_back(timed.wall_s());
    cpus.push_back(timed.cpu_s());
    ingest.push_back(cycle->ingest_seconds);
    graph.push_back(cycle->graph_seconds);
    cluster.push_back(cycle->cluster_seconds);
    describe.push_back(cycle->describe_seconds);
    publish.push_back(cycle->publish_seconds);
    snapshot.push_back(cycle->snapshot_seconds);
    delta.push_back(static_cast<double>(cycle->delta.delta_entries));
    rescored.push_back(static_cast<double>(cycle->delta.pairs_rescored));
    touched.push_back(static_cast<double>(cycle->touched_topics));
    carried.push_back(static_cast<double>(cycle->carried_topics));
    dirty.push_back(cycle->dirty_fraction);
    snapshot_bytes.push_back(static_cast<double>(
        std::filesystem::file_size(options.snapshot_path)));
    stage_share.push_back(
        (cycle->ingest_seconds + cycle->graph_seconds +
         cycle->cluster_seconds + cycle->describe_seconds +
         cycle->publish_seconds + cycle->snapshot_seconds) /
        timed.wall_s());
    audit.After(*log, *cycle, options.index_path, true, report);
  }
  report.Check("versions rise by one", CheckVersionSequence(audit.versions));
  const double stability =
      audit.untouched == 0 ? 0.0
                           : static_cast<double>(audit.stable) /
                                 static_cast<double>(audit.untouched);
  if (run.trace) {
    report.Set("daemon.cycle_s", Median(walls), "s");
    report.Set("daemon.cycle_cpu_s", Median(cpus), "s");
    report.Set("daemon.ingest_s", Median(ingest), "s");
    report.Set("daemon.graph_s", Median(graph), "s");
    report.Set("daemon.cluster_s", Median(cluster), "s");
    report.Set("daemon.describe_s", Median(describe), "s");
    report.Set("daemon.publish_s", Median(publish), "s");
    report.Set("daemon.snapshot_s", Median(snapshot), "s");
    report.Set("daemon.delta_entries", Median(delta), "count");
    report.Set("daemon.pairs_rescored", Median(rescored), "count");
    report.Set("daemon.touched_topics", Median(touched), "count");
    report.Set("daemon.carried_topics", Median(carried), "count");
    report.Set("daemon.dirty_fraction", Median(dirty), "ratio");
    report.Set("daemon.snapshot_bytes", Median(snapshot_bytes), "bytes");
    report.Set("daemon.layer_coverage", Median(stage_share), "ratio");
    if (Median(stage_share) < kCycleCoverage) {
      report.CheckFailed("cycle stage timers cover too little of RunOnce");
    }
    report.Set("daemon.topic_stability", stability, "ratio");
  } else {
    report.Set("op_s", Median(walls), "s");
    report.Set("op_cpu_s", Median(cpus), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("topic_stability", stability, "ratio");
    report.Set("root_nmi", RootNmi(live->taxonomy(), log->catalog), "ratio");
    report.Set("placement_precision",
               PlacementPrecision(live->taxonomy(), log->catalog), "ratio");
  }
  Log("%zu steady cycles, median %.3f s, stability %.4f", walls.size(),
      Median(walls), stability);
  FinalChecks(*log, *live, options, end_day, *audit.previous, run.trace,
              report);
}

}  // namespace perfbench
