// The `build` workload: a 7-day click log becomes a taxonomy and a
// serving index file, as `shoal_cli build --threads=4
// --serving-index-out` does it. Also home of the input make-up the
// other workloads share.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "checks.h"
#include "core/category_correlation.h"
#include "core/entity_graph.h"
#include "core/parallel_hac.h"
#include "core/query_search.h"
#include "core/taxonomy.h"
#include "core/taxonomy_io.h"
#include "core/topic_describer.h"
#include "data/log_io.h"
#include "eval/cluster_metrics.h"
#include "eval/precision_eval.h"
#include "serve/serving_index.h"
#include "text/word2vec.h"
#include "workloads.h"

namespace perfbench {

namespace core = shoal::core;
namespace data = shoal::data;
namespace serve = shoal::serve;

data::DatasetOptions ScaledDataset(size_t entities, uint64_t seed) {
  data::DatasetOptions options;
  options.num_entities = entities;
  options.num_queries = std::max<size_t>(200, entities * 3 / 4);
  options.num_clicks = entities * 50;
  options.num_root_intents = std::max<size_t>(4, entities / 180);
  options.children_per_root = 3;
  options.num_departments = std::max<size_t>(4, entities / 500);
  options.leaves_per_department = 8;
  options.seed = seed;
  return options;
}

core::ShoalOptions BuildOptions() {
  core::ShoalOptions options;
  options.num_threads = kBuildThreads;
  options.correlation.min_strength = 1;  // shoal_cli's --min_strength
  return options;
}

data::DriftOptions DriftWorkload(size_t entities, size_t days,
                                 uint64_t seed) {
  data::DriftOptions options;
  options.catalog = ScaledDataset(entities, seed);
  options.num_days = days;
  options.background_pairs = entities * 3;
  options.drift_clicks_per_day = std::max<size_t>(500, entities / 4);
  options.click_noise = 0.002;
  return options;
}

double RootNmi(const core::Taxonomy& taxonomy, const data::Dataset& dataset) {
  auto nmi = shoal::eval::NormalizedMutualInformation(
      taxonomy.RootLabels(), dataset.EntityRootIntentLabels());
  return nmi.ok() ? *nmi : 0.0;
}

double PlacementPrecision(const core::Taxonomy& taxonomy,
                          const data::Dataset& dataset) {
  auto result = shoal::eval::EvaluatePlacementPrecision(
      taxonomy, dataset.EntityIntentLabels(),
      shoal::eval::PrecisionEvalOptions());
  return result.ok() ? result->precision : 0.0;
}

core::DescriberInput DescribeInput(const core::Taxonomy& taxonomy,
                                   const core::ShoalInput& input) {
  core::DescriberInput describe;
  describe.taxonomy = &taxonomy;
  describe.query_item_graph = input.query_item_graph;
  describe.query_words = input.query_words;
  describe.query_texts = input.query_texts;
  describe.entity_title_words = input.entity_title_words;
  return describe;
}

shoal::util::Result<serve::ServingIndexData> CompileIndex(
    const core::ShoalModel& model, const core::ShoalInput& input,
    uint64_t version) {
  serve::CompileOptions options;
  options.version = version;
  return serve::CompileServingIndex(
      model.taxonomy(), DescribeInput(model.taxonomy(), input),
      core::DescriberOptions(), input.entity_categories, options);
}

namespace {

struct Imported {
  data::SearchLog log;
  data::ShoalInputBundle bundle;
};

// Import + parse: the build's set-up.
std::unique_ptr<Imported> Import(const std::string& dir, Report& report) {
  report.Attempt("imports");
  auto log = data::ImportSearchLog(dir);
  if (!log.ok()) {
    report.Fail("imports");
    report.CheckFailed("import: " + log.status().ToString());
    return nullptr;
  }
  auto imported = std::make_unique<Imported>();
  imported->log = std::move(log).value();
  imported->bundle = data::MakeShoalInputFromLog(imported->log, kWindowDays);
  return imported;
}

// The checks every build run makes on its last model.
void CheckModel(const core::ShoalModel& model, const data::Dataset& dataset,
                const core::ShoalInput& input,
                const shoal::text::EmbeddingTable& vectors,
                const core::ShoalOptions& options, uint64_t seed,
                Report& report) {
  const WindowClicks window =
      WindowFromClicks(dataset.clicks, dataset.queries.size(),
                       dataset.entities.size(), kWindowDays);
  double deviation = 0.0;
  report.Check("edge weights (Eq. 1-3)",
               CheckEdgeWeights(model.entity_graph(), window,
                                *input.entity_title_words, vectors,
                                options.entity_graph.alpha, 2000, seed,
                                kEdgeTolerance, &deviation));
  Log("largest Eq. 1-3 deviation %.3g", deviation);
  report.Check("edge threshold + degree cap",
               CheckEdgeBounds(model.entity_graph(),
                               options.entity_graph.similarity_threshold,
                               options.entity_graph.max_degree));
  report.Check("taxonomy nesting", CheckTaxonomyShape(model.taxonomy()));
  std::vector<std::string> texts;
  for (const auto& q : dataset.queries) texts.push_back(q.text);
  report.Check("description clicks",
               CheckDescriptionClicks(model.taxonomy(), window, texts));
}

// The quality ratios, held to the README's floors; reported as
// end-to-end metrics when `report_them`.
void QualityMetrics(const core::Taxonomy& taxonomy,
                    const data::Dataset& dataset, bool report_them,
                    Report& report) {
  const double nmi = RootNmi(taxonomy, dataset);
  const double precision = PlacementPrecision(taxonomy, dataset);
  if (report_them) {
    report.Set("root_nmi", nmi, "ratio");
    report.Set("placement_precision", precision, "ratio");
  }
  if (!(nmi >= kRootNmiFloor)) report.CheckFailed("root_nmi below floor");
  if (!(precision >= kPrecisionFloor)) {
    report.CheckFailed("placement_precision below floor");
  }
}

shoal::text::Word2Vec TrainVectors(const core::ShoalInput& input,
                                   const core::ShoalOptions& options) {
  std::vector<std::vector<uint32_t>> corpus = *input.entity_title_words;
  corpus.insert(corpus.end(), input.query_words->begin(),
                input.query_words->end());
  auto trained =
      shoal::text::Word2Vec::Train(*input.vocab, corpus, options.word2vec);
  SHOAL_CHECK(trained.ok()) << trained.status().ToString();
  return std::move(trained).value();
}

void Untraced(const RunOptions& run, const data::Dataset& dataset,
              const std::string& log_dir, Report& report) {
  // Set-up: import + parse, three times, median.
  std::vector<double> setups;
  std::unique_ptr<Imported> imported;
  for (int i = 0; i < 3; ++i) {
    imported.reset();
    Timed timed("data.import");
    imported = Import(log_dir, report);
    setups.push_back(timed.Stop());
    if (imported == nullptr) return;
  }
  report.Set("setup_s", Median(setups), "s");

  // Builds until the run's time is spent (at least two, so stability
  // compares two builds).
  const core::ShoalOptions options = BuildOptions();
  const core::ShoalInput input = imported->bundle.View();
  std::vector<double> walls;
  std::vector<double> cpus;
  std::unique_ptr<core::ShoalModel> model;
  std::vector<std::string> index_files;
  const double begin = NowSeconds();
  while (walls.size() < 2 || NowSeconds() - begin < run.seconds) {
    report.Attempt("builds");
    const std::string path =
        run.work_dir + "/build-" + std::to_string(walls.size()) + ".idx";
    model.reset();
    // BuildShoal -> CompileServingIndex -> Build() -> write, timed
    // together; the first failing step ends the run.
    Timed timed("build");
    auto built = core::BuildShoal(input, options);
    shoal::util::Status status = built.status();
    if (status.ok()) {
      auto compiled = CompileIndex(*built, input, 1);
      status = compiled.status();
      if (status.ok()) status = compiled->Build().status();
      if (status.ok()) status = serve::WriteServingIndexFile(path, *compiled);
    }
    timed.Stop();
    if (!status.ok()) {
      report.Fail("builds");
      report.CheckFailed("build: " + status.ToString());
      return;
    }
    walls.push_back(timed.wall_s());
    cpus.push_back(timed.cpu_s());
    model = std::make_unique<core::ShoalModel>(std::move(built).value());
    index_files.push_back(path);
  }
  report.Set("op_s", Median(walls), "s");
  report.Set("op_cpu_s", Median(cpus), "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  Log("%zu builds, median %.3f s", walls.size(), Median(walls));

  // Outputs.
  auto first = serve::ReadServingIndexFile(index_files.front());
  auto last = serve::ReadServingIndexFile(index_files.back());
  if (!first.ok() || !last.ok()) {
    report.CheckFailed("written index does not load");
    return;
  }
  report.Set("topic_stability",
             TopicStability(IndexTopics(*first), IndexTopics(*last)), "ratio");
  report.Set("description_exact_share",
             DescriptionExactShare(*last, model->taxonomy()), "ratio");
  QualityMetrics(model->taxonomy(), dataset, true, report);
  CheckModel(*model, dataset, input, TrainVectors(input, options).vectors(),
             options, run.seed, report);
}

// Stage by stage, each public call timed from outside, composed exactly
// as BuildShoal composes them; the result must equal BuildShoal's.
void Traced(const RunOptions& run, const data::Dataset& dataset,
            const std::string& log_dir, Report& report) {
  std::unique_ptr<Imported> imported;
  {
    Timed timed("data.import");
    imported = Import(log_dir, report);
    timed.Stop();
    if (imported == nullptr) return;
    report.Set("data.import_s", timed.wall_s(), "s");
    report.Set("data.import_rss_mb", timed.rss_mb(), "MB");
  }
  core::ShoalOptions options = BuildOptions();
  options.entity_graph.num_threads = options.num_threads;
  options.hac.num_threads = options.num_threads;
  const core::ShoalInput input = imported->bundle.View();
  report.Attempt("builds");

  double stage_sum = 0.0;
  auto record = [&](const Timed& timed, const std::string& name, bool cpu) {
    report.Set(name + "_s", timed.wall_s(), "s");
    report.Set(name + "_rss_mb", timed.rss_mb(), "MB");
    if (cpu) report.Set(name + "_cpu_s", timed.cpu_s(), "s");
    stage_sum += timed.wall_s();
  };

  Timed total("build");
  Timed w2v_timed("text.word2vec");
  shoal::text::Word2Vec vectors = TrainVectors(input, options);
  w2v_timed.Stop();
  record(w2v_timed, "text.word2vec", false);

  core::EntityGraphStats graph_stats;
  Timed graph_timed("core.entity_graph");
  auto graph = core::BuildEntityGraph(*input.query_item_graph,
                                      *input.entity_title_words,
                                      vectors.vectors(), options.entity_graph,
                                      &graph_stats);
  graph_timed.Stop();
  SHOAL_CHECK(graph.ok()) << graph.status().ToString();
  record(graph_timed, "core.entity_graph", true);

  core::ParallelHacStats hac_stats;
  Timed hac_timed("core.hac");
  auto dendrogram = core::ParallelHac(*graph, options.hac, &hac_stats);
  hac_timed.Stop();
  SHOAL_CHECK(dendrogram.ok()) << dendrogram.status().ToString();
  record(hac_timed, "core.hac", true);

  Timed taxonomy_timed("core.taxonomy");
  core::Taxonomy taxonomy = core::Taxonomy::Build(
      *dendrogram, *input.entity_categories, options.taxonomy);
  taxonomy_timed.Stop();
  record(taxonomy_timed, "core.taxonomy", false);

  Timed describe_timed("core.describe");
  auto rankings = core::TopicDescriber::Describe(
      taxonomy, DescribeInput(taxonomy, input), options.describer);
  describe_timed.Stop();
  SHOAL_CHECK(rankings.ok()) << rankings.status().ToString();
  record(describe_timed, "core.describe", true);

  Timed correlation_timed("core.correlation");
  core::CategoryCorrelation correlations =
      core::CategoryCorrelation::Mine(taxonomy, options.correlation);
  correlation_timed.Stop();
  record(correlation_timed, "core.correlation", false);

  Timed search_timed("core.search_index");
  auto search = core::QueryTopicIndex::Build(
      taxonomy, *input.entity_title_words, input.vocab, options.search);
  search_timed.Stop();
  SHOAL_CHECK(search.ok()) << search.status().ToString();
  record(search_timed, "core.search_index", false);

  Timed compile_timed("serve.compile");
  auto compiled = serve::CompileServingIndex(
      taxonomy, DescribeInput(taxonomy, input), options.describer,
      input.entity_categories, serve::CompileOptions());
  compile_timed.Stop();
  SHOAL_CHECK(compiled.ok()) << compiled.status().ToString();
  record(compile_timed, "serve.compile", true);

  const std::string index_path = run.work_dir + "/traced.idx";
  Timed write_timed("serve.index_write");
  auto frozen = compiled->Build();
  auto written = frozen.ok()
                     ? serve::WriteServingIndexFile(index_path, *compiled)
                     : frozen.status();
  write_timed.Stop();
  SHOAL_CHECK(written.ok()) << written.ToString();
  record(write_timed, "serve.index_write", false);
  total.Stop();

  report.Set("core.candidate_pairs",
             static_cast<double>(graph_stats.candidate_pairs), "count");
  report.Set("core.graph_edges", static_cast<double>(graph->num_edges()),
             "count");
  report.Set("core.edge_yield",
             graph_stats.candidate_pairs == 0
                 ? 0.0
                 : static_cast<double>(graph->num_edges()) /
                       static_cast<double>(graph_stats.candidate_pairs),
             "ratio");
  report.Set("core.hac_rounds", static_cast<double>(hac_stats.rounds),
             "count");
  report.Set("core.hac_messages",
             static_cast<double>(hac_stats.total_messages), "count");
  report.Set("serve.index_bytes",
             static_cast<double>(std::filesystem::file_size(index_path)),
             "bytes");
  report.Set("build.traced_op_s", total.wall_s(), "s");
  report.Set("build.layer_coverage", stage_sum / total.wall_s(), "ratio");
  if (stage_sum < kBuildCoverage * total.wall_s()) {
    report.CheckFailed("build stages cover too little of the traced build");
  }

  // The composition must be BuildShoal, byte for byte.
  auto reference = core::BuildShoal(input, options);
  SHOAL_CHECK(reference.ok()) << reference.status().ToString();
  const std::string dir_a = run.work_dir + "/taxonomy-staged";
  const std::string dir_b = run.work_dir + "/taxonomy-buildshoal";
  SHOAL_CHECK(core::SaveTaxonomy(taxonomy, correlations, dir_a).ok());
  SHOAL_CHECK(core::SaveTaxonomy(reference->taxonomy(),
                                 reference->correlations(), dir_b)
                  .ok());
  Errors differ;
  for (const auto& entry : std::filesystem::directory_iterator(dir_b)) {
    const std::string name = entry.path().filename().string();
    if (FileBytes(dir_a + "/" + name) != FileBytes(entry.path().string())) {
      differ.push_back(name + " differs from BuildShoal's");
    }
  }
  report.Check("staged build == BuildShoal", differ);
  CheckModel(*reference, dataset, input, vectors.vectors(), options, run.seed,
             report);
  QualityMetrics(reference->taxonomy(), dataset, false, report);
}

}  // namespace

void RunBuild(const RunOptions& run, Report& report) {
  auto dataset = data::GenerateDataset(ScaledDataset(kEntities, run.seed));
  SHOAL_CHECK(dataset.ok()) << dataset.status().ToString();
  const std::string log_dir = run.work_dir + "/log";
  SHOAL_CHECK(data::ExportSearchLog(*dataset, log_dir).ok());
  if (run.trace) {
    Traced(run, *dataset, log_dir, report);
  } else {
    Untraced(run, *dataset, log_dir, report);
  }
  std::filesystem::remove_all(log_dir);
}

}  // namespace perfbench
