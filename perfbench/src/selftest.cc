// Self-test of the benchmark's own checks: every check must accept the
// program's real output and reject a planted wrong answer.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "checks.h"
#include "core/shoal.h"
#include "data/shoal_adapter.h"
#include "serve/http_message.h"
#include "serve/service.h"
#include "text/word2vec.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

namespace core = shoal::core;
namespace data = shoal::data;
namespace serve = shoal::serve;

namespace {

struct Tally {
  int failures = 0;

  // `real` must pass and `planted` must fail.
  void Expect(const std::string& name, const Errors& real,
              const Errors& planted) {
    const bool ok = real.empty() && !planted.empty();
    std::printf("selftest %-44s %s\n", name.c_str(), ok ? "ok" : "FAIL");
    if (!real.empty()) {
      std::printf("  real output rejected: %s\n", real.front().c_str());
    }
    if (planted.empty()) std::printf("  planted answer accepted\n");
    if (!ok) ++failures;
  }
};

shoal::graph::WeightedGraph WithWeight(const shoal::graph::WeightedGraph& g,
                                       size_t edge, double weight) {
  shoal::graph::WeightedGraph out(g.num_vertices());
  const auto edges = g.AllEdges();
  for (size_t i = 0; i < edges.size(); ++i) {
    SHOAL_CHECK(out.AddEdge(edges[i].u, edges[i].v,
                            i == edge ? weight : edges[i].weight)
                    .ok());
  }
  return out;
}

}  // namespace

int RunSelftest(const RunOptions& run) {
  Tally tally;
  auto dataset = data::GenerateDataset(ScaledDataset(1500, run.seed));
  SHOAL_CHECK(dataset.ok()) << dataset.status().ToString();
  const data::ShoalInputBundle bundle = data::MakeShoalInput(*dataset);
  const core::ShoalInput input = bundle.View();
  core::ShoalOptions options = BuildOptions();
  auto model = core::BuildShoal(input, options);
  SHOAL_CHECK(model.ok()) << model.status().ToString();
  const auto& graph = model->entity_graph();
  const WindowClicks window =
      WindowFromClicks(dataset->clicks, dataset->queries.size(),
                       dataset->entities.size(), kWindowDays);
  std::vector<std::vector<uint32_t>> corpus = bundle.entity_title_words;
  corpus.insert(corpus.end(), bundle.query_words.begin(),
                bundle.query_words.end());
  auto vectors = shoal::text::Word2Vec::Train(*bundle.vocab, corpus,
                                              options.word2vec);
  SHOAL_CHECK(vectors.ok());

  // An edge whose weight is off by 1e-6.
  const auto edges = graph.AllEdges();
  const size_t victim = edges.size() / 2;
  const auto perturbed = WithWeight(graph, victim, edges[victim].weight + 1e-6);
  const double alpha = options.entity_graph.alpha;
  tally.Expect("edge weight perturbed by 1e-6",
               CheckEdgeWeights(graph, window, bundle.entity_title_words,
                                vectors->vectors(), alpha, edges.size(),
                                run.seed, kEdgeTolerance, nullptr),
               CheckEdgeWeights(perturbed, window, bundle.entity_title_words,
                                vectors->vectors(), alpha, edges.size(),
                                run.seed, kEdgeTolerance, nullptr));

  // An edge below the threshold.
  const double threshold = options.entity_graph.similarity_threshold;
  tally.Expect("edge below the threshold",
               CheckEdgeBounds(graph, threshold,
                               options.entity_graph.max_degree),
               CheckEdgeBounds(WithWeight(graph, victim, threshold * 0.99),
                               threshold, options.entity_graph.max_degree));
  tally.Expect("degree cap exceeded",
               CheckEdgeBounds(graph, threshold,
                               options.entity_graph.max_degree),
               CheckEdgeBounds(graph, threshold, 1));

  // The standing graph off by one ulp on one weight.
  tally.Expect("maintained graph one ulp off",
               CheckSameGraph(graph, WithWeight(graph, victim,
                                                edges[victim].weight)),
               CheckSameGraph(graph,
                              WithWeight(graph, victim,
                                         std::nextafter(edges[victim].weight,
                                                        2.0))));

  // A child topic holding an entity its parent does not.
  const core::Taxonomy& taxonomy = model->taxonomy();
  core::Taxonomy broken = taxonomy;
  uint32_t child = core::kNoTopic;
  for (uint32_t t = 0; t < broken.num_topics(); ++t) {
    if (broken.topic(t).parent != core::kNoTopic) child = t;
  }
  SHOAL_CHECK(child != core::kNoTopic) << "no sub-topic to break";
  const auto& parent_members = broken.topic(broken.topic(child).parent).entities;
  for (uint32_t e = 0; e < broken.num_entities(); ++e) {
    if (std::find(parent_members.begin(), parent_members.end(), e) ==
        parent_members.end()) {
      broken.topic(child).entities.push_back(e);
      break;
    }
  }
  tally.Expect("child topic outside its parent",
               CheckTaxonomyShape(taxonomy), CheckTaxonomyShape(broken));

  // A stale description: a query nobody clicked inside the topic.
  std::vector<std::string> texts;
  for (const auto& q : dataset->queries) texts.push_back(q.text);
  core::Taxonomy stale = taxonomy;
  const uint32_t root = stale.roots().front();
  std::vector<uint32_t> members = stale.topic(root).entities;
  std::sort(members.begin(), members.end());
  for (uint32_t q = 0; q < texts.size(); ++q) {
    bool clicked = false;
    for (uint32_t e : window.entities_of[q]) {
      clicked = clicked || std::binary_search(members.begin(), members.end(), e);
    }
    if (!clicked) {
      stale.topic(root).description.front() = texts[q];
      break;
    }
  }
  tally.Expect("stale description on a topic",
               CheckDescriptionClicks(taxonomy, window, texts),
               CheckDescriptionClicks(stale, window, texts));

  // A cycle that skips a version.
  tally.Expect("cycle skips a version", CheckVersionSequence({4, 5, 6, 7}),
               CheckVersionSequence({4, 5, 7, 8}));

  // Served bodies: two topics swapped, and a body of the other version.
  std::shared_ptr<const serve::ServingIndex> index[2];
  for (int slot = 0; slot < 2; ++slot) {
    auto compiled = CompileIndex(*model, input, slot + 1);
    SHOAL_CHECK(compiled.ok());
    auto built = compiled->Build();
    SHOAL_CHECK(built.ok());
    index[slot] = std::make_shared<serve::ServingIndex>(std::move(*built));
  }
  std::string query;
  for (uint32_t q = 0; q < index[0]->num_queries(); ++q) {
    if (index[0]->postings(q).size() >= 2) {
      query = std::string(index[0]->query_text(q));
      break;
    }
  }
  SHOAL_CHECK(!query.empty()) << "no query with two postings";
  serve::ServiceOptions service_options;
  service_options.cache_entries = 0;
  serve::ServingService service(index[0], service_options);
  serve::HttpRequest request = serve::ParseRequestTarget("GET", "/v1/query");
  request.params = {{"q", query}, {"k", "5"}};
  const std::string body = service.Handle(request).body;
  auto parsed = shoal::util::JsonValue::Parse(body);
  SHOAL_CHECK(parsed.ok());
  shoal::util::JsonValue swapped = shoal::util::JsonValue::Object();
  for (const auto& [key, value] : parsed->members()) {
    if (key != "results") {
      swapped.Set(key, value);
      continue;
    }
    shoal::util::JsonValue results = shoal::util::JsonValue::Array();
    std::vector<shoal::util::JsonValue> items = value.items();
    std::swap(items[0], items[1]);
    for (auto& item : items) results.Append(std::move(item));
    swapped.Set(key, std::move(results));
  }
  tally.Expect("served body with two topics swapped",
               CheckQueryBody(body, *index[0], query, 5),
               CheckQueryBody(swapped.Dump(), *index[0], query, 5));
  tally.Expect("served body from the other version",
               CheckQueryBody(body, *index[0], query, 5),
               CheckQueryBody(body, *index[1], query, 5));
  tally.Expect("born query missing from the index",
               CheckQueriesResolve(*index[0], {query}),
               CheckQueriesResolve(*index[0], {query + " never seen"}));

  std::printf("selftest: %s (%d failing)\n",
              tally.failures == 0 ? "PASS" : "FAIL", tally.failures);
  return tally.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
