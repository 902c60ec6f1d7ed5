#include "core/topic_describer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/shoal.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "util/thread_pool.h"

namespace shoal::core {
namespace {

// Two topics with distinct vocabularies and an ambiguous query:
//   topic 0 = entities {0,1}, titles about words {100,101}
//   topic 1 = entities {2,3}, titles about words {200,201}
// Queries:
//   q0 ("100")   -> clicks on entities 0,1 (concentrated on topic 0)
//   q1 ("200")   -> clicks on entities 2,3 (concentrated on topic 1)
//   q2 ("300")   -> one click on each topic (diffuse)
struct DescriberFixture {
  Dendrogram dendrogram{4};
  std::vector<uint32_t> categories{1, 1, 2, 2};
  Taxonomy taxonomy;
  graph::BipartiteGraph qi{3, 4};
  std::vector<std::vector<uint32_t>> query_words{{100}, {200}, {300}};
  std::vector<std::string> query_texts{"beach", "router", "misc"};
  std::vector<std::vector<uint32_t>> titles{
      {100, 101}, {100, 101}, {200, 201}, {200, 201}};

  DescriberFixture() {
    (void)dendrogram.Merge(0, 1, 0.9);
    (void)dendrogram.Merge(2, 3, 0.9);
    TaxonomyOptions options;
    options.min_topic_size = 2;
    options.min_root_size = 2;
    taxonomy = Taxonomy::Build(dendrogram, categories, options);
    EXPECT_EQ(taxonomy.roots().size(), 2u);
    // q0: topic 0 clicks, heavier on entity 0.
    EXPECT_TRUE(qi.AddInteraction(0, 0, 5).ok());
    EXPECT_TRUE(qi.AddInteraction(0, 1, 3).ok());
    // q1: topic 1 clicks.
    EXPECT_TRUE(qi.AddInteraction(1, 2, 4).ok());
    EXPECT_TRUE(qi.AddInteraction(1, 3, 4).ok());
    // q2: one click on each side.
    EXPECT_TRUE(qi.AddInteraction(2, 1, 1).ok());
    EXPECT_TRUE(qi.AddInteraction(2, 2, 1).ok());
  }

  DescriberInput Input() {
    DescriberInput input;
    input.taxonomy = &taxonomy;
    input.query_item_graph = &qi;
    input.query_words = &query_words;
    input.query_texts = &query_texts;
    input.entity_title_words = &titles;
    return input;
  }

  uint32_t TopicOf(uint32_t entity) {
    return taxonomy.RootTopicOfEntity(entity);
  }
};

TEST(TopicDescriberTest, ValidatesInput) {
  DescriberFixture f;
  DescriberInput input;  // all null
  EXPECT_FALSE(
      TopicDescriber::Describe(f.taxonomy, input, DescriberOptions{}).ok());
}

TEST(TopicDescriberTest, ValidatesMetadataSizes) {
  DescriberFixture f;
  auto input = f.Input();
  std::vector<std::vector<uint32_t>> short_words{{1}};
  input.query_words = &short_words;
  EXPECT_FALSE(
      TopicDescriber::Describe(f.taxonomy, input, DescriberOptions{}).ok());
}

TEST(TopicDescriberTest, ConcentratedQueryDescribesItsTopic) {
  DescriberFixture f;
  auto rankings =
      TopicDescriber::Describe(f.taxonomy, f.Input(), DescriberOptions{});
  ASSERT_TRUE(rankings.ok());
  uint32_t topic0 = f.TopicOf(0);
  uint32_t topic1 = f.TopicOf(2);
  // The top query of each topic is the one concentrated on it.
  ASSERT_FALSE((*rankings)[topic0].empty());
  EXPECT_EQ((*rankings)[topic0][0].query, 0u);
  ASSERT_FALSE((*rankings)[topic1].empty());
  EXPECT_EQ((*rankings)[topic1][0].query, 1u);
}

TEST(TopicDescriberTest, DescriptionsWrittenToTopics) {
  DescriberFixture f;
  DescriberOptions options;
  options.queries_per_topic = 2;
  auto rankings = TopicDescriber::Describe(f.taxonomy, f.Input(), options);
  ASSERT_TRUE(rankings.ok());
  uint32_t topic0 = f.TopicOf(0);
  const auto& description = f.taxonomy.topic(topic0).description;
  ASSERT_FALSE(description.empty());
  EXPECT_EQ(description[0], "beach");
}

TEST(TopicDescriberTest, DiffuseQueryRanksBelowConcentrated) {
  DescriberFixture f;
  auto rankings =
      TopicDescriber::Describe(f.taxonomy, f.Input(), DescriberOptions{});
  ASSERT_TRUE(rankings.ok());
  uint32_t topic0 = f.TopicOf(0);
  double r_concentrated = 0.0;
  double r_diffuse = 0.0;
  for (const auto& scored : (*rankings)[topic0]) {
    if (scored.query == 0) r_concentrated = scored.representativeness;
    if (scored.query == 2) r_diffuse = scored.representativeness;
  }
  EXPECT_GT(r_concentrated, r_diffuse);
}

TEST(TopicDescriberTest, ScoresWithinExpectedRanges) {
  DescriberFixture f;
  auto rankings =
      TopicDescriber::Describe(f.taxonomy, f.Input(), DescriberOptions{});
  ASSERT_TRUE(rankings.ok());
  for (const auto& topic_ranking : *rankings) {
    for (const auto& scored : topic_ranking) {
      EXPECT_GE(scored.popularity, 0.0);
      EXPECT_LE(scored.popularity, 1.0);
      EXPECT_GE(scored.concentration, 0.0);
      EXPECT_LE(scored.concentration, 1.0);
      EXPECT_GE(scored.representativeness, 0.0);
      EXPECT_LE(scored.representativeness, 1.0);
    }
  }
}

TEST(TopicDescriberTest, RepresentativenessIsGeometricMean) {
  DescriberFixture f;
  auto rankings =
      TopicDescriber::Describe(f.taxonomy, f.Input(), DescriberOptions{});
  ASSERT_TRUE(rankings.ok());
  for (const auto& topic_ranking : *rankings) {
    for (const auto& scored : topic_ranking) {
      EXPECT_NEAR(scored.representativeness,
                  std::sqrt(scored.popularity * scored.concentration),
                  1e-9);
    }
  }
}

TEST(TopicDescriberTest, RootsOnlySkipsSubTopics) {
  // Build a deeper taxonomy with sub-topics and confirm only roots get
  // descriptions under roots_only.
  Dendrogram d(4);
  uint32_t m01 = d.Merge(0, 1, 0.9).value();
  uint32_t m23 = d.Merge(2, 3, 0.85).value();
  (void)d.Merge(m01, m23, 0.7).value();
  TaxonomyOptions taxonomy_options;
  taxonomy_options.min_topic_size = 2;
  taxonomy_options.min_root_size = 2;
  auto taxonomy = Taxonomy::Build(d, {1, 1, 2, 2}, taxonomy_options);
  ASSERT_EQ(taxonomy.roots().size(), 1u);
  ASSERT_GT(taxonomy.num_topics(), 1u);

  DescriberFixture f;  // reuse its bipartite graph and metadata
  DescriberInput input = f.Input();
  input.taxonomy = &taxonomy;
  DescriberOptions options;
  options.roots_only = true;
  auto rankings = TopicDescriber::Describe(taxonomy, input, options);
  ASSERT_TRUE(rankings.ok());
  uint32_t root = taxonomy.roots()[0];
  EXPECT_FALSE(taxonomy.topic(root).description.empty());
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    if (t == root) continue;
    EXPECT_TRUE(taxonomy.topic(t).description.empty());
  }
}

TEST(TopicDescriberTest, QueriesPerTopicCapRespected) {
  DescriberFixture f;
  DescriberOptions options;
  options.queries_per_topic = 1;
  auto rankings = TopicDescriber::Describe(f.taxonomy, f.Input(), options);
  ASSERT_TRUE(rankings.ok());
  for (uint32_t r : f.taxonomy.roots()) {
    EXPECT_LE(f.taxonomy.topic(r).description.size(), 1u);
  }
}

// Dense reference for Sec 2.3: the relevance of every query to every
// corpus document through Bm25Index::Score, with the softmax denominator
// summed over all documents in doc order. The describer scores through
// the sparse postings instead; both must agree bit for bit.
std::vector<std::vector<ScoredQuery>> DenseDescribe(
    const Taxonomy& taxonomy, const DescriberInput& input,
    const DescriberOptions& options, const std::vector<uint32_t>& doc_topics,
    const std::vector<uint32_t>& score_topics,
    std::vector<std::vector<std::string>>* descriptions) {
  const auto& qi = *input.query_item_graph;
  text::Bm25Index bm25(options.bm25);
  std::unordered_map<uint32_t, uint32_t> doc_of_topic;
  for (uint32_t t : doc_topics) {
    std::vector<uint32_t> doc;
    for (uint32_t e : taxonomy.topic(t).entities) {
      const auto& title = (*input.entity_title_words)[e];
      doc.insert(doc.end(), title.begin(), title.end());
    }
    doc_of_topic[t] = bm25.AddDocument(doc);
  }
  // Per query: relevance to every document, its max and the denominator.
  struct DenseSoftmax {
    std::vector<double> rel;
    double max_rel = 0.0;
    double sum_exp = 0.0;
  };
  std::unordered_map<uint32_t, DenseSoftmax> softmax;
  std::vector<std::vector<ScoredQuery>> rankings(taxonomy.num_topics());
  // A topic without interactions keeps its description.
  descriptions->clear();
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    descriptions->push_back(taxonomy.topic(t).description);
  }
  for (uint32_t t : score_topics) {
    std::unordered_map<uint32_t, uint64_t> tf_q;
    uint64_t tf_total = 0;
    for (uint32_t e : taxonomy.topic(t).entities) {
      for (const auto& link : qi.RightNeighbors(e)) {
        tf_q[link.id] += link.count;
        tf_total += link.count;
      }
    }
    if (tf_total == 0) continue;
    const double log_tf_total =
        std::log(static_cast<double>(tf_total) + 1.0);
    for (const auto& [q, tf] : tf_q) {
      double pop = (std::log(static_cast<double>(tf)) + 1.0) / log_tf_total;
      pop = std::clamp(pop, 0.0, 1.0);
      auto [it, inserted] = softmax.try_emplace(q);
      DenseSoftmax& dense = it->second;
      if (inserted) {
        const auto& words = (*input.query_words)[q];
        dense.rel.resize(bm25.num_documents());
        for (uint32_t d = 0; d < dense.rel.size(); ++d) {
          dense.rel[d] = bm25.Score(words, d);
          dense.max_rel = std::max(dense.max_rel, dense.rel[d]);
        }
        dense.sum_exp = std::exp(0.0 - dense.max_rel);
        for (double r : dense.rel) dense.sum_exp += std::exp(r - dense.max_rel);
      }
      double con = std::exp(dense.rel[doc_of_topic.at(t)] - dense.max_rel) /
                   dense.sum_exp;
      rankings[t].push_back(ScoredQuery{q, std::sqrt(pop * con), pop, con});
    }
    std::sort(rankings[t].begin(), rankings[t].end(),
              [](const ScoredQuery& a, const ScoredQuery& b) {
                if (a.representativeness != b.representativeness) {
                  return a.representativeness > b.representativeness;
                }
                return a.query < b.query;
              });
    (*descriptions)[t].clear();
    for (size_t i = 0;
         i < std::min(options.queries_per_topic, rankings[t].size()); ++i) {
      (*descriptions)[t].push_back(
          (*input.query_texts)[rankings[t][i].query]);
    }
  }
  return rankings;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void ExpectBitEqualRankings(
    const std::vector<std::vector<ScoredQuery>>& got,
    const std::vector<std::vector<ScoredQuery>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].size(), want[t].size()) << "topic " << t;
    for (size_t i = 0; i < got[t].size(); ++i) {
      const ScoredQuery& a = got[t][i];
      const ScoredQuery& b = want[t][i];
      EXPECT_EQ(a.query, b.query) << "topic " << t << " rank " << i;
      EXPECT_TRUE(BitEqual(a.representativeness, b.representativeness) &&
                  BitEqual(a.popularity, b.popularity) &&
                  BitEqual(a.concentration, b.concentration))
          << "topic " << t << " rank " << i << " query " << a.query;
    }
  }
}

std::vector<uint32_t> AllTopics(const Taxonomy& taxonomy) {
  std::vector<uint32_t> topics(taxonomy.num_topics());
  for (uint32_t t = 0; t < topics.size(); ++t) topics[t] = t;
  return topics;
}

// Runs Describe (or DescribeTopics when `subset` is given) on a copy of
// `taxonomy` and checks rankings and descriptions against DenseDescribe.
void ExpectMatchesDense(const Taxonomy& taxonomy, DescriberInput input,
                        const DescriberOptions& options,
                        const std::vector<uint32_t>* subset = nullptr) {
  Taxonomy described = taxonomy;
  input.taxonomy = &described;
  const std::vector<uint32_t> doc_topics =
      subset == nullptr && options.roots_only ? taxonomy.roots()
                                              : AllTopics(taxonomy);
  const std::vector<uint32_t> score_topics =
      subset != nullptr ? *subset : doc_topics;
  auto got = subset != nullptr ? TopicDescriber::DescribeTopics(
                                     described, input, options, *subset)
                               : TopicDescriber::Describe(described, input,
                                                          options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::vector<std::vector<std::string>> want_descriptions;
  const auto want = DenseDescribe(taxonomy, input, options, doc_topics,
                                  score_topics, &want_descriptions);
  ExpectBitEqualRankings(*got, want);
  for (uint32_t t : score_topics) {
    EXPECT_EQ(described.topic(t).description, want_descriptions[t])
        << "topic " << t;
  }
  if (subset == nullptr) return;
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    if (std::find(subset->begin(), subset->end(), t) != subset->end()) {
      continue;
    }
    EXPECT_EQ(described.topic(t).description, taxonomy.topic(t).description)
        << "unscored topic " << t << " was rewritten";
  }
}

TEST(TopicDescriberOracleTest, UnmatchedQueryGetsUniformConcentration) {
  DescriberFixture f;
  f.query_words[2] = {999};  // "misc" shares no word with any title
  Taxonomy described = f.taxonomy;
  auto input = f.Input();
  input.taxonomy = &described;
  auto rankings =
      TopicDescriber::Describe(described, input, DescriberOptions{});
  ASSERT_TRUE(rankings.ok());
  const double n = static_cast<double>(f.taxonomy.num_topics());
  bool seen = false;
  for (const auto& ranking : *rankings) {
    for (const auto& scored : ranking) {
      if (scored.query != 2) continue;
      seen = true;
      EXPECT_TRUE(BitEqual(scored.concentration, 1.0 / (1.0 + n)));
    }
  }
  EXPECT_TRUE(seen);
  ExpectMatchesDense(f.taxonomy, f.Input(), DescriberOptions{});
}

TEST(TopicDescriberOracleTest, UbiquitousAndRepeatedWordsMatchDense) {
  DescriberFixture f;
  // Word 7 is in every title. Its idf is small but positive, so a query
  // containing it has no zero-relevance document at all.
  for (auto& title : f.titles) title.push_back(7);
  f.query_words = {{100, 100, 7}, {7}, {300, 201, 300, 7, 200}};
  ExpectMatchesDense(f.taxonomy, f.Input(), DescriberOptions{});
}

TEST(TopicDescriberOracleTest, EmptyTitlesMatchDense) {
  DescriberFixture f;
  for (auto& title : f.titles) title.clear();  // avgdl 0: every rel is 0
  ExpectMatchesDense(f.taxonomy, f.Input(), DescriberOptions{});
}

class TopicDescriberDatasetTest : public ::testing::TestWithParam<uint64_t> {
};

// On a generated log the sparse describer reproduces the dense one bit
// for bit: full Describe, roots_only, and DescribeTopics on a subset.
TEST_P(TopicDescriberDatasetTest, MatchesDenseOracle) {
  data::DatasetOptions data_options;
  data_options.num_entities = 1500;
  data_options.num_queries = 1100;
  data_options.num_clicks = 60000;
  data_options.seed = GetParam();
  auto dataset = data::GenerateDataset(data_options);
  ASSERT_TRUE(dataset.ok());
  auto bundle = data::MakeShoalInput(*dataset);
  auto model = BuildShoal(bundle.View(), ShoalOptions{});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const Taxonomy& taxonomy = model->taxonomy();
  ASSERT_GT(taxonomy.num_topics(), taxonomy.roots().size());

  DescriberInput input;
  input.query_item_graph = &bundle.query_item_graph;
  input.query_words = &bundle.query_words;
  input.query_texts = &bundle.query_texts;
  input.entity_title_words = &bundle.entity_title_words;

  ExpectMatchesDense(taxonomy, input, DescriberOptions{});
  DescriberOptions roots_only;
  roots_only.roots_only = true;
  ExpectMatchesDense(taxonomy, input, roots_only);
  std::vector<uint32_t> subset;
  for (uint32_t t = 0; t < taxonomy.num_topics(); t += 3) subset.push_back(t);
  ExpectMatchesDense(taxonomy, input, DescriberOptions{}, &subset);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopicDescriberDatasetTest,
                         ::testing::Values(1, 2, 3));

// The whole subset is validated before any description is rewritten.
TEST(TopicDescriberTest, DescribeTopicsRejectsDuplicateIds) {
  DescriberFixture f;
  f.taxonomy.topic(0).description = {"OLD"};
  auto result = TopicDescriber::DescribeTopics(f.taxonomy, f.Input(),
                                               DescriberOptions{}, {0, 0});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(f.taxonomy.topic(0).description,
            std::vector<std::string>{"OLD"});
}

TEST(TopicDescriberTest, DescribeTopicsRejectsOutOfRangeBeforeRewriting) {
  DescriberFixture f;
  f.taxonomy.topic(0).description = {"OLD"};
  auto result = TopicDescriber::DescribeTopics(f.taxonomy, f.Input(),
                                               DescriberOptions{}, {0, 999});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(f.taxonomy.topic(0).description,
            std::vector<std::string>{"OLD"});
}

// Thread sweeps: every pool size must give the inline run's rankings,
// bit for bit, and the same descriptions.
constexpr size_t kThreadCounts[] = {1, 2, 3, 4, 8};

struct Described {
  std::vector<std::vector<ScoredQuery>> rankings;
  std::vector<std::vector<std::string>> descriptions;
};

// Describe (or DescribeTopics when `subset` is given) on a copy of
// `taxonomy` at `num_threads`.
Described DescribeAt(const Taxonomy& taxonomy, DescriberInput input,
                     DescriberOptions options, size_t num_threads,
                     const std::vector<uint32_t>* subset = nullptr) {
  Taxonomy described = taxonomy;
  input.taxonomy = &described;
  options.num_threads = num_threads;
  auto rankings = subset != nullptr
                      ? TopicDescriber::DescribeTopics(described, input,
                                                       options, *subset)
                      : TopicDescriber::Describe(described, input, options);
  EXPECT_TRUE(rankings.ok()) << rankings.status().ToString();
  Described out;
  if (rankings.ok()) out.rankings = std::move(rankings).value();
  for (uint32_t t = 0; t < described.num_topics(); ++t) {
    out.descriptions.push_back(described.topic(t).description);
  }
  return out;
}

// Checks the inline run against the dense oracle, then every thread
// count against the inline run.
void ExpectSameAtEveryThreadCount(
    const Taxonomy& taxonomy, const DescriberInput& input,
    const DescriberOptions& options,
    const std::vector<uint32_t>* subset = nullptr) {
  DescriberOptions inline_options = options;
  inline_options.num_threads = 1;
  ExpectMatchesDense(taxonomy, input, inline_options, subset);
  const Described inline_run =
      DescribeAt(taxonomy, input, options, 1, subset);
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const Described run = DescribeAt(taxonomy, input, options, threads,
                                     subset);
    ExpectBitEqualRankings(run.rankings, inline_run.rankings);
    EXPECT_EQ(run.descriptions, inline_run.descriptions);
  }
}

class TopicDescriberThreadsTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(TopicDescriberThreadsTest, SameRankingsAtEveryThreadCount) {
  data::DatasetOptions data_options;
  data_options.num_entities = 1200;
  data_options.num_queries = 900;
  data_options.num_clicks = 40000;
  data_options.seed = GetParam();
  auto dataset = data::GenerateDataset(data_options);
  ASSERT_TRUE(dataset.ok());
  auto bundle = data::MakeShoalInput(*dataset);
  auto model = BuildShoal(bundle.View(), ShoalOptions{});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const Taxonomy& taxonomy = model->taxonomy();
  ASSERT_GT(taxonomy.num_topics(), taxonomy.roots().size());

  DescriberInput input;
  input.query_item_graph = &bundle.query_item_graph;
  input.query_words = &bundle.query_words;
  input.query_texts = &bundle.query_texts;
  input.entity_title_words = &bundle.entity_title_words;

  ExpectSameAtEveryThreadCount(taxonomy, input, DescriberOptions{});
  DescriberOptions roots_only;
  roots_only.roots_only = true;
  ExpectSameAtEveryThreadCount(taxonomy, input, roots_only);
  std::vector<uint32_t> subset;
  for (uint32_t t = 1; t < taxonomy.num_topics(); t += 4) subset.push_back(t);
  ExpectSameAtEveryThreadCount(taxonomy, input, DescriberOptions{}, &subset);

  // The build described with its own options; its kept rankings are the
  // full Describe's.
  ExpectBitEqualRankings(
      model->rankings(),
      DescribeAt(taxonomy, input, DescriberOptions{}, 1).rankings);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopicDescriberThreadsTest,
                         ::testing::Values(4, 5));

TEST(TopicDescriberThreadsEdgeTest, MoreWorkersThanTopics) {
  DescriberFixture f;
  ASSERT_LT(f.taxonomy.num_topics(), 8u);
  ExpectSameAtEveryThreadCount(f.taxonomy, f.Input(), DescriberOptions{});
  const std::vector<uint32_t> one{f.TopicOf(2)};
  ExpectSameAtEveryThreadCount(f.taxonomy, f.Input(), DescriberOptions{},
                               &one);
}

TEST(TopicDescriberThreadsEdgeTest, EmptyAndUnknownQueryWords) {
  DescriberFixture f;
  f.query_words = {{}, {999}, {100, 998}};
  ExpectSameAtEveryThreadCount(f.taxonomy, f.Input(), DescriberOptions{});
}

// A topic whose items drew no interaction: empty ranking, description
// left as it was, at every thread count.
TEST(TopicDescriberThreadsEdgeTest, TopicWithoutClicksKeepsDescription) {
  Dendrogram dendrogram(6);
  (void)dendrogram.Merge(0, 1, 0.9);
  (void)dendrogram.Merge(2, 3, 0.9);
  (void)dendrogram.Merge(4, 5, 0.9);
  TaxonomyOptions taxonomy_options;
  taxonomy_options.min_topic_size = 2;
  taxonomy_options.min_root_size = 2;
  Taxonomy taxonomy =
      Taxonomy::Build(dendrogram, {1, 1, 2, 2, 3, 3}, taxonomy_options);
  ASSERT_EQ(taxonomy.roots().size(), 3u);
  const uint32_t silent = taxonomy.RootTopicOfEntity(4);
  taxonomy.topic(silent).description = {"OLD"};

  graph::BipartiteGraph qi(2, 6);
  ASSERT_TRUE(qi.AddInteraction(0, 0, 3).ok());
  ASSERT_TRUE(qi.AddInteraction(1, 2, 2).ok());
  ASSERT_TRUE(qi.AddInteraction(1, 1, 1).ok());
  std::vector<std::vector<uint32_t>> query_words{{100}, {200}};
  std::vector<std::string> query_texts{"beach", "router"};
  std::vector<std::vector<uint32_t>> titles{{100}, {100}, {200},
                                            {200}, {300}, {300}};
  DescriberInput input;
  input.query_item_graph = &qi;
  input.query_words = &query_words;
  input.query_texts = &query_texts;
  input.entity_title_words = &titles;

  ExpectSameAtEveryThreadCount(taxonomy, input, DescriberOptions{});
  for (size_t threads : kThreadCounts) {
    const Described run =
        DescribeAt(taxonomy, input, DescriberOptions{}, threads);
    EXPECT_TRUE(run.rankings[silent].empty()) << threads;
    EXPECT_EQ(run.descriptions[silent], std::vector<std::string>{"OLD"})
        << threads;
  }
}

TEST(TopicDescriberThreadsEdgeTest, EmptyTaxonomy) {
  DescriberFixture f;
  Taxonomy empty;
  DescriberInput input = f.Input();
  input.taxonomy = nullptr;
  for (size_t threads : kThreadCounts) {
    const Described run = DescribeAt(empty, input, DescriberOptions{},
                                     threads);
    EXPECT_TRUE(run.rankings.empty()) << threads;
    const std::vector<uint32_t> none;
    EXPECT_TRUE(
        DescribeAt(empty, input, DescriberOptions{}, threads, &none)
            .rankings.empty())
        << threads;
  }
}

// num_threads = 1 runs the passes inline: no pool, no thread.
TEST(TopicDescriberThreadsEdgeTest, OneThreadStartsNoThread) {
  DescriberFixture f;
  const uint64_t before = util::ThreadPool::TotalThreadsCreated();
  DescribeAt(f.taxonomy, f.Input(), DescriberOptions{}, 1);
  EXPECT_EQ(util::ThreadPool::TotalThreadsCreated(), before);
  // The counter does see a pooled run.
  DescribeAt(f.taxonomy, f.Input(), DescriberOptions{}, 2);
  EXPECT_EQ(util::ThreadPool::TotalThreadsCreated(), before + 2);
}

}  // namespace
}  // namespace shoal::core
