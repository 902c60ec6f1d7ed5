#include "core/query_search.h"

#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "core/shoal.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "text/normalize.h"
#include "text/tokenizer.h"

namespace shoal::core {
namespace {

// Two root topics with disjoint title vocabularies.
struct SearchFixture {
  text::Vocabulary vocab;
  Dendrogram dendrogram{4};
  Taxonomy taxonomy;
  std::vector<std::vector<uint32_t>> titles;

  SearchFixture() {
    uint32_t beach = vocab.AddWord("beach");
    uint32_t swim = vocab.AddWord("swim");
    uint32_t router = vocab.AddWord("router");
    uint32_t wifi = vocab.AddWord("wifi");
    titles = {{beach, swim}, {beach}, {router, wifi}, {router}};
    (void)dendrogram.Merge(0, 1, 0.9);
    (void)dendrogram.Merge(2, 3, 0.9);
    TaxonomyOptions options;
    options.min_topic_size = 2;
    options.min_root_size = 2;
    taxonomy = Taxonomy::Build(dendrogram, {1, 1, 2, 2}, options);
  }
};

TEST(QueryTopicIndexTest, RequiresVocab) {
  SearchFixture f;
  EXPECT_FALSE(QueryTopicIndex::Build(f.taxonomy, f.titles, nullptr,
                                      QueryTopicIndex::Options{})
                   .ok());
}

TEST(QueryTopicIndexTest, FindsMatchingTopic) {
  SearchFixture f;
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  auto hits = index->Search("beach", 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].topic, f.taxonomy.RootTopicOfEntity(0));
  for (const auto& hit : hits) {
    EXPECT_NE(hit.topic, f.taxonomy.RootTopicOfEntity(2));
  }
}

TEST(QueryTopicIndexTest, UnknownWordsIgnored) {
  SearchFixture f;
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  auto hits = index->Search("beach zzzunknown", 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].topic, f.taxonomy.RootTopicOfEntity(0));
}

TEST(QueryTopicIndexTest, AllUnknownWordsGiveNoHits) {
  SearchFixture f;
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->Search("zzz qqq", 5).empty());
  EXPECT_TRUE(index->Search("", 5).empty());
}

TEST(QueryTopicIndexTest, KLimitsResults) {
  SearchFixture f;
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  // "beach router" matches both root topics (and their subtopics if any).
  auto hits = index->Search("beach router", 1);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(QueryTopicIndexTest, ScoresDescending) {
  SearchFixture f;
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  auto hits = index->Search("beach swim router", 10);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i].score, hits[i - 1].score);
  }
}

TEST(QueryTopicIndexTest, DescriptionsBoostRetrieval) {
  SearchFixture f;
  // Attach a description mentioning "camping" to topic of entity 0.
  uint32_t camping = f.vocab.AddWord("camping");
  (void)camping;
  uint32_t root = f.taxonomy.RootTopicOfEntity(0);
  f.taxonomy.topic(root).description.push_back("camping holiday");
  auto index = QueryTopicIndex::Build(f.taxonomy, f.titles, &f.vocab,
                                      QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());
  auto hits = index->Search("camping", 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].topic, root);
}

TEST(QueryTopicIndexTest, RootsOnlyIndexesFewerDocs) {
  // A taxonomy with sub-topics: roots_only search never returns them.
  text::Vocabulary vocab;
  uint32_t w = vocab.AddWord("beach");
  std::vector<std::vector<uint32_t>> titles(4, std::vector<uint32_t>{w});
  Dendrogram d(4);
  uint32_t m01 = d.Merge(0, 1, 0.9).value();
  uint32_t m23 = d.Merge(2, 3, 0.85).value();
  (void)d.Merge(m01, m23, 0.7).value();
  TaxonomyOptions taxonomy_options;
  taxonomy_options.min_topic_size = 2;
  auto taxonomy = Taxonomy::Build(d, {1, 1, 1, 1}, taxonomy_options);
  ASSERT_GT(taxonomy.num_topics(), 1u);

  QueryTopicIndex::Options options;
  options.roots_only = true;
  auto index = QueryTopicIndex::Build(taxonomy, titles, &vocab, options);
  ASSERT_TRUE(index.ok());
  auto hits = index->Search("beach", 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].topic, taxonomy.roots()[0]);
}

// Search scores through the BM25 postings; its hits must equal a dense
// scan of every topic document with Bm25Index::Score, bit for bit.
TEST(QueryTopicIndexTest, SearchMatchesDenseScan) {
  data::DatasetOptions data_options;
  data_options.num_entities = 600;
  data_options.num_queries = 450;
  data_options.num_clicks = 30000;
  auto dataset = data::GenerateDataset(data_options);
  ASSERT_TRUE(dataset.ok());
  auto bundle = data::MakeShoalInput(*dataset);
  auto model = BuildShoal(bundle.View(), ShoalOptions{});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const Taxonomy& taxonomy = model->taxonomy();
  const text::Vocabulary& vocab = *bundle.vocab;
  auto index = QueryTopicIndex::Build(taxonomy, bundle.entity_title_words,
                                      &vocab, QueryTopicIndex::Options{});
  ASSERT_TRUE(index.ok());

  // The same pseudo-documents Build indexes: titles plus descriptions.
  text::Bm25Index dense;
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    std::vector<uint32_t> doc;
    for (uint32_t e : taxonomy.topic(t).entities) {
      const auto& title = bundle.entity_title_words[e];
      doc.insert(doc.end(), title.begin(), title.end());
    }
    for (const std::string& desc : taxonomy.topic(t).description) {
      for (const std::string& token : text::Tokenize(desc)) {
        uint32_t id = vocab.Lookup(token);
        if (id != text::kUnknownWord) doc.push_back(id);
      }
    }
    dense.AddDocument(doc);
  }

  const size_t k = 8;
  size_t queries_with_hits = 0;
  for (const std::string& text : bundle.query_texts) {
    std::vector<uint32_t> words;
    for (const std::string& token : text::NormalizeQueryTokens(text)) {
      uint32_t id = vocab.Lookup(token);
      if (id != text::kUnknownWord) words.push_back(id);
    }
    std::vector<QueryTopicIndex::Hit> want;
    for (uint32_t t = 0; t < taxonomy.num_topics() && !words.empty(); ++t) {
      double score = dense.Score(words, t);
      if (score > 0.0) want.push_back({t, score});
    }
    std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.topic < b.topic;
    });
    if (want.size() > k) want.resize(k);

    const auto got = index->Search(text, k);
    ASSERT_EQ(got.size(), want.size()) << text;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].topic, want[i].topic) << text;
      EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)),
                0)
          << text;
    }
    if (!got.empty()) ++queries_with_hits;
  }
  EXPECT_GT(queries_with_hits, bundle.query_texts.size() / 2);
}

}  // namespace
}  // namespace shoal::core
