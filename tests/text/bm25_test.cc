#include "text/bm25.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

namespace shoal::text {
namespace {

TEST(Bm25Test, EmptyIndexScoresZero) {
  Bm25Index index;
  EXPECT_EQ(index.num_documents(), 0u);
  EXPECT_EQ(index.Score({1, 2}, 0), 0.0);
  EXPECT_TRUE(index.ScoreNonZero({1}).empty());
}

TEST(Bm25Test, AddDocumentAssignsSequentialIds) {
  Bm25Index index;
  EXPECT_EQ(index.AddDocument({1, 2}), 0u);
  EXPECT_EQ(index.AddDocument({3}), 1u);
  EXPECT_EQ(index.num_documents(), 2u);
}

TEST(Bm25Test, MatchingDocumentOutscoresNonMatching) {
  Bm25Index index;
  index.AddDocument({1, 2, 3});   // doc 0: contains query terms
  index.AddDocument({7, 8, 9});   // doc 1: unrelated
  double s0 = index.Score({1, 2}, 0);
  double s1 = index.Score({1, 2}, 1);
  EXPECT_GT(s0, 0.0);
  EXPECT_EQ(s1, 0.0);
}

TEST(Bm25Test, RareTermWeighsMoreThanCommon) {
  Bm25Index index;
  // term 5 appears in every doc; term 6 only in doc 0.
  index.AddDocument({5, 6});
  index.AddDocument({5, 7});
  index.AddDocument({5, 8});
  double rare = index.Score({6}, 0);
  double common = index.Score({5}, 0);
  EXPECT_GT(rare, common);
}

TEST(Bm25Test, TermFrequencySaturates) {
  Bm25Index index;
  index.AddDocument({1});
  index.AddDocument({1, 1, 1, 1, 1});
  index.AddDocument({2, 3, 4, 5, 6});  // padding for idf
  double once = index.Score({1}, 0);
  double many = index.Score({1}, 1);
  EXPECT_GT(many, 0.0);
  // Five occurrences should score more, but far less than 5x (k1 saturation).
  EXPECT_GT(many, once * 0.9);
  EXPECT_LT(many, once * 5.0);
}

TEST(Bm25Test, LongDocumentsPenalized) {
  Bm25Index index;
  index.AddDocument({1, 2});                          // short doc with term
  index.AddDocument({1, 3, 4, 5, 6, 7, 8, 9, 10, 11});  // long doc with term
  double short_score = index.Score({1}, 0);
  double long_score = index.Score({1}, 1);
  EXPECT_GT(short_score, long_score);
}

// ScoreNonZero must list exactly the documents Score rates nonzero, in
// ascending doc id, with bit-identical scores.
void ExpectMatchesScore(const Bm25Index& index,
                        const std::vector<uint32_t>& query) {
  const auto sparse = index.ScoreNonZero(query);
  size_t next = 0;
  for (uint32_t d = 0; d < index.num_documents(); ++d) {
    const double dense = index.Score(query, d);
    if (dense == 0.0) {
      EXPECT_TRUE(next == sparse.size() || sparse[next].first != d)
          << "zero document " << d << " listed";
      continue;
    }
    ASSERT_LT(next, sparse.size()) << "document " << d << " missing";
    EXPECT_EQ(sparse[next].first, d);
    EXPECT_EQ(std::memcmp(&sparse[next].second, &dense, sizeof dense), 0)
        << "doc " << d << ": " << sparse[next].second << " vs " << dense;
    ++next;
  }
  EXPECT_EQ(next, sparse.size());
}

TEST(Bm25Test, ScoreNonZeroMatchesIndividualScores) {
  Bm25Index index;
  index.AddDocument({1, 2});
  index.AddDocument({2, 3});
  index.AddDocument({4});
  index.AddDocument({5, 5, 2, 4, 4, 4});
  const auto sparse = index.ScoreNonZero({2, 4});
  ASSERT_EQ(sparse.size(), 4u);
  ExpectMatchesScore(index, {2, 4});
  ExpectMatchesScore(index, {4, 2});
  ExpectMatchesScore(index, {4, 2, 4, 999, 2});  // repeated + unknown words
  ExpectMatchesScore(index, {3});
  ExpectMatchesScore(index, {});
}

TEST(Bm25Test, ScoreNonZeroListsUbiquitousWordEverywhere) {
  Bm25Index index;
  // Word 1 appears in every document. Its idf, log(1 + 0.5 / (N + 0.5)),
  // is small but positive, so every document scores and none is omitted.
  index.AddDocument({1, 2});
  index.AddDocument({1});
  index.AddDocument({1, 3});
  const auto sparse = index.ScoreNonZero({1});
  ASSERT_EQ(sparse.size(), 3u);
  EXPECT_GT(sparse[1].second, 0.0);
  ExpectMatchesScore(index, {1});
  ExpectMatchesScore(index, {1, 2, 3});
}

TEST(Bm25Test, ScoreNonZeroOnEmptyDocuments) {
  Bm25Index index;
  index.AddDocument({});
  index.AddDocument({});
  EXPECT_TRUE(index.ScoreNonZero({1}).empty());  // avgdl 0
  index.AddDocument({1});
  ExpectMatchesScore(index, {1});
}

TEST(Bm25Test, ScoreNonZeroMatchesScoreOnRandomCorpus) {
  Bm25Index index;
  uint64_t state = 12345;
  auto next = [&state](uint32_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((state >> 33) % bound);
  };
  for (int d = 0; d < 300; ++d) {
    std::vector<uint32_t> doc(next(40));
    for (uint32_t& w : doc) w = next(25) == 0 ? 0 : next(400);
    index.AddDocument(doc);
  }
  for (int q = 0; q < 200; ++q) {
    std::vector<uint32_t> query(1 + next(5));
    for (uint32_t& w : query) w = next(450);
    ExpectMatchesScore(index, query);
  }
}

TEST(Bm25Test, UnknownQueryTermsIgnored) {
  Bm25Index index;
  index.AddDocument({1});
  EXPECT_EQ(index.Score({999}, 0), 0.0);
  EXPECT_GT(index.Score({1, 999}, 0), 0.0);
}

TEST(Bm25Test, OutOfRangeDocScoresZero) {
  Bm25Index index;
  index.AddDocument({1});
  EXPECT_EQ(index.Score({1}, 5), 0.0);
}

TEST(Bm25Test, RepeatedQueryTermsAddUp) {
  Bm25Index index;
  index.AddDocument({1, 2});
  index.AddDocument({3});
  double single = index.Score({1}, 0);
  double doubled = index.Score({1, 1}, 0);
  EXPECT_NEAR(doubled, 2.0 * single, 1e-12);
}

TEST(Bm25Test, IdfPositiveEvenForUbiquitousTerms) {
  Bm25Index index;
  index.AddDocument({1});
  index.AddDocument({1});
  index.AddDocument({1});
  // N = df = 3; with tf = |D| = avgdl = 1 the tf factor is exactly 1, so
  // the score is idf itself: ln(1 + 0.5 / 3.5) = ln(8/7).
  const double score = index.Score({1}, 0);
  EXPECT_GT(score, 0.0);
  EXPECT_DOUBLE_EQ(score, std::log(1.0 + 0.5 / 3.5));
}

TEST(Bm25Test, CustomParameters) {
  Bm25Index::Options options;
  options.k1 = 2.0;
  options.b = 0.0;  // no length normalization
  Bm25Index index(options);
  index.AddDocument({1, 2});
  index.AddDocument({1, 3, 4, 5, 6, 7, 8, 9});
  // With b = 0, doc length must not matter: equal tf -> equal score.
  EXPECT_NEAR(index.Score({1}, 0), index.Score({1}, 1), 1e-12);
}

}  // namespace
}  // namespace shoal::text
