// BuildExactCandidatePairs against an independent brute force: every
// i < j pair of distinct ids in each query's CappedQueryItems list,
// collected in a hash set and sorted. The row-wise projection must
// return exactly that vector (and the same capped-query count) for any
// pool, including more entity ranges than entities.

#include <algorithm>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/entity_graph.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "util/thread_pool.h"

namespace shoal::core {
namespace {

struct Oracle {
  std::vector<uint64_t> pairs;
  size_t capped_queries = 0;
};

Oracle BruteForcePairs(const graph::BipartiteGraph& qi, size_t cap) {
  Oracle oracle;
  std::unordered_set<uint64_t> pairs;
  for (uint32_t q = 0; q < qi.num_left(); ++q) {
    bool capped = false;
    const std::vector<uint32_t> items =
        CappedQueryItems(qi.LeftNeighbors(q), cap, &capped);
    if (capped) ++oracle.capped_queries;
    for (size_t i = 0; i < items.size(); ++i) {
      for (size_t j = i + 1; j < items.size(); ++j) {
        if (items[i] == items[j]) continue;
        const uint32_t a = std::min(items[i], items[j]);
        const uint32_t b = std::max(items[i], items[j]);
        pairs.insert((static_cast<uint64_t>(a) << 32) | b);
      }
    }
  }
  oracle.pairs.assign(pairs.begin(), pairs.end());
  std::sort(oracle.pairs.begin(), oracle.pairs.end());
  return oracle;
}

uint64_t Key(uint32_t u, uint32_t v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

// Runs the stage inline and on pools of 1, 2, 3, 4 and 8 workers; each
// run must equal the brute force exactly.
void ExpectMatchesOracle(const graph::BipartiteGraph& qi, size_t cap) {
  const Oracle oracle = BruteForcePairs(qi, cap);
  EntityGraphStats inline_stats;
  EXPECT_EQ(BuildExactCandidatePairs(qi, cap, nullptr, &inline_stats),
            oracle.pairs)
      << "inline, cap " << cap;
  EXPECT_EQ(inline_stats.capped_queries, oracle.capped_queries);
  for (size_t workers : {1u, 2u, 3u, 4u, 8u}) {
    util::ThreadPool pool(workers);
    EntityGraphStats stats;
    EXPECT_EQ(BuildExactCandidatePairs(qi, cap, &pool, &stats), oracle.pairs)
        << workers << " workers, cap " << cap;
    EXPECT_EQ(stats.capped_queries, oracle.capped_queries)
        << workers << " workers, cap " << cap;
  }
}

TEST(EntityGraphParallelCandidatesTest, HandBuiltEdgeCases) {
  // Entities 6 and 7 have no query. Query 0 is over the cap of 3 with
  // tied click counts (ties keep the smaller ids: 1, 2, 3); query 1
  // repeats one interaction, which the graph folds into one link;
  // query 2 links a single item.
  graph::BipartiteGraph qi(4, 8);
  for (uint32_t e : {5u, 4u, 3u, 2u, 1u}) {
    ASSERT_TRUE(qi.AddInteraction(0, e, 2).ok());
  }
  ASSERT_TRUE(qi.AddInteraction(1, 4, 1).ok());
  ASSERT_TRUE(qi.AddInteraction(1, 0, 1).ok());
  ASSERT_TRUE(qi.AddInteraction(1, 4, 1).ok());
  ASSERT_TRUE(qi.AddInteraction(2, 5, 9).ok());
  ASSERT_TRUE(qi.AddInteraction(3, 5, 1).ok());
  ASSERT_TRUE(qi.AddInteraction(3, 1, 1).ok());

  const std::vector<uint64_t> expected = {Key(0, 4), Key(1, 2), Key(1, 3),
                                          Key(1, 5), Key(2, 3)};
  EXPECT_EQ(BruteForcePairs(qi, 3).pairs, expected);
  EntityGraphStats stats;
  EXPECT_EQ(BuildExactCandidatePairs(qi, 3, nullptr, &stats), expected);
  EXPECT_EQ(stats.capped_queries, 1u);
  ExpectMatchesOracle(qi, 3);

  // Uncapped, query 0 pairs all of 1..5.
  ExpectMatchesOracle(qi, 256);

  // A cap of one leaves every list a single item: no pairs at all, and
  // every query with two or more links counts as capped.
  EXPECT_TRUE(BuildExactCandidatePairs(qi, 1, nullptr, &stats).empty());
  EXPECT_EQ(stats.capped_queries, 3u);
  ExpectMatchesOracle(qi, 1);
}

TEST(EntityGraphParallelCandidatesTest, MoreRangesThanEntities) {
  // Three entities against up to 32 ranges (4 per worker at 8 workers):
  // most ranges are empty and must contribute nothing.
  graph::BipartiteGraph qi(2, 3);
  ASSERT_TRUE(qi.AddInteraction(0, 2).ok());
  ASSERT_TRUE(qi.AddInteraction(0, 0).ok());
  ASSERT_TRUE(qi.AddInteraction(1, 1).ok());
  ASSERT_TRUE(qi.AddInteraction(1, 2).ok());
  EXPECT_EQ(BuildExactCandidatePairs(qi, 256, nullptr),
            (std::vector<uint64_t>{Key(0, 2), Key(1, 2)}));
  ExpectMatchesOracle(qi, 256);

  graph::BipartiteGraph empty(0, 0);
  ExpectMatchesOracle(empty, 256);
  graph::BipartiteGraph no_links(3, 5);
  ExpectMatchesOracle(no_links, 256);
}

TEST(EntityGraphParallelCandidatesTest, GeneratedLogsMatchBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    data::DatasetOptions options;
    options.num_entities = 1500;
    options.num_queries = 1100;
    options.num_clicks = 60000;
    options.seed = seed;
    auto dataset = data::GenerateDataset(options);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    const auto bundle = data::MakeShoalInput(*dataset);
    const graph::BipartiteGraph& qi = bundle.query_item_graph;
    // A cap below the head queries' fanout, so the Zipf head is capped.
    ASSERT_GT(BruteForcePairs(qi, 64).capped_queries, 0u) << "seed " << seed;
    ExpectMatchesOracle(qi, 64);
    ExpectMatchesOracle(qi, 256);
  }
}

}  // namespace
}  // namespace shoal::core
