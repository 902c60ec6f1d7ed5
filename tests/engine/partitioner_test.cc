#include "engine/partitioner.h"

#include <gtest/gtest.h>

namespace shoal::engine {
namespace {

TEST(PartitionerTest, RangePartitioningContiguous) {
  Partitioner p(10, 3);
  EXPECT_EQ(p.num_partitions(), 3u);
  auto v0 = p.VerticesOf(0);
  auto v1 = p.VerticesOf(1);
  auto v2 = p.VerticesOf(2);
  EXPECT_EQ(v0.size() + v1.size() + v2.size(), 10u);
  // Contiguity: each partition's vertices are consecutive.
  for (size_t i = 1; i < v0.size(); ++i) EXPECT_EQ(v0[i], v0[i - 1] + 1);
  for (size_t i = 1; i < v1.size(); ++i) EXPECT_EQ(v1[i], v1[i - 1] + 1);
}

TEST(PartitionerTest, EveryVertexAssignedExactlyOnce) {
  Partitioner p(100, 7);
  std::vector<int> seen(100, 0);
  for (uint32_t part = 0; part < 7; ++part) {
    for (uint32_t v : p.VerticesOf(part)) {
      EXPECT_EQ(p.PartitionOf(v), part);
      ++seen[v];
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(PartitionerTest, MorePartitionsThanVertices) {
  Partitioner p(3, 10);
  size_t total = 0;
  for (uint32_t part = 0; part < 10; ++part) {
    total += p.VerticesOf(part).size();
  }
  EXPECT_EQ(total, 3u);
}

TEST(PartitionerTest, ZeroPartitionsClampedToOne) {
  Partitioner p(5, 0);
  EXPECT_EQ(p.num_partitions(), 1u);
  EXPECT_EQ(p.VerticesOf(0).size(), 5u);
}

TEST(PartitionerTest, SinglePartitionOwnsEverything) {
  Partitioner p(42, 1);
  EXPECT_EQ(p.VerticesOf(0).size(), 42u);
  EXPECT_EQ(p.PartitionOf(17), 0u);
}

TEST(PartitionerTest, EmptyVertexSet) {
  Partitioner p(0, 4);
  for (uint32_t part = 0; part < 4; ++part) {
    EXPECT_TRUE(p.VerticesOf(part).empty());
  }
}

}  // namespace
}  // namespace shoal::engine
