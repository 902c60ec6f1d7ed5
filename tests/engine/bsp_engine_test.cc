#include "engine/bsp_engine.h"

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace shoal::engine {
namespace {

using IntEngine = BspEngine<int, int>;

IntEngine::Options SmallOptions(size_t partitions = 4) {
  IntEngine::Options options;
  options.num_partitions = partitions;
  return options;
}

// The engine borrows its workers; every test shares this small pool.
util::ThreadPool& TestPool() {
  static util::ThreadPool pool(2);
  return pool;
}

TEST(BspEngineTest, RejectsEmptyComputeFunction) {
  IntEngine engine(4, TestPool(), SmallOptions());
  EXPECT_FALSE(engine.Run(nullptr).ok());
}

TEST(BspEngineTest, HaltsImmediatelyWhenAllVote) {
  IntEngine engine(8, TestPool(), SmallOptions());
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t, int& value,
                              const std::vector<int>&) {
    value = 1;
    ctx.VoteToHalt();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(engine.superstep(), 1u);
  for (uint32_t v = 0; v < 8; ++v) EXPECT_EQ(engine.VertexValue(v), 1);
}

TEST(BspEngineTest, MessagesDeliveredNextSuperstep) {
  // Vertex 0 sends its id to vertex 1 in superstep 0; vertex 1 must see
  // it in superstep 1.
  IntEngine engine(2, TestPool(), SmallOptions());
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t v, int& value,
                              const std::vector<int>& messages) {
    if (ctx.superstep() == 0 && v == 0) {
      ctx.SendMessage(1, 41);
    }
    for (int m : messages) value = m + 1;
    ctx.VoteToHalt();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(engine.VertexValue(1), 42);
  EXPECT_EQ(engine.total_messages(), 1u);
}

TEST(BspEngineTest, MessageToInvalidVertexFails) {
  IntEngine engine(2, TestPool(), SmallOptions());
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t, int&,
                              const std::vector<int>&) {
    ctx.SendMessage(99, 1);
    ctx.VoteToHalt();
  });
  EXPECT_EQ(status.code(), util::StatusCode::kOutOfRange);
}

TEST(BspEngineTest, ChainPropagation) {
  // Value travels down a chain one hop per superstep: classic BSP.
  const size_t n = 6;
  IntEngine engine(n, TestPool(), SmallOptions());
  auto status = engine.Run([n](IntEngine::Context& ctx, uint32_t v,
                               int& value,
                               const std::vector<int>& messages) {
    if (ctx.superstep() == 0 && v == 0) {
      value = 1;
      ctx.SendMessage(1, 1);
    }
    for (int m : messages) {
      value = m;
      if (v + 1 < n) ctx.SendMessage(v + 1, m);
    }
    ctx.VoteToHalt();
  });
  ASSERT_TRUE(status.ok());
  for (uint32_t v = 0; v < n; ++v) EXPECT_EQ(engine.VertexValue(v), 1);
  EXPECT_EQ(engine.superstep(), n);  // n-1 hops + final quiescent step
}

TEST(BspEngineTest, CombinerFoldsMessages) {
  // All vertices send to vertex 0 with a max-combiner; vertex 0 must see
  // exactly one message carrying the max.
  const size_t n = 10;
  IntEngine engine(n, TestPool(), SmallOptions());
  engine.SetCombiner([](int& acc, const int& incoming) {
    acc = std::max(acc, incoming);
  });
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t v,
                              int& value,
                              const std::vector<int>& messages) {
    if (ctx.superstep() == 0) {
      ctx.SendMessage(0, static_cast<int>(v) * 10);
    } else if (!messages.empty()) {
      EXPECT_EQ(messages.size(), 1u);
      value = messages[0];
    }
    ctx.VoteToHalt();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(engine.VertexValue(0), 90);
}

TEST(BspEngineTest, MaxSuperstepsBoundsRunawayPrograms) {
  IntEngine::Options options = SmallOptions();
  options.max_supersteps = 3;
  IntEngine engine(2, TestPool(), options);
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t v, int&,
                              const std::vector<int>&) {
    ctx.SendMessage(1 - v, 1);  // ping-pong forever
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(engine.superstep(), 3u);
}

TEST(BspEngineTest, DeterministicAcrossThreadCounts) {
  // Same program on pools of 1 to 8 workers: identical vertex values and
  // message totals. The program sums incoming neighbour ids over a ring.
  auto run_with_threads = [&](size_t threads) {
    const size_t n = 64;
    util::ThreadPool pool(threads);
    IntEngine::Options options;
    options.num_partitions = 8;
    IntEngine engine(n, pool, options);
    auto status = engine.Run([n](IntEngine::Context& ctx, uint32_t v,
                                 int& value,
                                 const std::vector<int>& messages) {
      if (ctx.superstep() == 0) {
        ctx.SendMessage((v + 1) % n, static_cast<int>(v));
        ctx.SendMessage((v + n - 1) % n, static_cast<int>(v));
      }
      for (int m : messages) value += m;
      ctx.VoteToHalt();
    });
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(engine.total_messages(), 2 * n);
    std::vector<int> values;
    for (uint32_t v = 0; v < n; ++v) values.push_back(engine.VertexValue(v));
    return values;
  };
  const std::vector<int> reference = run_with_threads(1);
  for (size_t threads : {2u, 3u, 4u, 8u}) {
    EXPECT_EQ(run_with_threads(threads), reference) << threads << " threads";
  }
}

TEST(BspEngineTest, HaltedVertexReactivatedByMessage) {
  IntEngine engine(2, TestPool(), SmallOptions());
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t v, int& value,
                              const std::vector<int>& messages) {
    if (ctx.superstep() == 0) {
      if (v == 1) {
        ctx.VoteToHalt();  // vertex 1 halts immediately
        return;
      }
      ctx.SendMessage(1, 7);  // vertex 0 wakes it back up
      ctx.VoteToHalt();
      return;
    }
    for (int m : messages) value = m;  // must run again to see 7
    ctx.VoteToHalt();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(engine.VertexValue(1), 7);
}

TEST(BspEngineTest, InjectedPoolSpawnsNoThreads) {
  util::ThreadPool pool(2);
  const uint64_t threads_before = util::ThreadPool::TotalThreadsCreated();
  // Constructing and running several engines on a borrowed pool must not
  // create a single thread.
  for (int run = 0; run < 3; ++run) {
    IntEngine engine(16, pool, SmallOptions());
    auto status = engine.Run([](IntEngine::Context& ctx, uint32_t v,
                                int& value, const std::vector<int>& messages) {
      if (ctx.superstep() == 0) ctx.SendMessage((v + 1) % 16, 1);
      for (int m : messages) value += m;
      ctx.VoteToHalt();
    });
    ASSERT_TRUE(status.ok());
    for (uint32_t v = 0; v < 16; ++v) EXPECT_EQ(engine.VertexValue(v), 1);
  }
  EXPECT_EQ(util::ThreadPool::TotalThreadsCreated(), threads_before);
}

TEST(BspEngineTest, SeedFrontierRestartsHaltedVertices) {
  // A second Run on the same engine wakes exactly the seeded vertices;
  // the rest stay halted and keep their values.
  IntEngine engine(4, TestPool(), SmallOptions());
  auto once = [](IntEngine::Context& ctx, uint32_t, int& value,
                 const std::vector<int>&) {
    ++value;
    ctx.VoteToHalt();
  };
  ASSERT_TRUE(engine.Run(once).ok());
  engine.SeedFrontier({1, 3});
  ASSERT_TRUE(engine.Run(once).ok());
  EXPECT_EQ(engine.VertexValue(0), 1);
  EXPECT_EQ(engine.VertexValue(1), 2);
  EXPECT_EQ(engine.VertexValue(2), 1);
  EXPECT_EQ(engine.VertexValue(3), 2);
}

}  // namespace
}  // namespace shoal::engine
