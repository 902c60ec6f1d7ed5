#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks. Each compares the program's output with a computation
// made apart from the program, or with a property the method must have;
// none compares with a stored copy of earlier output. Each returns the
// list of violations (empty = pass). selftest.cc feeds every check a
// planted wrong answer and requires it to fail.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/taxonomy.h"
#include "data/dataset.h"
#include "graph/weighted_graph.h"
#include "serve/serving_index.h"
#include "text/embedding.h"

namespace perfbench {

using Errors = std::vector<std::string>;

// Click pairs of one window, rebuilt from raw click events.
struct WindowClicks {
  std::vector<std::vector<uint32_t>> queries_of;   // per entity, sorted
  std::vector<std::vector<uint32_t>> entities_of;  // per query, sorted
};

// The trailing `window_days` of `clicks` (timestamps sorted ascending):
// the window ends one second after the newest click.
WindowClicks WindowFromClicks(const std::vector<shoal::data::ClickEvent>& clicks,
                              size_t num_queries, size_t num_entities,
                              double window_days);
// Every click of `clicks`, no window.
WindowClicks AllClicks(const std::vector<shoal::data::ClickEvent>& clicks,
                       size_t num_queries, size_t num_entities);

// Eq. 1-3 written out directly: Jaccard of the two query sets, the mean
// of 1/2 + 1/2 cos(w1, w2) over every pair of title words, mixed by
// alpha. All in double precision.
double ReferenceSimilarity(const WindowClicks& window,
                           const std::vector<std::vector<uint32_t>>& titles,
                           const shoal::text::EmbeddingTable& vectors,
                           double alpha, uint32_t u, uint32_t v);

// Largest accepted gap between a program edge weight and Eq. 1-3. The
// program keeps content profiles in float32, which alone moves weights
// by up to ~3e-8; a wrong term moves them by far more.
inline constexpr double kEdgeTolerance = 1e-7;

// A seeded sample of `samples` edges (every edge when `samples` reaches
// the edge count) must carry their reference weight within `tolerance`.
// `max_deviation` receives the largest gap seen.
Errors CheckEdgeWeights(const shoal::graph::WeightedGraph& graph,
                        const WindowClicks& window,
                        const std::vector<std::vector<uint32_t>>& titles,
                        const shoal::text::EmbeddingTable& vectors,
                        double alpha, size_t samples, uint64_t seed,
                        double tolerance, double* max_deviation);

// Every edge weight >= threshold, and the degree cap's greedy rule: in
// (weight desc, u, v) order an edge is kept only while one endpoint has
// fewer than max_degree kept edges (so a degree may exceed the cap).
Errors CheckEdgeBounds(const shoal::graph::WeightedGraph& graph,
                       double threshold, size_t max_degree);

// Every placed entity sits in exactly one root topic and an entity with
// no topic in none; each child's members are a subset of its parent's.
Errors CheckTaxonomyShape(const shoal::core::Taxonomy& taxonomy);

// Every description query was clicked on some entity of its topic.
Errors CheckDescriptionClicks(const shoal::core::Taxonomy& taxonomy,
                              const WindowClicks& window,
                              const std::vector<std::string>& query_texts);

// Same vertex count and the same edges with bit-identical weights.
Errors CheckSameGraph(const shoal::graph::WeightedGraph& expected,
                      const shoal::graph::WeightedGraph& actual);

// Published versions rise by exactly one per cycle.
Errors CheckVersionSequence(const std::vector<uint64_t>& versions);

// Every listed query text resolves to a dictionary entry of `index`.
Errors CheckQueriesResolve(const shoal::serve::ServingIndex& index,
                           const std::vector<std::string>& texts);

// A /v1/query body: its topics and scores must be the top-k prefix of
// the query's postings in `index` (the file that served it), in
// descending score order, and it must name that index's version.
Errors CheckQueryBody(std::string_view body,
                      const shoal::serve::ServingIndex& index,
                      const std::string& query, size_t k);

// Per-topic content of a serving index, keyed by member entity set:
// what a reader of /v1/topic sees (level, size, descriptions).
struct TopicImage {
  uint32_t level = 0;
  uint32_t size = 0;
  std::vector<std::string> descriptions;
  bool operator==(const TopicImage&) const = default;
};
struct VectorHash {
  size_t operator()(const std::vector<uint32_t>& v) const;
};
using TopicImages =
    std::unordered_map<std::vector<uint32_t>, TopicImage, VectorHash>;
TopicImages IndexTopics(const shoal::serve::ServingIndex& index);

// Share of `after`'s topics present bit-identical in `before`.
double TopicStability(const TopicImages& before, const TopicImages& after);

// Share of `published`'s topics whose descriptions equal those of the
// same topic id in `described`.
double DescriptionExactShare(const shoal::serve::ServingIndex& published,
                             const shoal::core::Taxonomy& described);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
