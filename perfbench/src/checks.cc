#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "util/json.h"
#include "util/random.h"

namespace perfbench {
namespace {

using shoal::core::kNoTopic;

std::string Pair(uint32_t u, uint32_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "(%u,%u)", u, v);
  return buf;
}

void SortUnique(std::vector<std::vector<uint32_t>>& lists) {
  for (auto& list : lists) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

WindowClicks Collect(const std::vector<shoal::data::ClickEvent>& clicks,
                     size_t num_queries, size_t num_entities, uint64_t begin,
                     uint64_t end) {
  WindowClicks window;
  window.queries_of.resize(num_entities);
  window.entities_of.resize(num_queries);
  for (const auto& click : clicks) {
    if (click.timestamp_sec < begin || click.timestamp_sec >= end) continue;
    window.queries_of[click.entity].push_back(click.query);
    window.entities_of[click.query].push_back(click.entity);
  }
  SortUnique(window.queries_of);
  SortUnique(window.entities_of);
  return window;
}

}  // namespace

WindowClicks WindowFromClicks(const std::vector<shoal::data::ClickEvent>& clicks,
                              size_t num_queries, size_t num_entities,
                              double window_days) {
  uint64_t newest = 0;
  for (const auto& click : clicks) {
    newest = std::max(newest, click.timestamp_sec);
  }
  const uint64_t end = newest + 1;
  const uint64_t span = static_cast<uint64_t>(window_days * 86400.0);
  return Collect(clicks, num_queries, num_entities,
                 span > end ? 0 : end - span, end);
}

WindowClicks AllClicks(const std::vector<shoal::data::ClickEvent>& clicks,
                       size_t num_queries, size_t num_entities) {
  return Collect(clicks, num_queries, num_entities, 0, UINT64_MAX);
}

double ReferenceSimilarity(const WindowClicks& window,
                           const std::vector<std::vector<uint32_t>>& titles,
                           const shoal::text::EmbeddingTable& vectors,
                           double alpha, uint32_t u, uint32_t v) {
  // Eq. 1: |Q(u) n Q(v)| / |Q(u) u Q(v)|.
  const auto& qu = window.queries_of[u];
  const auto& qv = window.queries_of[v];
  std::vector<uint32_t> common;
  std::set_intersection(qu.begin(), qu.end(), qv.begin(), qv.end(),
                        std::back_inserter(common));
  const double union_size =
      static_cast<double>(qu.size() + qv.size() - common.size());
  const double sq =
      union_size == 0 ? 0.0 : static_cast<double>(common.size()) / union_size;

  // Eq. 2: mean over title-word pairs of 1/2 + 1/2 cos(w1, w2). Words
  // without a vector (out of vocabulary or all-zero) carry no content;
  // a title left with none is uninformative (0.5).
  const size_t dim = vectors.dim();
  auto usable = [&](const std::vector<uint32_t>& words) {
    std::vector<uint32_t> out;
    for (uint32_t w : words) {
      if (w >= vectors.rows()) continue;
      double norm = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        norm += static_cast<double>(vectors.Row(w)[d]) * vectors.Row(w)[d];
      }
      if (norm > 0.0) out.push_back(w);
    }
    return out;
  };
  const std::vector<uint32_t> wu = usable(titles[u]);
  const std::vector<uint32_t> wv = usable(titles[v]);
  double sc = 0.5;
  if (!wu.empty() && !wv.empty()) {
    double total = 0.0;
    for (uint32_t a : wu) {
      for (uint32_t b : wv) {
        double dot = 0.0, na = 0.0, nb = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          const double x = vectors.Row(a)[d];
          const double y = vectors.Row(b)[d];
          dot += x * y;
          na += x * x;
          nb += y * y;
        }
        total += 0.5 + 0.5 * dot / std::sqrt(na * nb);
      }
    }
    sc = total / static_cast<double>(wu.size() * wv.size());
  }
  // Eq. 3.
  return alpha * sq + (1.0 - alpha) * sc;
}

Errors CheckEdgeWeights(const shoal::graph::WeightedGraph& graph,
                        const WindowClicks& window,
                        const std::vector<std::vector<uint32_t>>& titles,
                        const shoal::text::EmbeddingTable& vectors,
                        double alpha, size_t samples, uint64_t seed,
                        double tolerance, double* max_deviation) {
  Errors errors;
  const auto edges = graph.AllEdges();
  if (edges.empty()) return {"graph has no edges"};
  shoal::util::Rng rng(seed);
  double worst = 0.0;
  const bool all = samples >= edges.size();
  for (size_t i = 0; i < (all ? edges.size() : samples); ++i) {
    const auto& e = edges[all ? i : rng.Uniform(edges.size())];
    const double want =
        ReferenceSimilarity(window, titles, vectors, alpha, e.u, e.v);
    const double gap = std::fabs(e.weight - want);
    worst = std::max(worst, gap);
    if (!(gap <= tolerance)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "edge %s weight %.17g, Eq. 1-3 give %.17g",
                    Pair(e.u, e.v).c_str(), e.weight, want);
      errors.push_back(buf);
    }
  }
  if (max_deviation != nullptr) *max_deviation = worst;
  return errors;
}

Errors CheckEdgeBounds(const shoal::graph::WeightedGraph& graph,
                       double threshold, size_t max_degree) {
  Errors errors;
  auto edges = graph.AllEdges();
  for (const auto& e : edges) {
    if (!(e.weight >= threshold)) {
      errors.push_back("edge " + Pair(e.u, e.v) + " weight " +
                       std::to_string(e.weight) + " below threshold");
    }
  }
  // Replay the greedy cap over the kept edges, best first: an edge may
  // be kept only while one of its endpoints is under the cap.
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::vector<size_t> degree(graph.num_vertices(), 0);
  for (const auto& e : edges) {
    if (degree[e.u] >= max_degree && degree[e.v] >= max_degree) {
      errors.push_back("edge " + Pair(e.u, e.v) +
                       " kept although both endpoints reached the cap");
    }
    ++degree[e.u];
    ++degree[e.v];
  }
  return errors;
}

Errors CheckTaxonomyShape(const shoal::core::Taxonomy& taxonomy) {
  Errors errors;
  std::vector<int> root_count(taxonomy.num_entities(), 0);
  for (uint32_t root : taxonomy.roots()) {
    if (taxonomy.topic(root).parent != kNoTopic) {
      errors.push_back("root " + std::to_string(root) + " has a parent");
    }
    for (uint32_t e : taxonomy.topic(root).entities) {
      if (e >= root_count.size()) {
        errors.push_back("root " + std::to_string(root) +
                         " holds unknown entity " + std::to_string(e));
      } else {
        ++root_count[e];
      }
    }
  }
  for (uint32_t e = 0; e < root_count.size(); ++e) {
    const bool placed = taxonomy.TopicOfEntity(e) != kNoTopic;
    if (root_count[e] != (placed ? 1 : 0)) {
      errors.push_back("entity " + std::to_string(e) + " sits in " +
                       std::to_string(root_count[e]) + " root topics");
    }
  }
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    const auto& topic = taxonomy.topic(t);
    if (topic.parent == kNoTopic) continue;
    std::vector<uint32_t> child = topic.entities;
    std::vector<uint32_t> parent = taxonomy.topic(topic.parent).entities;
    std::sort(child.begin(), child.end());
    std::sort(parent.begin(), parent.end());
    if (!std::includes(parent.begin(), parent.end(), child.begin(),
                       child.end())) {
      errors.push_back("topic " + std::to_string(t) +
                       " is not a subset of its parent " +
                       std::to_string(topic.parent));
    }
  }
  return errors;
}

Errors CheckDescriptionClicks(const shoal::core::Taxonomy& taxonomy,
                              const WindowClicks& window,
                              const std::vector<std::string>& query_texts) {
  std::unordered_map<std::string, std::vector<uint32_t>> ids_of;
  for (uint32_t q = 0; q < query_texts.size(); ++q) {
    ids_of[query_texts[q]].push_back(q);
  }
  Errors errors;
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    const auto& topic = taxonomy.topic(t);
    std::vector<uint32_t> members = topic.entities;
    std::sort(members.begin(), members.end());
    for (const std::string& text : topic.description) {
      bool clicked = false;
      auto it = ids_of.find(text);
      if (it != ids_of.end()) {
        for (uint32_t q : it->second) {
          for (uint32_t e : window.entities_of[q]) {
            if (std::binary_search(members.begin(), members.end(), e)) {
              clicked = true;
              break;
            }
          }
          if (clicked) break;
        }
      }
      if (!clicked) {
        errors.push_back("topic " + std::to_string(t) + " describes '" +
                         text + "' with no click on its entities");
      }
    }
  }
  return errors;
}

Errors CheckSameGraph(const shoal::graph::WeightedGraph& expected,
                      const shoal::graph::WeightedGraph& actual) {
  if (expected.num_vertices() != actual.num_vertices()) {
    return {"vertex counts differ: " + std::to_string(expected.num_vertices()) +
            " vs " + std::to_string(actual.num_vertices())};
  }
  const auto a = expected.AllEdges();
  const auto b = actual.AllEdges();
  if (a.size() != b.size()) {
    return {"edge counts differ: " + std::to_string(a.size()) + " vs " +
            std::to_string(b.size())};
  }
  Errors errors;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != b[i].u || a[i].v != b[i].v ||
        std::memcmp(&a[i].weight, &b[i].weight, sizeof(double)) != 0) {
      errors.push_back("edge " + std::to_string(i) + " differs: " +
                       Pair(a[i].u, a[i].v) + " vs " + Pair(b[i].u, b[i].v));
    }
  }
  return errors;
}

Errors CheckVersionSequence(const std::vector<uint64_t>& versions) {
  Errors errors;
  for (size_t i = 1; i < versions.size(); ++i) {
    if (versions[i] != versions[i - 1] + 1) {
      errors.push_back("cycle " + std::to_string(i) + " published version " +
                       std::to_string(versions[i]) + " after " +
                       std::to_string(versions[i - 1]));
    }
  }
  return errors;
}

Errors CheckQueriesResolve(const shoal::serve::ServingIndex& index,
                           const std::vector<std::string>& texts) {
  Errors errors;
  for (const std::string& text : texts) {
    if (index.Find(text).query == shoal::serve::kNoQuery) {
      errors.push_back("query '" + text + "' does not resolve in index v" +
                       std::to_string(index.version()));
    }
  }
  return errors;
}

Errors CheckQueryBody(std::string_view body,
                      const shoal::serve::ServingIndex& index,
                      const std::string& query, size_t k) {
  auto parsed = shoal::util::JsonValue::Parse(body);
  if (!parsed.ok()) return {"body for '" + query + "' is not JSON"};
  const auto* version = parsed->Find("index_version");
  const auto* results = parsed->Find("results");
  if (version == nullptr || results == nullptr) {
    return {"body for '" + query + "' lacks index_version or results"};
  }
  if (version->number() != static_cast<double>(index.version())) {
    return {"body for '" + query + "' names another index version"};
  }
  const auto lookup = index.Find(query);
  const auto postings = lookup.query == shoal::serve::kNoQuery
                            ? shoal::serve::ServingIndex::PostingSpan{}
                            : index.postings(lookup.query);
  const size_t want = std::min(k, postings.size());
  const auto& hits = results->items();
  if (hits.size() != want) {
    return {"body for '" + query + "' has " + std::to_string(hits.size()) +
            " results, postings give " + std::to_string(want)};
  }
  Errors errors;
  for (size_t i = 0; i < want; ++i) {
    const auto* topic = hits[i].Find("topic");
    const auto* score = hits[i].Find("score");
    if (topic == nullptr || score == nullptr ||
        topic->number() != static_cast<double>(postings.topic(i)) ||
        score->number() != postings.score(i)) {
      errors.push_back("body for '" + query + "' result " + std::to_string(i) +
                       " differs from the index postings");
    }
    if (i > 0 && hits[i - 1].Find("score") != nullptr && score != nullptr &&
        hits[i - 1].Find("score")->number() < score->number()) {
      errors.push_back("body for '" + query + "' is not in descending order");
    }
  }
  return errors;
}

size_t VectorHash::operator()(const std::vector<uint32_t>& v) const {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t x : v) h = (h ^ x) * 1099511628211ull;
  return static_cast<size_t>(h);
}

TopicImages IndexTopics(const shoal::serve::ServingIndex& index) {
  std::vector<std::vector<uint32_t>> members(index.num_topics());
  for (uint32_t e = 0; e < index.num_entities(); ++e) {
    for (uint32_t t = index.entity_topic(e); t != kNoTopic;
         t = index.parent(t)) {
      members[t].push_back(e);
    }
  }
  TopicImages images;
  for (uint32_t t = 0; t < index.num_topics(); ++t) {
    TopicImage image;
    image.level = index.level(t);
    image.size = index.topic_size(t);
    for (size_t i = 0; i < index.num_descriptions(t); ++i) {
      image.descriptions.emplace_back(index.description(t, i));
    }
    images.emplace(std::move(members[t]), std::move(image));
  }
  return images;
}

double TopicStability(const TopicImages& before, const TopicImages& after) {
  if (after.empty()) return 0.0;
  size_t same = 0;
  for (const auto& [members, image] : after) {
    auto it = before.find(members);
    same += it != before.end() && it->second == image ? 1 : 0;
  }
  return static_cast<double>(same) / static_cast<double>(after.size());
}

double DescriptionExactShare(const shoal::serve::ServingIndex& published,
                             const shoal::core::Taxonomy& described) {
  const size_t topics = std::min(published.num_topics(), described.num_topics());
  if (published.num_topics() != described.num_topics() || topics == 0) {
    return 0.0;
  }
  size_t exact = 0;
  for (uint32_t t = 0; t < topics; ++t) {
    const auto& want = described.topic(t).description;
    bool same = published.num_descriptions(t) == want.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      same = published.description(t, i) == want[i];
    }
    exact += same ? 1 : 0;
  }
  return static_cast<double>(exact) / static_cast<double>(topics);
}

}  // namespace perfbench
