#include "core/topic_describer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace shoal::core {

namespace {

constexpr uint32_t kNone = UINT32_MAX;

// Work ranges per pool worker in each pass. A few ranges per worker let
// the shared range counter even out whatever the work estimate misses.
constexpr size_t kRangesPerWorker = 4;

// Runs body(range, slot) once for every range in [0, num_ranges).
// Without a pool the ranges run inline as slot 0. With one, each worker
// runs one task that claims ranges from a shared counter, so `slot`
// (< pool->num_threads()) names per-worker scratch that no concurrent
// call touches.
void RunRanges(util::ThreadPool* pool, size_t num_ranges,
               const std::function<void(size_t, size_t)>& body) {
  if (pool == nullptr) {
    for (size_t r = 0; r < num_ranges; ++r) body(r, 0);
    return;
  }
  std::atomic<size_t> next{0};
  for (size_t slot = 0; slot < pool->num_threads(); ++slot) {
    pool->Submit([&, slot] {
      for (size_t r = next.fetch_add(1); r < num_ranges;
           r = next.fetch_add(1)) {
        body(r, slot);
      }
    });
  }
  pool->Wait();
}

// Shared body of Describe / DescribeTopics. `doc_topics` feed the BM25
// corpus (one pseudo-document each); `score_topics` ⊆ doc_topics are the
// ones actually scored and rewritten. Describe passes the same set for
// both; DescribeTopics passes every topic as docs and the caller's
// subset as scores.
//
// Three passes, each over a pool when options.num_threads allows:
//   1. topics:  each scored topic's distinct (query, tf) list, into a
//               flat CSR sized by the topic's link count;
//   2. softmax: each distinct query's max relevance and denominator;
//   3. rank:    each scored topic's r(q, t), sorted.
// Every output slot is written by exactly one task, and each value is a
// pure function of its query or topic, so the result does not depend on
// the thread count. Everything that outlives a pass is allocated here on
// the calling thread; workers only fill it (DESIGN.md "Describe cost").
util::Result<std::vector<std::vector<ScoredQuery>>> DescribeImpl(
    Taxonomy& taxonomy, const DescriberInput& input,
    const DescriberOptions& options, const std::vector<uint32_t>& doc_topics,
    const std::vector<uint32_t>& score_topics) {
  if (input.taxonomy != nullptr && input.taxonomy != &taxonomy) {
    return util::Status::InvalidArgument(
        "DescriberInput.taxonomy must match the taxonomy argument");
  }
  if (input.query_item_graph == nullptr || input.query_words == nullptr ||
      input.query_texts == nullptr || input.entity_title_words == nullptr) {
    return util::Status::InvalidArgument("DescriberInput has null fields");
  }
  const auto& qi = *input.query_item_graph;
  const auto& query_words = *input.query_words;
  const auto& query_texts = *input.query_texts;
  const auto& titles = *input.entity_title_words;
  if (query_words.size() != qi.num_left() ||
      query_texts.size() != qi.num_left()) {
    return util::Status::InvalidArgument(
        "query metadata does not match bipartite graph");
  }
  if (titles.size() != qi.num_right()) {
    return util::Status::InvalidArgument(
        "entity titles do not match bipartite graph");
  }

  // Every id is checked before anything is built or rewritten. Documents
  // are added in doc_topics order, so doc_topics[i] is document i.
  const size_t num_topics = taxonomy.num_topics();
  std::vector<uint32_t> doc_of_topic(num_topics, kNone);
  for (size_t i = 0; i < doc_topics.size(); ++i) {
    const uint32_t t = doc_topics[i];
    if (t >= num_topics) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "topic %u is out of range (taxonomy has %zu topics)", t,
          num_topics));
    }
    if (doc_of_topic[t] != kNone) {
      return util::Status::InvalidArgument(
          util::StringPrintf("topic %u appears twice", t));
    }
    doc_of_topic[t] = static_cast<uint32_t>(i);
  }
  std::vector<bool> is_scored(num_topics, false);
  for (uint32_t t : score_topics) {
    if (t >= num_topics || doc_of_topic[t] == kNone) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "scored topic %u is not part of the BM25 corpus", t));
    }
    if (is_scored[t]) {
      return util::Status::InvalidArgument(
          util::StringPrintf("scored topic %u appears twice", t));
    }
    is_scored[t] = true;
  }

  size_t num_threads = std::min<size_t>(options.num_threads, 256);
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, score_topics.size());
  std::unique_ptr<util::ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<util::ThreadPool>(num_threads);
  const size_t num_ranges =
      pool != nullptr ? kRangesPerWorker * pool->num_threads() : 1;
  const size_t num_scored = score_topics.size();
  const size_t num_queries = qi.num_left();

  // --- Pass 1: pseudo-documents and per-topic (query, tf) lists --------
  obs::ScopedSpan topics_span("describe.topics");
  text::Bm25Index bm25(options.bm25);
  {
    std::vector<uint32_t> doc;
    for (uint32_t t : doc_topics) {
      doc.clear();
      for (uint32_t e : taxonomy.topic(t).entities) {
        doc.insert(doc.end(), titles[e].begin(), titles[e].end());
      }
      bm25.AddDocument(doc);
    }
  }
  // A topic's link count bounds its distinct queries, so it sizes the
  // topic's CSR slice; it is also the topic's work estimate (+1 per
  // topic).
  std::vector<uint64_t> slice_begin(num_scored + 1, 0);
  std::vector<uint64_t> work_before(num_scored + 1, 0);
  for (size_t i = 0; i < num_scored; ++i) {
    uint64_t links = 0;
    for (uint32_t e : taxonomy.topic(score_topics[i]).entities) {
      links += qi.RightNeighbors(e).size();
    }
    slice_begin[i + 1] = slice_begin[i] + links;
    work_before[i + 1] = work_before[i] + links + 1;
  }
  std::vector<uint32_t> pair_query(slice_begin[num_scored]);
  std::vector<uint64_t> pair_tf(slice_begin[num_scored]);
  std::vector<uint32_t> pair_count(num_scored, 0);
  std::vector<uint64_t> tf_total(num_scored, 0);
  // Per worker: query -> position in the current topic's slice. The
  // slice itself is the touched list that resets it.
  std::vector<std::vector<uint32_t>> position_of(
      pool != nullptr ? pool->num_threads() : 1,
      std::vector<uint32_t>(num_queries, kNone));
  std::vector<size_t> range_begin =
      util::BalancedRanges(work_before, num_ranges);
  RunRanges(pool.get(), num_ranges, [&](size_t r, size_t slot) {
    std::vector<uint32_t>& position = position_of[slot];
    for (size_t i = range_begin[r]; i < range_begin[r + 1]; ++i) {
      uint32_t* queries = pair_query.data() + slice_begin[i];
      uint64_t* tfs = pair_tf.data() + slice_begin[i];
      uint32_t count = 0;
      uint64_t total = 0;
      for (uint32_t e : taxonomy.topic(score_topics[i]).entities) {
        for (const auto& link : qi.RightNeighbors(e)) {
          uint32_t& at = position[link.id];
          if (at == kNone) {
            at = count++;
            queries[at] = link.id;
            tfs[at] = 0;
          }
          tfs[at] += link.count;
          total += link.count;
        }
      }
      for (uint32_t k = 0; k < count; ++k) position[queries[k]] = kNone;
      pair_count[i] = count;
      tf_total[i] = total;
    }
  });
  position_of.clear();

  // Rankings are sized here, on the calling thread; topics without
  // interactions keep an empty ranking and their description. Each query
  // a scored topic links to needs its softmax pieces.
  std::vector<std::vector<ScoredQuery>> rankings(num_topics);
  std::vector<bool> needs_softmax(num_queries, false);
  uint64_t num_pairs = 0;
  for (size_t i = 0; i < num_scored; ++i) {
    if (tf_total[i] == 0) continue;
    rankings[score_topics[i]].resize(pair_count[i]);
    num_pairs += pair_count[i];
    for (uint32_t k = 0; k < pair_count[i]; ++k) {
      needs_softmax[pair_query[slice_begin[i] + k]] = true;
    }
  }
  std::vector<uint32_t> softmax_queries;
  for (uint32_t q = 0; q < num_queries; ++q) {
    if (needs_softmax[q]) softmax_queries.push_back(q);
  }
  topics_span.AddArg("topics", static_cast<double>(num_scored));
  topics_span.AddArg("docs", static_cast<double>(doc_topics.size()));
  topics_span.AddArg("pairs", static_cast<double>(num_pairs));
  topics_span.End();

  // --- Pass 2: per-query softmax pieces ---------------------------------
  // Concentration is a stable softmax of BM25 relevance over all topics,
  // with the paper's +1 term carried as exp(0 - max). Every query costs
  // about one walk over the documents, so ranges hold equal counts.
  obs::ScopedSpan softmax_span("describe.softmax");
  softmax_span.AddArg("queries", static_cast<double>(softmax_queries.size()));
  std::vector<double> max_rel(num_queries, 0.0);
  std::vector<double> sum_exp(num_queries, 0.0);
  const uint32_t num_docs = static_cast<uint32_t>(bm25.num_documents());
  std::vector<uint64_t> query_work(softmax_queries.size() + 1);
  for (size_t j = 0; j < query_work.size(); ++j) query_work[j] = j;
  range_begin = util::BalancedRanges(query_work, num_ranges);
  RunRanges(pool.get(), num_ranges, [&](size_t r, size_t /*slot*/) {
    for (size_t j = range_begin[r]; j < range_begin[r + 1]; ++j) {
      const uint32_t q = softmax_queries[j];
      const auto rel = bm25.ScoreNonZero(query_words[q]);
      double max = 0.0;
      for (const auto& [doc, score] : rel) max = std::max(max, score);
      // Replays the sum over every document in doc order, so the
      // denominator is the same double as summing a dense vector: a
      // zero-relevance document adds exp(0 - max), the "1 +" term's
      // value. A closed form (count * exp(-max)) rounds differently.
      const double exp_zero = std::exp(0.0 - max);
      double sum = exp_zero;
      uint32_t d = 0;
      for (const auto& [doc, score] : rel) {
        for (; d < doc; ++d) sum += exp_zero;
        sum += std::exp(score - max);
        d = doc + 1;
      }
      for (; d < num_docs; ++d) sum += exp_zero;
      max_rel[q] = max;
      sum_exp[q] = sum;
    }
  });
  softmax_span.End();

  // --- Pass 3: per-topic scores, ranking and description ----------------
  // rel(q, D_t) comes from Score, which equals q's ScoreNonZero entry for
  // D_t bit for bit (0.0 when D_t is not listed).
  obs::ScopedSpan rank_span("describe.rank");
  rank_span.AddArg("topics", static_cast<double>(num_scored));
  rank_span.AddArg("pairs", static_cast<double>(num_pairs));
  for (size_t i = 0; i < num_scored; ++i) {
    work_before[i + 1] = work_before[i] + pair_count[i] + 1;
  }
  range_begin = util::BalancedRanges(work_before, num_ranges);
  RunRanges(pool.get(), num_ranges, [&](size_t r, size_t /*slot*/) {
    for (size_t i = range_begin[r]; i < range_begin[r + 1]; ++i) {
      if (tf_total[i] == 0) continue;
      const uint32_t t = score_topics[i];
      const uint32_t doc_t = doc_of_topic[t];
      const double log_tf_total =
          std::log(static_cast<double>(tf_total[i]) + 1.0);
      std::vector<ScoredQuery>& ranking = rankings[t];
      for (uint32_t k = 0; k < pair_count[i]; ++k) {
        const uint32_t q = pair_query[slice_begin[i] + k];
        const uint64_t tf = pair_tf[slice_begin[i] + k];
        // Popularity: log-normalised frequency of q within the topic.
        double pop =
            (std::log(static_cast<double>(tf)) + 1.0) / log_tf_total;
        pop = std::clamp(pop, 0.0, 1.0);
        const double rel_t = bm25.Score(query_words[q], doc_t);
        const double con = std::exp(rel_t - max_rel[q]) / sum_exp[q];
        ranking[k] = ScoredQuery{q, std::sqrt(pop * con), pop, con};
      }
      std::sort(ranking.begin(), ranking.end(),
                [](const ScoredQuery& a, const ScoredQuery& b) {
                  if (a.representativeness != b.representativeness) {
                    return a.representativeness > b.representativeness;
                  }
                  return a.query < b.query;
                });
    }
  });
  for (size_t i = 0; i < num_scored; ++i) {
    if (tf_total[i] == 0) continue;
    const std::vector<ScoredQuery>& ranking = rankings[score_topics[i]];
    Topic& topic = taxonomy.topic(score_topics[i]);
    topic.description.clear();
    for (size_t k = 0;
         k < std::min(options.queries_per_topic, ranking.size()); ++k) {
      topic.description.push_back(query_texts[ranking[k].query]);
    }
  }
  rank_span.End();
  if (pool != nullptr && obs::MetricsRegistry::Global().enabled()) {
    obs::MetricsRegistry::Global().RecordPoolStats("describe.pool",
                                                   pool->GetStats());
  }
  return rankings;
}

std::vector<uint32_t> AllTopicIds(const Taxonomy& taxonomy) {
  std::vector<uint32_t> topic_ids(taxonomy.num_topics());
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) topic_ids[t] = t;
  return topic_ids;
}

}  // namespace

util::Result<std::vector<std::vector<ScoredQuery>>> TopicDescriber::Describe(
    Taxonomy& taxonomy, const DescriberInput& input,
    const DescriberOptions& options) {
  const std::vector<uint32_t> topic_ids =
      options.roots_only ? taxonomy.roots() : AllTopicIds(taxonomy);
  return DescribeImpl(taxonomy, input, options, topic_ids, topic_ids);
}

util::Result<std::vector<std::vector<ScoredQuery>>>
TopicDescriber::DescribeTopics(Taxonomy& taxonomy,
                               const DescriberInput& input,
                               const DescriberOptions& options,
                               const std::vector<uint32_t>& topics_to_score) {
  return DescribeImpl(taxonomy, input, options, AllTopicIds(taxonomy),
                      topics_to_score);
}

}  // namespace shoal::core
