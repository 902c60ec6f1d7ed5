#include "text/bm25.h"

#include <algorithm>
#include <cmath>

namespace shoal::text {

Bm25Index::Bm25Index(Options options) : options_(options) {}

uint32_t Bm25Index::AddDocument(const std::vector<uint32_t>& word_ids) {
  uint32_t doc_id = static_cast<uint32_t>(doc_lengths_.size());
  doc_lengths_.push_back(static_cast<uint32_t>(word_ids.size()));
  total_length_ += word_ids.size();
  for (uint32_t w : word_ids) {
    std::vector<Posting>& postings = postings_[w];
    if (postings.empty() || postings.back().doc != doc_id) {
      postings.push_back(Posting{doc_id, 0});
    }
    ++postings.back().tf;
  }
  return doc_id;
}

const std::vector<Bm25Index::Posting>* Bm25Index::PostingsOf(
    uint32_t word) const {
  auto it = postings_.find(word);
  return it == postings_.end() ? nullptr : &it->second;
}

double Bm25Index::Idf(size_t df) const {
  double n = static_cast<double>(num_documents());
  double d = static_cast<double>(df);
  return std::log((n - d + 0.5) / (d + 0.5) + 1.0);
}

double Bm25Index::AvgDocLength() const {
  if (doc_lengths_.empty()) return 0.0;
  return static_cast<double>(total_length_) /
         static_cast<double>(doc_lengths_.size());
}

double Bm25Index::Term(double idf, uint32_t tf, uint32_t doc_id,
                       double avgdl) const {
  double f = static_cast<double>(tf);
  double norm = options_.k1 *
                (1.0 - options_.b +
                 options_.b * doc_lengths_[doc_id] / avgdl);
  return idf * f * (options_.k1 + 1.0) / (f + norm);
}

double Bm25Index::Score(const std::vector<uint32_t>& query_word_ids,
                        uint32_t doc_id) const {
  if (doc_id >= num_documents()) return 0.0;
  const double avgdl = AvgDocLength();
  if (avgdl == 0.0) return 0.0;
  double score = 0.0;
  for (uint32_t w : query_word_ids) {
    const std::vector<Posting>* postings = PostingsOf(w);
    if (postings == nullptr) continue;
    auto it = std::lower_bound(
        postings->begin(), postings->end(), doc_id,
        [](const Posting& p, uint32_t doc) { return p.doc < doc; });
    if (it == postings->end() || it->doc != doc_id) continue;
    score += Term(Idf(postings->size()), it->tf, doc_id, avgdl);
  }
  return score;
}

std::vector<std::pair<uint32_t, double>> Bm25Index::ScoreNonZero(
    const std::vector<uint32_t>& query_word_ids) const {
  std::vector<std::pair<uint32_t, double>> scores;
  const double avgdl = AvgDocLength();
  if (avgdl == 0.0) return scores;
  // One doc-ascending merge per query word keeps every document's terms
  // in query-word order, the order Score adds them in.
  std::vector<std::pair<uint32_t, double>> merged;
  for (uint32_t w : query_word_ids) {
    const std::vector<Posting>* postings = PostingsOf(w);
    if (postings == nullptr) continue;
    const double idf = Idf(postings->size());
    merged.clear();
    merged.reserve(scores.size() + postings->size());
    auto acc = scores.begin();
    for (const Posting& p : *postings) {
      while (acc != scores.end() && acc->first < p.doc) {
        merged.push_back(*acc++);
      }
      double score = 0.0;
      if (acc != scores.end() && acc->first == p.doc) score = (acc++)->second;
      merged.emplace_back(p.doc, score + Term(idf, p.tf, p.doc, avgdl));
    }
    merged.insert(merged.end(), acc, scores.end());
    scores.swap(merged);
  }
  std::erase_if(scores, [](const auto& entry) { return entry.second == 0.0; });
  return scores;
}

}  // namespace shoal::text
