#ifndef SHOAL_TEXT_BM25_H_
#define SHOAL_TEXT_BM25_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/result.h"

namespace shoal::text {

// Okapi BM25 index over a small set of documents (the per-topic pseudo
// documents of Sec 2.3). Documents are bags of word ids.
//
//   score(q, D) = sum_{w in q} idf(w) * tf(w,D)*(k1+1) /
//                 (tf(w,D) + k1*(1 - b + b*|D|/avgdl))
//   idf(w)      = ln(1 + (N - df(w) + 0.5) / (df(w) + 0.5))  > 0
//
// Since df <= N the log argument exceeds 1, so idf is strictly positive
// even for a word in every document and needs no floor.
class Bm25Index {
 public:
  struct Options {
    double k1 = 1.2;
    double b = 0.75;
  };

  Bm25Index() : Bm25Index(Options{}) {}
  explicit Bm25Index(Options options);

  // Adds a document and returns its id.
  uint32_t AddDocument(const std::vector<uint32_t>& word_ids);

  size_t num_documents() const { return doc_lengths_.size(); }

  // BM25 relevance of the query (bag of word ids) to one document.
  double Score(const std::vector<uint32_t>& query_word_ids,
               uint32_t doc_id) const;

  // (doc id, score) for every document whose score is nonzero, in
  // ascending doc id. Walks only the postings of the query's words. Each
  // score equals Score(query_word_ids, doc) bit for bit: the per-word
  // terms are added in query-word order with the same expression.
  std::vector<std::pair<uint32_t, double>> ScoreNonZero(
      const std::vector<uint32_t>& query_word_ids) const;

 private:
  struct Posting {
    uint32_t doc = 0;
    uint32_t tf = 0;
  };

  // Postings of `word` in ascending doc id, or nullptr when no document
  // contains it.
  const std::vector<Posting>* PostingsOf(uint32_t word) const;
  double Idf(size_t df) const;
  double AvgDocLength() const;
  // One word's contribution to a document's score.
  double Term(double idf, uint32_t tf, uint32_t doc_id, double avgdl) const;

  Options options_;
  // word id -> postings; documents are added in id order, so each list
  // stays doc-ascending by appending.
  std::unordered_map<uint32_t, std::vector<Posting>> postings_;
  std::vector<uint32_t> doc_lengths_;
  uint64_t total_length_ = 0;
};

}  // namespace shoal::text

#endif  // SHOAL_TEXT_BM25_H_
