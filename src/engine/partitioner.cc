#include "engine/partitioner.h"

#include <algorithm>

namespace shoal::engine {

Partitioner::Partitioner(size_t num_vertices, size_t num_partitions)
    : num_vertices_(num_vertices),
      num_partitions_(std::max<size_t>(1, num_partitions)) {
  chunk_ = (num_vertices_ + num_partitions_ - 1) / num_partitions_;
  if (chunk_ == 0) chunk_ = 1;
}

uint32_t Partitioner::PartitionOf(uint32_t vertex) const {
  return static_cast<uint32_t>(std::min(num_partitions_ - 1, vertex / chunk_));
}

std::vector<uint32_t> Partitioner::VerticesOf(uint32_t partition) const {
  std::vector<uint32_t> out;
  size_t begin = partition * chunk_;
  size_t end = std::min(num_vertices_, begin + chunk_);
  for (size_t v = begin; v < end; ++v) out.push_back(static_cast<uint32_t>(v));
  return out;
}

}  // namespace shoal::engine
