#ifndef SHOAL_ENGINE_PARTITIONER_H_
#define SHOAL_ENGINE_PARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shoal::engine {

// Assigns vertices to partitions by contiguous id range: partition p owns
// ids [p * chunk, (p + 1) * chunk), so neighbouring ids stay together. A
// zero partition count is clamped to one.
class Partitioner {
 public:
  Partitioner(size_t num_vertices, size_t num_partitions);

  size_t num_partitions() const { return num_partitions_; }
  size_t num_vertices() const { return num_vertices_; }

  uint32_t PartitionOf(uint32_t vertex) const;

  // Vertices owned by a partition, in ascending id order.
  std::vector<uint32_t> VerticesOf(uint32_t partition) const;

 private:
  size_t num_vertices_;
  size_t num_partitions_;
  size_t chunk_;  // vertices per partition (the last may hold fewer)
};

}  // namespace shoal::engine

#endif  // SHOAL_ENGINE_PARTITIONER_H_
