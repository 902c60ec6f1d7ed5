#ifndef SHOAL_CORE_PARALLEL_HAC_H_
#define SHOAL_CORE_PARALLEL_HAC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/dendrogram.h"
#include "core/hac_common.h"
#include "graph/weighted_graph.h"
#include "util/result.h"

namespace shoal::core {

struct ParallelHacStats;

// Read-only view of an in-flight HAC run handed to the checkpoint hook
// after a round's merges are fully applied (cluster graph and dendrogram
// are mutually consistent at that instant). `finished` marks the one
// extra invocation after the final round, so a consumer can persist the
// completed dendrogram and a later resume skips HAC entirely.
struct HacProgress {
  const ClusterGraph* clusters = nullptr;
  const Dendrogram* dendrogram = nullptr;
  size_t rounds_done = 0;
  bool finished = false;
  const ParallelHacStats* stats = nullptr;
};

// Parallel Hierarchical Agglomerative Clustering (Sec 2.2) — the paper's
// contribution. Each *round*:
//
//   1. Graph diffusion on the BSP engine: for `diffusion_iterations`
//      supersteps every cluster exchanges the best edge it knows with
//      its neighbours. An edge survives as a *local maximal edge* when
//      both endpoints still consider it the best edge they have seen.
//   2. All local maximal edges (a matching, hence conflict-free) are
//      merged in parallel; similarities to the merged cluster follow the
//      linkage rule (Eq. 4 by default).
//
// Rounds repeat until no remaining similarity reaches the threshold.
// Fewer diffusion iterations -> more local maxima -> more merges per
// round -> higher parallel degree (the trade-off of Figure 3); the paper
// fixes diffusion_iterations = 2.
//
// Diffusion is incremental (DESIGN.md §8): one engine is reused across
// rounds, each vertex proposes only to its strongest mergeable
// neighbour, and only when the recipient does not already hold a value
// at least as good. Candidate pairs that the reduced message flow fails
// to suppress are rejected by an exact serial verification pass, so the
// matching — and the dendrogram — is exactly the one a full broadcast
// of every best edge to every mergeable neighbour would produce.
struct ParallelHacOptions {
  HacOptions hac;
  size_t diffusion_iterations = 2;
  size_t num_partitions = 8;
  size_t num_threads = 2;
  size_t max_rounds = 100000;
  // Invoke `checkpoint_hook` after every `checkpoint_every`-th completed
  // round (0 disables periodic calls). When a hook is set it is also
  // called once after the final round with HacProgress::finished = true.
  // A failing hook aborts the run with its Status; the hook must not
  // mutate the run (it sees const views).
  size_t checkpoint_every = 0;
  std::function<util::Status(const HacProgress&)> checkpoint_hook;
};

struct ParallelHacStats {
  size_t rounds = 0;
  size_t total_merges = 0;
  uint64_t total_messages = 0;    // BSP messages across all rounds
  size_t total_supersteps = 0;
  // Local maximal edges found (== merges) in each round; the parallel
  // degree trace reported by bench_diffusion.
  std::vector<size_t> merges_per_round;
  // Verification telemetry: mutually-best pairs evaluated across all
  // rounds, and how many of those were rejected — by the exact ball-k
  // verification or by a still-live cached refutation. A rejected pair
  // parks until a watched vertex dies and is only re-counted when it is
  // re-evaluated, so these count *evaluations*, not pair-rounds;
  // total_candidates - total_rejected == total_merges. Diagnostic
  // only: not part of the checkpoint image, so a resumed run restarts
  // these counters.
  uint64_t total_candidates = 0;
  uint64_t total_rejected = 0;
};

util::Result<Dendrogram> ParallelHac(const graph::WeightedGraph& graph,
                                     const ParallelHacOptions& options,
                                     ParallelHacStats* stats = nullptr);

// Mid-run image of a parallel HAC: everything the round loop needs to
// continue, with no reference back to the original entity graph (the
// ClusterGraph is self-contained). Produced by the checkpoint subsystem
// from a HacProgress snapshot.
struct HacResumeState {
  ClusterGraph clusters;
  Dendrogram dendrogram;
  size_t rounds_done = 0;
  // Cumulative stats of the interrupted run up to `rounds_done`, so the
  // resumed run's final stats match the uninterrupted run's.
  ParallelHacStats stats;
};

// Continues an interrupted run from `state`. The round loop is the same
// code path as ParallelHac, and the restored frontier/adjacency state is
// bit-exact, so the resumed run produces a dendrogram byte-identical to
// the uninterrupted one — at any thread or partition count. Fails with
// InvalidArgument when `state` is inconsistent or was captured under a
// different threshold than `options.hac.threshold`.
util::Result<Dendrogram> ResumeParallelHac(const ParallelHacOptions& options,
                                           HacResumeState state,
                                           ParallelHacStats* stats = nullptr);

}  // namespace shoal::core

#endif  // SHOAL_CORE_PARALLEL_HAC_H_
