#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"
#include "core/shoal.h"
#include "data/dataset.h"
#include "data/drift_log.h"
#include "serve/serving_index.h"
#include "util/logging.h"

namespace perfbench {

// Entities of every workload's tier.
inline constexpr size_t kEntities = 10000;
// Pipeline threads of the build (what `shoal_cli build --threads=4` uses).
inline constexpr size_t kBuildThreads = 4;
inline constexpr double kWindowDays = 7.0;

// Untraced: measures the workload's end-to-end metrics. Traced: times
// each layer's public calls and records per-layer metrics + spans.
void RunBuild(const RunOptions& options, Report& report);
void RunRefresh(const RunOptions& options, Report& report);
void RunServe(const RunOptions& options, Report& report);

// Plants a wrong answer in front of every check; returns 0 when each
// check rejects its planted answer.
int RunSelftest(const RunOptions& options);

// Input make-up shared by the workloads.
// The 10k tier with ~60 entities per leaf intent (bench ScaledDataset).
shoal::data::DatasetOptions ScaledDataset(size_t entities, uint64_t seed);
// The `shoal_cli build` options at kBuildThreads threads.
shoal::core::ShoalOptions BuildOptions();
// bench_incremental's drift tier: background pairs = 3x entities, drift
// clicks = entities / 4, concentrated drift (noise 0.002).
shoal::data::DriftOptions DriftWorkload(size_t entities, size_t days,
                                        uint64_t seed);

// The describer's view of `input` for `taxonomy`.
shoal::core::DescriberInput DescribeInput(
    const shoal::core::Taxonomy& taxonomy,
    const shoal::core::ShoalInput& input);
// Compiles `model` into serving form as `shoal_cli build
// --serving-index-out` does, stamped with `version`.
shoal::util::Result<shoal::serve::ServingIndexData> CompileIndex(
    const shoal::core::ShoalModel& model,
    const shoal::core::ShoalInput& input, uint64_t version);

// Root-intent NMI and §3 placement precision of `taxonomy` against the
// planted intents of `dataset`.
double RootNmi(const shoal::core::Taxonomy& taxonomy,
               const shoal::data::Dataset& dataset);
double PlacementPrecision(const shoal::core::Taxonomy& taxonomy,
                          const shoal::data::Dataset& dataset);

// Floors the quality ratios must clear (see README).
inline constexpr double kRootNmiFloor = 0.5;
inline constexpr double kPrecisionFloor = 0.5;
// Shares of a traced build / cycle that its timed stages must cover.
inline constexpr double kBuildCoverage = 0.99;
inline constexpr double kCycleCoverage = 0.90;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
