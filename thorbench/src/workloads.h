#ifndef THORBENCH_SRC_WORKLOADS_H_
#define THORBENCH_SRC_WORKLOADS_H_

#include "thorbench/src/bench.h"

namespace thorbench {

/// In-process closed loop: ExtractBatch over thord-sized batches at
/// threads = nproc, 16 learned sites resident in the LRU.
Result RunServeHot(const Options& options);

/// Open loop over loopback TCP into NetServer -> ServerLoop ->
/// ExtractionService, the serve_hot stream, on a fixed rate ladder.
Result RunServeNet(const Options& options);

/// Paper scale learn path: 50 sites x 110 probes, probe through commit.
Result RunLearnCold(const Options& options);

/// 8 drifting sites served in background-relearn mode.
Result RunServeDrift(const Options& options);

/// Sites of the serve_hot / serve_net fleet.
inline constexpr int kServeSites = 16;

}  // namespace thorbench

#endif  // THORBENCH_SRC_WORKLOADS_H_
