// Offline hardware calibration.
//
// Once per machine configuration (never per application), the runtime runs
// two microbenchmarks through the simulator and the sampling emulation:
//
//  * STREAM-like (bandwidth-bound, maximum concurrency) — measures the
//    peak attainable NVM bandwidth used by the Eq. (1) classifier, and the
//    CF_bw constant factor as measured/predicted time on DRAM;
//  * pointer-chase (latency-bound, single dependent chain) — measures
//    CF_lat the same way.
//
// The constant factors absorb what the lightweight models ignore: cache
// filtering, memory-level parallelism, and sampling noise.
#pragma once

#include "core/perf_model.hpp"
#include "memsim/machine.hpp"

namespace tahoe::core {

struct CalibrationResult {
  double cf_bw = 1.0;
  double cf_lat = 1.0;
  double bw_peak_nvm = 0.0;   ///< bytes/s, via Eq. (1) on the NVM tier
  double bw_peak_dram = 0.0;  ///< bytes/s, same measurement on DRAM

  /// The sensitivity thresholds keep ModelConstants' defaults.
  ModelConstants to_constants() const {
    return ModelConstants{cf_bw, cf_lat, bw_peak_nvm};
  }
};

/// Run the calibration workloads on `machine`. Deterministic.
CalibrationResult calibrate(const memsim::Machine& machine);

}  // namespace tahoe::core
