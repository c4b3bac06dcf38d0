// The traced run: per-layer metrics from captured workload inputs replayed
// through each layer's public functions, plus benchmark-side spans exported
// as a Chrome trace.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "oracle.hpp"
#include "rounds.hpp"

namespace perfbench {

struct TraceOutcome {
    std::vector<Metric> metrics;    ///< every per-layer metric
    std::vector<RoundResult> rounds;  ///< rounds run (for attempted/failed)
};

/// Run `w` once with capture on, replay the captured inputs through each
/// layer, and time untraced rounds for `seconds` to price the tracing.
/// Writes the Chrome trace to `out_dir`.
TraceOutcome run_traced(const Workload& w, std::uint64_t seed, const OracleSpec& spec,
                        SharedRegion& region, double seconds, const std::string& out_dir);

}  // namespace perfbench
