// One round of a workload: build the scenario, drive the update schedule,
// settle, and judge every delivery with the oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "oracle.hpp"
#include "sim/scenario.hpp"
#include "sim/shard.hpp"
#include "workload/workload.hpp"

namespace perfbench {

[[nodiscard]] const Workload* find_workload(const std::string& name);
[[nodiscard]] const std::vector<Workload>& workloads();

/// The ticker's drawn plan (the benchmark's own copy, from the seed).
struct TickerPlan {
    std::vector<lbrm::workload::WorkloadItem> items;
    std::vector<TimePoint> at;
    std::vector<std::vector<std::uint8_t>> payloads;
};
[[nodiscard]] TickerPlan draw_ticker_plan(const Workload& w, std::uint64_t seed);

[[nodiscard]] lbrm::sim::ScenarioConfig scenario_config(const Workload& w, std::uint64_t seed);

/// Everything the oracle expects from a round of `w` under `seed`.
[[nodiscard]] OracleSpec make_spec(const Workload& w, std::uint64_t seed);

/// Install the feed loss schedule on every site's inbound feed (from the
/// backbone, or from its region's router).
void install_feed_loss(lbrm::sim::Network& net, const lbrm::sim::DisTopology& topo,
                       const Workload& w);

/// Sim time at which a round ends (last update + settle).
[[nodiscard]] TimePoint round_end(const Workload& w, const OracleSpec& spec);

/// Observation hooks for the traced run; null members are skipped.
struct RoundHooks {
    /// Called right after construction, before start() (taps, captures).
    std::function<void(lbrm::sim::DisScenario&)> after_construct;
    /// Called around each traffic chunk (benchmark-side spans).
    std::function<void(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns)> span;
    /// Called once the traffic phase is over, before the scenario dies.
    std::function<void(lbrm::sim::DisScenario&)> before_destroy;
};

struct RoundResult {
    double setup_s = 0.0;
    double construct_s = 0.0;
    double start_s = 0.0;
    double traffic_wall_s = 0.0;
    double traffic_cpu_s = 0.0;
    double peak_rss_mib = 0.0;
    OracleVerdict verdict;
    double overhead_bytes_per_delivery = 0.0;
    double recovery_p50_ms = 0.0;
    double recovery_p99_ms = 0.0;
    lbrm::sim::TraceDigest digest;
    bool has_digest = false;
    std::map<std::string, double> counters;  ///< flattened registry (summed over shards)
    lbrm::sim::ShardResult shard;            ///< sharded rounds only
    std::vector<std::string> problems;       ///< failed checks, empty when correct
    [[nodiscard]] bool correct() const {
        return problems.empty() && verdict.only_named_failures();
    }
};

/// Run one round in this process.  `digest` installs the packet-trace tap.
/// `shard_ordering` forces the shard-invariant event order (the unsharded
/// twin of a sharded run).
RoundResult run_round_inprocess(const Workload& w, std::uint64_t seed, const OracleSpec& spec,
                                SharedRegion& region, bool digest, bool shard_ordering,
                                const RoundHooks& hooks = {});

/// Run one round split into w.shards processes (run_sharded_processes), or
/// through run_unsharded when `unsharded` is set (the digest reference).
RoundResult run_round_sharded(const Workload& w, std::uint64_t seed, const OracleSpec& spec,
                              SharedRegion& region, bool unsharded = false);

}  // namespace perfbench
