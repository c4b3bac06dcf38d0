// Link burst-batching bench (perf trajectory, not a paper artifact).
//
// Measures the tentpole of this PR: when a burst hits a busy link, arrival
// events are parked in a per-link FIFO drained by one recurring event
// instead of taking a slab slot + heap entry each (see DESIGN.md "Link
// burst batching").  Two scenarios where the event queue is the bottleneck:
//
//   burst_20site   -- the ISSUE-1 reference topology (20 sites x 50
//                     receivers behind T1 tails), hit with back-to-back
//                     bursts from the source.  Every tail circuit queues
//                     hundreds of packets deep.
//   multi_group    -- thousands of multicast groups sharing the topology,
//                     one packet per group fired back-to-back; stresses the
//                     per-group tree cache plus the shared-link queues.
//
// Each scenario runs batched (default) and unbatched
// (Network::set_batching(false)), and reports
// delivered data-packets per wall-second plus heap-scheduled events per
// delivered packet.  Tail drop-tail is disabled so both runs deliver the
// identical packet set and the comparison is pure event-queue cost.
//
// Each mode is run `--repeat` times and the fastest run is reported
// (min-of-N, the usual defense against scheduler noise on a shared box).
//
// Usage:
//   bench_burst_batching [--json PATH] [--timestamp ISO8601]
//                        [--bursts N] [--burst-size N] [--groups N]
//                        [--rounds N] [--repeat N]
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "bench/bench_util.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::bench;
using namespace lbrm::sim;

struct RunStats {
    double wall_seconds = 0.0;
    std::uint64_t delivered = 0;
    std::uint64_t heap_schedules = 0;  ///< slab-backed EventQueue::schedule calls
    std::uint64_t events = 0;
    std::uint64_t tree_builds = 0;       ///< delivery-tree constructions
    double tree_build_seconds = 0.0;     ///< wall time spent building trees
    std::size_t tree_cache_bytes = 0;    ///< tree-cache heap at end of run
    Network::DropBreakdown drops;        ///< queue-overflow vs random-loss drops

    [[nodiscard]] double delivered_pps() const {
        return static_cast<double>(delivered) / wall_seconds;
    }
    [[nodiscard]] double schedules_per_delivered() const {
        return static_cast<double>(heap_schedules) / static_cast<double>(delivered);
    }
};

DisTopologySpec bench_spec(std::uint32_t receivers_per_site) {
    DisTopologySpec spec;
    spec.sites = 20;
    spec.receivers_per_site = receivers_per_site;
    // Infinite upstream bandwidth so the burst reaches the fan-out hops
    // intact: the interesting event-queue load is the per-receiver LAN
    // links, of which there are a thousand, each queueing the whole burst.
    // (With T1 tails the tail serialization paces packets out one by one
    // and the downstream links never see a burst at all.)
    spec.backbone_bandwidth_bps = 0.0;
    spec.tail_bandwidth_bps = 0.0;
    // Unlimited queueing: both runs deliver every packet, so delivered-pps
    // compares equal work.  (Drop decisions are identical anyway -- the
    // batching A/B test pins that -- but drops would shrink the workload.)
    spec.tail_queue_limit = Duration::zero();
    return spec;
}

std::uint64_t delivered_data(const Network& net, const DisTopology& topo) {
    std::uint64_t delivered = 0;
    for (const auto& site : topo.sites)
        for (NodeId r : site.receivers)
            delivered += net.link(site.router, r)->stats().packets_of(PacketType::kData);
    return delivered;
}

/// `bursts` rounds of `burst_size` back-to-back sends to one 1,000-receiver
/// group, draining between rounds.
RunStats run_burst(bool batching, std::uint64_t bursts, std::uint64_t burst_size) {
    Simulator simulator;
    Network net{simulator, 42};
    net.set_batching(batching);
    const DisTopology topo = make_dis_topology(net, bench_spec(50));
    net.finalize();

    const GroupId group{1};
    for (NodeId r : topo.all_receivers()) net.join(group, r);

    const auto start = std::chrono::steady_clock::now();
    std::uint32_t seq = 0;
    for (std::uint64_t round = 0; round < bursts; ++round) {
        // Root the tree at the backbone: the source's own access link would
        // pace the burst out at exactly one LAN serialization time per
        // packet, and no downstream queue would ever form.
        for (std::uint64_t i = 0; i < burst_size; ++i)
            net.multicast(topo.backbone,
                          Packet{Header{group, topo.source, topo.source},
                                 DataBody{SeqNum{++seq}, EpochId{0},
                                          std::vector<std::uint8_t>(128, 0xAB)}},
                          McastScope::kGlobal);
        simulator.run_for(secs(5.0));  // drain the queues completely
    }
    const auto stop = std::chrono::steady_clock::now();

    RunStats out;
    out.wall_seconds = std::chrono::duration<double>(stop - start).count();
    out.delivered = delivered_data(net, topo);
    out.heap_schedules = simulator.events_scheduled();
    out.events = simulator.events_processed();
    out.drops = net.drop_breakdown();
    return out;
}

/// One packet per group fired back-to-back, `groups` groups round-robined
/// across the 20 sites (each group = that site's receivers).  Several
/// rounds, so the one-time tree-construction cost of the first round is
/// amortized and the steady-state cost under test is the event queue.
RunStats run_multi_group(bool batching, std::uint64_t groups, std::uint64_t rounds,
                         std::size_t tree_cache_cap) {
    Simulator simulator;
    SimConfig sim_config;
    sim_config.tree_cache_capacity = tree_cache_cap;
    Network net{simulator, 42, sim_config};
    net.set_batching(batching);
    const DisTopology topo = make_dis_topology(net, bench_spec(10));
    net.finalize();

    for (std::uint64_t g = 0; g < groups; ++g) {
        const auto& site = topo.sites[g % topo.sites.size()];
        for (NodeId r : site.receivers)
            net.join(GroupId{static_cast<std::uint32_t>(g + 1)}, r);
    }

    const auto start = std::chrono::steady_clock::now();
    std::uint32_t seq = 0;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        for (std::uint64_t g = 0; g < groups; ++g)
            net.multicast(topo.backbone,
                          Packet{Header{GroupId{static_cast<std::uint32_t>(g + 1)},
                                        topo.source, topo.source},
                                 DataBody{SeqNum{++seq}, EpochId{0},
                                          std::vector<std::uint8_t>(128, 0xCD)}},
                          McastScope::kGlobal);
        simulator.run_for(secs(10.0));
    }
    const auto stop = std::chrono::steady_clock::now();

    RunStats out;
    out.wall_seconds = std::chrono::duration<double>(stop - start).count();
    out.delivered = delivered_data(net, topo);
    out.heap_schedules = simulator.events_scheduled();
    out.events = simulator.events_processed();
    out.tree_builds = net.tree_builds();
    out.tree_build_seconds = net.tree_build_seconds();
    out.tree_cache_bytes = net.tree_cache_bytes();
    out.drops = net.drop_breakdown();
    return out;
}

/// Run batched and unbatched interleaved `repeat` times and keep the
/// fastest of each (counters are identical across repeats; only wall time
/// varies).  Interleaving means background-load phases on a shared box hit
/// both modes instead of biasing whichever ran during the quiet window.
template <typename RunFn>
std::pair<RunStats, RunStats> best_of_interleaved(std::uint64_t repeat, RunFn run) {
    RunStats best_on = run(true);
    RunStats best_off = run(false);
    for (std::uint64_t i = 1; i < repeat; ++i) {
        RunStats on = run(true);
        if (on.wall_seconds < best_on.wall_seconds) best_on = on;
        RunStats off = run(false);
        if (off.wall_seconds < best_off.wall_seconds) best_off = off;
    }
    return {best_on, best_off};
}

void report(const std::string& name, const RunStats& on, const RunStats& off,
            const std::string& timestamp, std::vector<JsonMetric>& metrics) {
    Table table({"mode", "delivered", "wall s", "delivered/s", "sched/pkt"});
    table.row({"batched", fmt_int(on.delivered), fmt(on.wall_seconds, 3),
               fmt(on.delivered_pps(), 0), fmt(on.schedules_per_delivered(), 3)});
    table.row({"unbatched", fmt_int(off.delivered), fmt(off.wall_seconds, 3),
               fmt(off.delivered_pps(), 0), fmt(off.schedules_per_delivered(), 3)});
    note("");
    note("speedup (delivered pps): " + fmt(on.delivered_pps() / off.delivered_pps(), 2) +
         "x; heap schedules per delivered packet: " +
         fmt(on.schedules_per_delivered(), 3) + " vs " +
         fmt(off.schedules_per_delivered(), 3));
    // Both modes must drop the identical packet set (here: nothing -- queues
    // are unlimited).  The breakdown separates queue overflow from random
    // loss so a nonzero total is attributable at a glance.
    note("drops: batched queue=" + fmt_int(on.drops.queue) + " loss=" +
         fmt_int(on.drops.loss) + "; unbatched queue=" + fmt_int(off.drops.queue) +
         " loss=" + fmt_int(off.drops.loss));
    if (on.drops.total() != off.drops.total())
        note("WARNING: batched and unbatched drop totals differ");

    metrics.push_back({name, "delivered_pps_batched", on.delivered_pps(), timestamp});
    metrics.push_back({name, "delivered_pps_unbatched", off.delivered_pps(), timestamp});
    metrics.push_back({name, "events_scheduled_per_delivered_batched",
                       on.schedules_per_delivered(), timestamp});
    metrics.push_back({name, "events_scheduled_per_delivered_unbatched",
                       off.schedules_per_delivered(), timestamp});
    metrics.push_back(
        {name, "speedup", on.delivered_pps() / off.delivered_pps(), timestamp});
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path = "BENCH_simcore.json";
    std::string timestamp = "unspecified";
    std::uint64_t bursts = 1;
    std::uint64_t burst_size = 24000;
    std::uint64_t groups = 8000;
    std::uint64_t rounds = 6;
    std::uint64_t repeat = 3;
    std::uint64_t tree_cache_cap = 0;  // 0 = unbounded
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::printf("missing value for %s\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--json") == 0) json_path = next("--json");
        else if (std::strcmp(argv[i], "--timestamp") == 0) timestamp = next("--timestamp");
        else if (std::strcmp(argv[i], "--bursts") == 0)
            bursts = static_cast<std::uint64_t>(std::atoll(next("--bursts")));
        else if (std::strcmp(argv[i], "--burst-size") == 0)
            burst_size = static_cast<std::uint64_t>(std::atoll(next("--burst-size")));
        else if (std::strcmp(argv[i], "--groups") == 0)
            groups = static_cast<std::uint64_t>(std::atoll(next("--groups")));
        else if (std::strcmp(argv[i], "--rounds") == 0)
            rounds = static_cast<std::uint64_t>(std::atoll(next("--rounds")));
        else if (std::strcmp(argv[i], "--repeat") == 0)
            repeat = static_cast<std::uint64_t>(std::atoll(next("--repeat")));
        else if (std::strcmp(argv[i], "--tree-cache-cap") == 0)
            tree_cache_cap =
                static_cast<std::uint64_t>(std::atoll(next("--tree-cache-cap")));
    }

    std::vector<JsonMetric> metrics;

    title("Burst batching: 20 sites x 50 receivers, " + fmt_int(bursts) + " bursts of " +
          fmt_int(burst_size));
    run_burst(true, 1, burst_size / 4 + 1);  // warm-up
    const auto [burst_on, burst_off] = best_of_interleaved(
        repeat, [&](bool b) { return run_burst(b, bursts, burst_size); });
    report("burst_20site", burst_on, burst_off, timestamp, metrics);

    title("Burst batching: " + fmt_int(groups) + " groups, one packet each, back-to-back");
    run_multi_group(true, groups / 4 + 1, 1, tree_cache_cap);  // warm-up
    const auto [mg_on, mg_off] = best_of_interleaved(repeat, [&](bool b) {
        return run_multi_group(b, groups, rounds, tree_cache_cap);
    });
    report("multi_group", mg_on, mg_off, timestamp, metrics);

    // Tree-construction cost breakdown (the 10k-group workloads this PR
    // targets used to be dominated by tree builds; track the fraction).
    const double tree_fraction =
        mg_on.wall_seconds > 0.0 ? mg_on.tree_build_seconds / mg_on.wall_seconds : 0.0;
    note("");
    note("tree builds: " + fmt_int(mg_on.tree_builds) + " in " +
         fmt(mg_on.tree_build_seconds, 3) + " s (" + fmt(100.0 * tree_fraction, 1) +
         "% of wall); tree cache: " +
         fmt(static_cast<double>(mg_on.tree_cache_bytes) / (1024.0 * 1024.0), 2) +
         " MiB" + (tree_cache_cap != 0 ? " (cap " + fmt_int(tree_cache_cap) + ")" : ""));
    metrics.push_back({"multi_group", "tree_builds",
                       static_cast<double>(mg_on.tree_builds), timestamp});
    metrics.push_back(
        {"multi_group", "tree_build_wall_fraction", tree_fraction, timestamp});
    metrics.push_back({"multi_group", "tree_cache_bytes",
                       static_cast<double>(mg_on.tree_cache_bytes), timestamp});

    write_bench_json(json_path, metrics);
    note("");
    note("JSON written to " + json_path);
    for (const auto& m : metrics) note(json_metric_line(m));
    return 0;
}
