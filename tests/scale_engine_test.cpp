// Scale-engine tests (DESIGN.md "Scale engineering"): the struct-of-arrays
// node store, the lazily built site-table rows and the pluggable scenario
// observer must all be invisible to results.  Rows are checked against the
// brute-force reference (tests/routing_reference.hpp) whenever they are
// built: after a mid-run set_node_down, after a cable re-spec, in any order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/stable_vector.hpp"
#include "sim/loss_model.hpp"
#include "sim/network.hpp"
#include "sim/observer.hpp"
#include "sim/scenario.hpp"
#include "sim/topology.hpp"
#include "tests/routing_reference.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::sim;
using lbrm::test::expect_next_hops_match;
using lbrm::test::expect_unicast_follows;
using lbrm::test::RoutingReference;
using lbrm::test::TapHop;

// --- StableVector ------------------------------------------------------------

TEST(StableVector, ReferencesSurviveGrowth) {
    StableVector<int> v;
    std::vector<int*> addrs;
    for (int i = 0; i < 1000; ++i) addrs.push_back(&v.emplace_back(i));
    ASSERT_EQ(v.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(*addrs[i], i);          // no element ever moved
        EXPECT_EQ(&v[static_cast<std::size_t>(i)], addrs[i]);
    }
}

TEST(StableVector, HoldsNonMovableElements) {
    struct Pinned {
        explicit Pinned(int x) : value(x) {}
        Pinned(const Pinned&) = delete;
        Pinned& operator=(const Pinned&) = delete;
        int value;
    };
    StableVector<Pinned> v;
    for (int i = 0; i < 100; ++i) v.emplace_back(i);
    int sum = 0;
    for (const Pinned& p : v) sum += p.value;
    EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(StableVector, ClearDestroysEveryElement) {
    static int live = 0;
    struct Counted {
        Counted() { ++live; }
        ~Counted() { --live; }
    };
    {
        StableVector<Counted> v;
        for (int i = 0; i < 37; ++i) v.emplace_back();
        EXPECT_EQ(live, 37);
        v.clear();
        EXPECT_EQ(live, 0);
        for (int i = 0; i < 5; ++i) v.emplace_back();  // reusable after clear
        EXPECT_EQ(live, 5);
    }
    EXPECT_EQ(live, 0);  // destructor path too
}

// --- link() fast path --------------------------------------------------------

TEST(NetworkLink, MissingSelfAndOutOfRangePairsReturnNull) {
    Simulator sim;
    Network net{sim, 1};
    const NodeId a = net.add_node(SiteId{1});
    const NodeId b = net.add_node(SiteId{1});
    const NodeId c = net.add_node(SiteId{2});
    net.add_link(a, b, LinkSpec{});

    EXPECT_NE(net.link(a, b), nullptr);
    EXPECT_NE(net.link(b, a), nullptr);
    EXPECT_NE(net.link(a, b), net.link(b, a));  // two directed links
    EXPECT_EQ(net.link(a, c), nullptr);         // no such cable
    EXPECT_EQ(net.link(a, a), nullptr);         // self pair
    EXPECT_EQ(net.link(a, NodeId{999}), nullptr);  // out of range
    EXPECT_EQ(net.link(NodeId{999}, a), nullptr);
}

TEST(NetworkLink, SiteAndRouterFlagsSurviveSoAStorage) {
    Simulator sim;
    Network net{sim, 1};
    const NodeId host = net.add_node(SiteId{7});
    const NodeId router = net.add_node(SiteId{7}, /*is_router=*/true);
    EXPECT_EQ(net.site_of(host), SiteId{7});
    EXPECT_FALSE(net.is_router(host));
    EXPECT_TRUE(net.is_router(router));
    EXPECT_EQ(net.node_count(), 2u);
    net.add_link(host, router, LinkSpec{});
    EXPECT_EQ(net.link_count(), 2u);  // one cable = two directed links
}

// --- DisTopologySize ---------------------------------------------------------

TEST(DisTopologySize, MatchesTheBuiltTopology) {
    auto spec_of = [](std::uint32_t sites_per_region, std::uint32_t replicas,
                      bool secondaries) {
        DisTopologySpec spec;
        spec.sites = 7;
        spec.receivers_per_site = 3;
        spec.sites_per_region = sites_per_region;
        spec.replicas = replicas;
        spec.secondary_logger_per_site = secondaries;
        return spec;
    };
    const DisTopologySpec specs[] = {spec_of(0, 1, true), spec_of(3, 1, true),
                                     spec_of(0, 0, true), spec_of(2, 2, false),
                                     spec_of(0, 3, false)};
    for (const DisTopologySpec& spec : specs) {
        Simulator sim;
        Network net{sim, 1};
        const DisTopology topo = make_dis_topology(net, spec);
        std::size_t hosts = 2 + topo.replicas.size() + topo.regions.size();
        for (const auto& site : topo.sites)
            hosts += site.receivers.size() + (site.secondary != kNoNode ? 1 : 0);

        const DisTopologySize size = dis_topology_size(spec);
        const std::string which = "regions/" + std::to_string(spec.sites_per_region) +
                                  " replicas " + std::to_string(spec.replicas) +
                                  " secondaries " +
                                  std::to_string(spec.secondary_logger_per_site);
        EXPECT_EQ(size.nodes, net.node_count()) << which;
        EXPECT_EQ(size.directed_links, net.link_count()) << which;
        EXPECT_EQ(size.hosts, hosts) << which;
    }
}

// --- lazy site-table rows ----------------------------------------------------

TEST(FinalizeModes, LazyMaterialisesRowsOnDemand) {
    Simulator sim;
    Network net{sim, 5};
    DisTopologySpec spec;
    spec.sites = 8;
    spec.receivers_per_site = 10;
    const DisTopology topo = make_dis_topology(net, spec);
    net.finalize();

    // Only border rows were built by finalize() (one per site router here).
    const std::size_t after_finalize = net.site_rows_built();
    EXPECT_GT(after_finalize, 0u);
    EXPECT_LT(after_finalize, net.node_count());

    // Traffic touches rows; the count grows but only where needed.
    const GroupId group{1};
    for (NodeId r : topo.all_receivers()) net.join(group, r);
    net.multicast(topo.source,
                  Packet{Header{group, topo.source, topo.source},
                         DataBody{SeqNum{1}, EpochId{0}, {1}}},
                  McastScope::kGlobal);
    sim.run_for(secs(1.0));
    EXPECT_GT(net.site_rows_built(), after_finalize);
    EXPECT_LT(net.site_rows_built(), net.node_count());

    // Hashing forces the rest: one row per node.
    (void)net.routing_table_hash();
    EXPECT_EQ(net.site_rows_built(), net.node_count());
}

TEST(LazyRows, BuildOrderNeverChangesTheTables) {
    // Rows are a pure function of the finalize-time snapshots: building them
    // back to front through next_hop, or front to back through the hash,
    // ends at the same bytes.
    auto build = [](Network& net) {
        DisTopologySpec spec;
        spec.sites = 12;
        spec.receivers_per_site = 6;
        spec.sites_per_region = 3;
        make_dis_topology(net, spec);
        net.finalize();
    };
    Simulator sim;
    Network forward{sim, 5};
    build(forward);
    Network backward{sim, 5};
    build(backward);
    const auto n = static_cast<std::uint32_t>(backward.node_count());
    for (std::uint32_t a = n; a >= 1; --a)
        (void)backward.next_hop(NodeId{a}, NodeId{n + 1 - a});
    EXPECT_EQ(forward.routing_table_hash(), backward.routing_table_hash());
}

TEST(LazyRows, RespecAfterFinalizeKeepsFinalizeTimeWeights) {
    // a_host -- a_mid -+- a_r1 ==fast== b_r -- b_host
    //                  +- a_r2 ==slow==/
    // a_mid is interior, so its row is first built when a unicast in flight
    // reaches it -- after the a_mid/a_r1 cable was re-spec'd to be slow.
    // Until the next finalize() that row must still route on the
    // finalize-time weights (via a_r1), like every row built before it.
    Simulator sim;
    Network net{sim, 3};
    const NodeId a_host = net.add_node(SiteId{1});
    const NodeId a_mid = net.add_node(SiteId{1});
    const NodeId a_r1 = net.add_node(SiteId{1}, true);
    const NodeId a_r2 = net.add_node(SiteId{1}, true);
    const NodeId b_r = net.add_node(SiteId{2}, true);
    const NodeId b_host = net.add_node(SiteId{2});
    const LinkSpec fast{millis(1), 0.0, Duration::zero()};
    const LinkSpec slow{millis(3), 0.0, Duration::zero()};
    net.add_link(a_host, a_mid, fast);
    net.add_link(a_mid, a_r1, fast);
    net.add_link(a_mid, a_r2, fast);
    net.add_link(a_r1, b_r, fast);
    net.add_link(a_r2, b_r, slow);
    net.add_link(b_r, b_host, fast);
    net.finalize();
    const RoutingReference at_finalize{net};

    std::vector<TapHop> taps;
    net.set_tap([&taps](TimePoint, const Link& l, const Packet&, bool delivered) {
        taps.push_back(TapHop{l.from(), l.to(), delivered});
    });
    const std::size_t rows_before = net.site_rows_built();
    net.unicast(a_host, b_host,
                Packet{Header{GroupId{1}, a_host, a_host}, PrimaryQueryBody{}});
    sim.run_for(micros(100));  // in flight on a_host -> a_mid
    net.add_link(a_mid, a_r1, LinkSpec{millis(10), 0.0, Duration::zero()});
    sim.run_for(secs(1.0));
    EXPECT_EQ(net.site_rows_built(), rows_before + 2);  // a_host's, then a_mid's
    expect_unicast_follows(at_finalize, a_host, b_host, taps);
    expect_next_hops_match(net, at_finalize);

    // Re-finalizing adopts the new weight: the r2 corridor is now shorter.
    net.finalize();
    const RoutingReference refinalized{net};
    expect_next_hops_match(net, refinalized);
    EXPECT_EQ(net.next_hop(a_mid, b_host), a_r2);
}

/// Mid-run set_node_down must not leak into rows built lazily afterwards:
/// they read the finalize-time snapshot, so a row built after the down
/// transition routes exactly like the reference taken at finalize().
struct TapEvent {
    std::int64_t at_ns;
    std::uint32_t from;
    std::uint32_t to;
    bool delivered;
    bool operator==(const TapEvent&) const = default;
};

/// Two sites, two corridors; c_host sits in a third site whose rows are only
/// touched after the down transition.  `check` compares every stage with the
/// reference; the full trace comes back for the path-cache A/B.
std::vector<TapEvent> run_down_then_touch(std::size_t path_cache_cap, bool check) {
    Simulator sim;
    SimConfig config;
    config.path_cache_capacity = path_cache_cap;
    Network net{sim, 7, config};
    const NodeId a_host = net.add_node(SiteId{1});
    const NodeId a_r1 = net.add_node(SiteId{1}, true);
    const NodeId a_r2 = net.add_node(SiteId{1}, true);
    const NodeId b_host = net.add_node(SiteId{2});
    const NodeId b_r1 = net.add_node(SiteId{2}, true);
    const NodeId b_r2 = net.add_node(SiteId{2}, true);
    const NodeId c_host = net.add_node(SiteId{3});
    const NodeId c_r = net.add_node(SiteId{3}, true);
    const LinkSpec fast{millis(1), 0.0, Duration::zero()};
    const LinkSpec slow{millis(3), 0.0, Duration::zero()};
    net.add_link(a_host, a_r1, fast);
    net.add_link(a_host, a_r2, fast);
    net.add_link(b_host, b_r1, fast);
    net.add_link(b_host, b_r2, fast);
    net.add_link(a_r1, b_r1, fast);  // preferred corridor
    net.add_link(a_r2, b_r2, slow);  // detour corridor
    net.add_link(c_host, c_r, fast);
    net.add_link(c_r, b_r1, slow);
    net.add_link(c_r, a_r1, slow);
    net.finalize();
    const RoutingReference up{net};
    if (check) expect_next_hops_match(net, up);
    // The all-pairs check built every row; start over with only the border
    // rows, as after any finalize().
    net.finalize();

    std::vector<TapEvent> taps;
    std::vector<TapHop> hops;
    net.set_tap([&](TimePoint t, const Link& link, const Packet&, bool delivered) {
        taps.push_back(TapEvent{t.time_since_epoch().count(), link.from().value(),
                                link.to().value(), delivered});
        hops.push_back(TapHop{link.from(), link.to(), delivered});
    });

    const GroupId group{1};
    net.join(group, b_host);
    auto send = [&](NodeId from, std::uint32_t seq) {
        net.multicast(from,
                      Packet{Header{group, a_host, from},
                             DataBody{SeqNum{seq}, EpochId{0}, {9}}},
                      McastScope::kGlobal);
        sim.run_for(secs(1.0));
    };
    auto unicast = [&](NodeId from, NodeId to) {
        hops.clear();
        net.unicast(from, to, Packet{Header{group, a_host, from}, PrimaryQueryBody{}});
        sim.run_for(secs(1.0));
    };
    send(a_host, 1);  // builds a's rows and primes the path cache

    net.set_node_down(a_r1, true);
    // c's rows have never been touched: they are built *now*, after the
    // down transition -- and must still route like the finalize-time
    // reference (c_host -> c_r -> b_r1 -> b_host, and into a_r1 for a).
    unicast(c_host, b_host);
    if (check) expect_unicast_follows(up, c_host, b_host, hops);
    unicast(c_host, a_host);
    if (check) expect_unicast_follows(up, c_host, a_host, hops, /*dies_at=*/a_r1);
    if (check) expect_next_hops_match(net, up);
    send(a_host, 2);  // still into the blackhole

    net.finalize();  // reconverge
    const RoutingReference down{net, {a_r1}};
    if (check) expect_next_hops_match(net, down);
    send(a_host, 3);
    unicast(c_host, a_host);
    if (check) expect_unicast_follows(down, c_host, a_host, hops);
    return taps;
}

TEST(FinalizeModes, LazyRowsUseFinalizeTimeLivenessSnapshot) {
    (void)run_down_then_touch(65536, /*check=*/true);
}

TEST(FinalizeModes, PathCacheCapacityNeverChangesLazyOutcomes) {
    const auto unbounded = run_down_then_touch(0, /*check=*/false);
    const auto tiny = run_down_then_touch(1, /*check=*/false);
    EXPECT_EQ(unbounded, tiny);
}

// --- observer A/B ------------------------------------------------------------

ScenarioConfig observer_scenario_config(std::shared_ptr<ScenarioObserver> observer) {
    ScenarioConfig config;
    config.topology.sites = 6;
    config.topology.receivers_per_site = 4;
    config.seed = 77;
    config.observer = std::move(observer);
    return config;
}

TEST(Observers, CountingMatchesRecordingAndLeavesSimBitIdentical) {
    auto counting = std::make_shared<CountingObserver>();

    DisScenario recorded{observer_scenario_config(nullptr)};  // default recorder
    DisScenario counted{observer_scenario_config(counting)};

    for (DisScenario* s : {&recorded, &counted}) {
        s->start();
        for (int i = 0; i < 5; ++i) {
            s->send_update(std::vector<std::uint8_t>{1, 2, 3, 4});
            s->run_for(millis(40));
        }
        s->run_for(secs(5.0));
    }

    // The observer must not perturb the simulation itself.
    EXPECT_EQ(recorded.simulator().events_processed(),
              counted.simulator().events_processed());

    // Tallies agree with the full records.
    EXPECT_EQ(counting->deliveries(), recorded.deliveries().size());
    EXPECT_EQ(counting->notices(), recorded.notices().size());
    EXPECT_EQ(counting->sends(), recorded.sends().size());
    ASSERT_GT(counting->deliveries(), 0u);

    std::uint64_t recorded_bytes = 0;
    for (const auto& d : recorded.deliveries()) recorded_bytes += d.payload.size();
    EXPECT_EQ(counting->payload_bytes(), recorded_bytes);

    for (const auto& site : recorded.topology().sites)
        for (NodeId r : site.receivers) {
            std::uint32_t expect = 0;
            for (const auto& d : recorded.deliveries())
                if (d.node == r) ++expect;
            EXPECT_EQ(counting->deliveries_at(r), expect);
        }

    // Record accessors require the recording observer.
    EXPECT_THROW((void)counted.deliveries(), std::logic_error);
    EXPECT_THROW((void)counted.notices(), std::logic_error);
    EXPECT_THROW((void)counted.sends(), std::logic_error);
    (void)counted.observer();  // the observer itself is always reachable

    // clear() resets tallies.
    counted.clear_records();
    EXPECT_EQ(counting->deliveries(), 0u);
    EXPECT_EQ(counting->nodes_with_at_least(1), 0u);
}

}  // namespace
