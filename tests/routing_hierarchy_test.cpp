// Hierarchical routing (DESIGN.md "Hierarchical routing") against the
// brute-force reference in tests/routing_reference.hpp.  Every test checks
// Network::next_hop for every (from, to) pair and the tap path of each
// unicast and multicast it sends against an all-pairs Dijkstra over the
// same links, metric and liveness rule -- on the plain DIS topology, the
// regional tier, the 20-site protocol scenario and a two-corridor network
// whose router goes down before and after a re-finalize.  All topologies
// here have unique shortest paths, the scope of the exact comparison.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/loss_model.hpp"
#include "sim/network.hpp"
#include "sim/scenario.hpp"
#include "sim/topology.hpp"
#include "tests/routing_reference.hpp"

namespace {

using namespace lbrm;
using namespace lbrm::sim;
using lbrm::test::expect_multicast_follows;
using lbrm::test::expect_next_hops_match;
using lbrm::test::expect_unicast_follows;
using lbrm::test::RoutingReference;
using lbrm::test::TapHop;

/// One tap observation, exact to the nanosecond (the path-cache A/B below
/// compares whole traces).
struct TapEvent {
    std::int64_t at_ns;
    std::uint32_t from;
    std::uint32_t to;
    std::uint8_t type;
    bool delivered;

    bool operator==(const TapEvent&) const = default;
};

void record_taps(Network& net, std::vector<TapEvent>& out) {
    net.set_tap([&out](TimePoint t, const Link& link, const Packet& p, bool delivered) {
        out.push_back(TapEvent{t.time_since_epoch().count(), link.from().value(),
                               link.to().value(), static_cast<std::uint8_t>(p.type()),
                               delivered});
    });
}

void record_hops(Network& net, std::vector<TapHop>& out) {
    net.set_tap([&out](TimePoint, const Link& link, const Packet&, bool delivered) {
        out.push_back(TapHop{link.from(), link.to(), delivered});
    });
}

/// Network::build_tree's hop limit for McastScope::kRegion.
constexpr std::size_t kRegionHops = 4;

/// The members a scoped multicast from `from` reaches under the reference:
/// every member but the sender, limited to reference paths that stay in the
/// sender's site (kSite) or take at most kRegionHops hops (kRegion).
std::vector<NodeId> scoped_members(const Network& net, const RoutingReference& ref,
                                   NodeId from, const std::vector<NodeId>& members,
                                   McastScope scope) {
    std::vector<NodeId> out;
    for (const NodeId m : members) {
        if (m == from) continue;
        const std::vector<NodeId> path = ref.path(from, m);
        if (path.empty()) continue;
        if (scope == McastScope::kRegion && path.size() - 1 > kRegionHops) continue;
        if (scope == McastScope::kSite) {
            bool stays = true;
            for (const NodeId n : path) stays = stays && net.site_of(n) == net.site_of(from);
            if (!stays) continue;
        }
        out.push_back(m);
    }
    return out;
}

// --- the DIS topology: scoped multicast + unicast ---------------------------

/// Every next hop, then a mixed workload -- global/site/region multicast
/// from several senders plus cross-site unicasts, one at a time -- with each
/// send's tap path checked against the reference.  Light Bernoulli loss on
/// one tail exercises the pruning below a dropped hop.
void check_dis_workload(std::uint32_t sites_per_region) {
    Simulator sim;
    Network net{sim, 1234};
    DisTopologySpec spec;
    spec.sites = 6;
    spec.receivers_per_site = 4;
    spec.sites_per_region = sites_per_region;
    const DisTopology topo = make_dis_topology(net, spec);
    net.finalize();
    const RoutingReference ref{net};
    expect_next_hops_match(net, ref);

    const NodeId upstream = sites_per_region > 0
                                ? topo.regions[2 / sites_per_region].router
                                : topo.backbone;
    net.set_loss(upstream, topo.sites[2].router, std::make_unique<BernoulliLoss>(0.2));

    const GroupId group{1};
    std::vector<NodeId> members = topo.all_receivers();
    for (const auto& site : topo.sites) members.push_back(site.secondary);
    for (const NodeId m : members) net.join(group, m);

    std::vector<TapHop> taps;
    record_hops(net, taps);

    std::uint32_t seq = 0;
    auto multicast = [&](NodeId from, McastScope scope) {
        taps.clear();
        net.multicast(from,
                      Packet{Header{group, topo.source, from},
                             DataBody{SeqNum{++seq}, EpochId{0}, {1, 2, 3}}},
                      scope);
        sim.run_for(secs(1.0));
        const std::vector<NodeId> reached = scoped_members(net, ref, from, members, scope);
        ASSERT_FALSE(reached.empty());
        expect_multicast_follows(ref, from, reached, taps);
    };
    auto unicast = [&](NodeId from, NodeId to) {
        taps.clear();
        net.unicast(from, to, Packet{Header{group, topo.source, from}, PrimaryQueryBody{}});
        sim.run_for(secs(1.0));
        expect_unicast_follows(ref, from, to, taps);
    };
    multicast(topo.source, McastScope::kGlobal);
    multicast(topo.sites[0].secondary, McastScope::kSite);
    multicast(topo.sites[3].secondary, McastScope::kRegion);
    multicast(topo.sites[5].receivers[0], McastScope::kGlobal);
    unicast(topo.sites[1].receivers[2], topo.sites[4].receivers[3]);
    unicast(topo.sites[4].receivers[1], topo.source);
    unicast(topo.replicas[0], topo.sites[3].secondary);
}

TEST(RoutingAB, ScopedMulticastAndUnicastTraceIdentical) {
    check_dis_workload(/*sites_per_region=*/0);
}

TEST(RoutingAB, RegionalTierTraceIdentical) {
    check_dis_workload(/*sites_per_region=*/2);
}

// --- the 20-site protocol scenario ------------------------------------------

struct ScenarioFingerprint {
    std::vector<std::string> deliveries;
    std::vector<std::string> notices;
    std::uint64_t events_processed = 0;

    bool operator==(const ScenarioFingerprint&) const = default;
};

/// The 20-site scenario with loss on two tails, so the whole recovery
/// machinery (NACKs, repairs, heartbeats, stat-acks) runs.  `check_routes`
/// compares every next hop with the reference before any traffic, which
/// builds every site row up front; otherwise rows are built as traffic
/// first touches them.
ScenarioFingerprint run_scenario(bool check_routes) {
    ScenarioConfig config;
    config.topology.sites = 20;
    config.topology.receivers_per_site = 5;
    config.seed = 99;
    DisScenario scenario(config);
    if (check_routes) {
        expect_next_hops_match(scenario.network(), RoutingReference{scenario.network()});
        EXPECT_EQ(scenario.network().site_rows_built(), scenario.network().node_count());
    }

    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[4].router,
                                std::make_unique<BernoulliLoss>(0.3));
    scenario.network().set_loss(scenario.topology().backbone,
                                scenario.topology().sites[11].router,
                                std::make_unique<BernoulliLoss>(0.3));

    scenario.start();
    for (int i = 0; i < 20; ++i) {
        scenario.send_update(128);
        scenario.run_for(millis(37));
    }
    scenario.run_for(secs(10.0));

    ScenarioFingerprint fp;
    for (const auto& d : scenario.deliveries())
        fp.deliveries.push_back(std::to_string(d.node.value()) + ":" +
                                std::to_string(d.seq.value()) + "@" +
                                std::to_string(d.at.time_since_epoch().count()) +
                                (d.recovered ? "r" : ""));
    for (const auto& n : scenario.notices())
        fp.notices.push_back(std::to_string(n.node.value()) + ":" +
                             std::to_string(static_cast<int>(n.kind)) + ":" +
                             std::to_string(n.arg) + "@" +
                             std::to_string(n.at.time_since_epoch().count()));
    fp.events_processed = scenario.simulator().events_processed();
    return fp;
}

TEST(RoutingAB, TwentySiteScenarioBitIdentical) {
    // Routes match the reference, and the protocol run is the same whether
    // every row was built before traffic or each on its first touch.
    const ScenarioFingerprint all_rows = run_scenario(/*check_routes=*/true);
    const ScenarioFingerprint on_touch = run_scenario(/*check_routes=*/false);
    ASSERT_GT(all_rows.deliveries.size(), 0u);
    EXPECT_EQ(all_rows, on_touch);
}

// --- downed router forcing a backbone detour ---------------------------------

/// Two sites, each with two border routers and redundant inter-site cables:
///
///   a_host -- a_r1 ---- b_r1 -- b_host
///        \___ a_r2 ---- b_r2 ___/
///
/// The r1 corridor is faster, so traffic prefers it; downing a_r1 and
/// re-finalizing must detour everything over the r2 corridor.
struct DetourNet {
    Simulator sim;
    Network net;
    NodeId a_host, a_r1, a_r2, b_host, b_r1, b_r2;

    explicit DetourNet(std::size_t path_cache_capacity = 65536)
        : net(sim, 7, [&] {
              SimConfig c;
              c.path_cache_capacity = path_cache_capacity;
              return c;
          }()) {
        a_host = net.add_node(SiteId{1});
        a_r1 = net.add_node(SiteId{1}, /*is_router=*/true);
        a_r2 = net.add_node(SiteId{1}, /*is_router=*/true);
        b_host = net.add_node(SiteId{2});
        b_r1 = net.add_node(SiteId{2}, /*is_router=*/true);
        b_r2 = net.add_node(SiteId{2}, /*is_router=*/true);
        const LinkSpec fast{millis(1), 0.0, Duration::zero()};
        const LinkSpec slow{millis(3), 0.0, Duration::zero()};
        net.add_link(a_host, a_r1, fast);
        net.add_link(a_host, a_r2, fast);
        net.add_link(b_host, b_r1, fast);
        net.add_link(b_host, b_r2, fast);
        net.add_link(a_r1, b_r1, fast);  // preferred corridor
        net.add_link(a_r2, b_r2, slow);  // detour corridor
        net.finalize();
    }
};

/// A multicast a_host -> {b_host} then a unicast b_host -> a_host, each
/// checked against `ref`; `dies_at` is a router downed since the last
/// finalize() (traffic is still routed into it).
void send_and_check(DetourNet& d, const RoutingReference& ref, std::uint32_t seq,
                    NodeId dies_at = kNoNode) {
    const GroupId group{1};
    std::vector<TapHop> taps;
    record_hops(d.net, taps);
    d.net.multicast(d.a_host,
                    Packet{Header{group, d.a_host, d.a_host},
                           DataBody{SeqNum{seq}, EpochId{0}, {9}}},
                    McastScope::kGlobal);
    d.sim.run_for(secs(1.0));
    expect_multicast_follows(ref, d.a_host, {d.b_host}, taps, dies_at);
    taps.clear();
    d.net.unicast(d.b_host, d.a_host,
                  Packet{Header{group, d.a_host, d.b_host}, PrimaryQueryBody{}});
    d.sim.run_for(secs(1.0));
    expect_unicast_follows(ref, d.b_host, d.a_host, taps, dies_at);
    d.net.set_tap({});
}

TEST(RoutingAB, DownedRouterForcesIdenticalBackboneDetour) {
    DetourNet d;
    d.net.join(GroupId{1}, d.b_host);
    const RoutingReference up{d.net};
    expect_next_hops_match(d.net, up);
    send_and_check(d, up, 1);  // via the r1 corridor

    d.net.set_node_down(d.a_r1, true);
    d.net.finalize();  // reconverge: a_r1 no longer relays
    const RoutingReference down{d.net, {d.a_r1}};
    expect_next_hops_match(d.net, down);
    send_and_check(d, down, 2);  // must detour via r2, both ways
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 1u);
    EXPECT_EQ(d.net.link(d.b_r2, d.a_r2)->stats().packets, 1u);
}

TEST(Routing, DownedRouterDetourUsesBackupCorridor) {
    DetourNet d;
    const GroupId group{1};
    d.net.join(group, d.b_host);
    auto send = [&](std::uint32_t seq) {
        d.net.multicast(d.a_host,
                        Packet{Header{group, d.a_host, d.a_host},
                               DataBody{SeqNum{seq}, EpochId{0}, {9}}},
                        McastScope::kGlobal);
        d.sim.run_for(secs(1.0));
    };
    send(1);
    EXPECT_EQ(d.net.link(d.a_r1, d.b_r1)->stats().packets, 1u);  // fast corridor
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 0u);

    d.net.set_node_down(d.a_r1, true);
    d.net.finalize();
    send(2);
    EXPECT_EQ(d.net.link(d.a_r1, d.b_r1)->stats().packets, 1u);  // unchanged
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 1u);  // detour taken
    EXPECT_EQ(d.net.link(d.b_r2, d.b_host)->stats().packets, 1u);

    // Revive and reconverge: traffic returns to the fast corridor.
    d.net.set_node_down(d.a_r1, false);
    d.net.finalize();
    send(3);
    EXPECT_EQ(d.net.link(d.a_r1, d.b_r1)->stats().packets, 2u);
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 1u);
}

// --- set_node_down without re-finalize: blackhole semantics ------------------

/// Routes must be a pure function of the last finalize(): a mid-run
/// set_node_down changes nothing (packets blackhole into the downed border)
/// until finalize() reconverges.  Regression for a bug where compose_hop
/// read live down flags, so routes shifted immediately -- and differently
/// for cached vs freshly-composed hops.
std::vector<TapEvent> run_down_no_refinalize(std::size_t path_cache_cap) {
    DetourNet d(path_cache_cap);
    const GroupId group{1};
    d.net.join(group, d.b_host);

    std::vector<TapEvent> taps;
    record_taps(d.net, taps);

    auto send = [&](std::uint32_t seq) {
        d.net.multicast(d.a_host,
                        Packet{Header{group, d.a_host, d.a_host},
                               DataBody{SeqNum{seq}, EpochId{0}, {9}}},
                        McastScope::kGlobal);
        d.net.unicast(d.b_host, d.a_host,
                      Packet{Header{group, d.a_host, d.b_host}, PrimaryQueryBody{}});
        d.sim.run_for(secs(1.0));
    };
    send(1);  // primes the path cache with routes through the r1 corridor

    d.net.set_node_down(d.a_r1, true);
    send(2);  // no re-finalize: still routed into a_r1, dying on arrival

    d.net.finalize();
    send(3);  // reconverged: detour via r2

    return taps;
}

TEST(RoutingAB, DownWithoutRefinalizeTraceIdentical) {
    DetourNet d;
    d.net.join(GroupId{1}, d.b_host);
    const RoutingReference up{d.net};
    send_and_check(d, up, 1);  // primes the path cache through r1

    d.net.set_node_down(d.a_r1, true);
    expect_next_hops_match(d.net, up);  // the finalize-time tables still rule
    send_and_check(d, up, 2, /*dies_at=*/d.a_r1);

    d.net.finalize();
    const RoutingReference down{d.net, {d.a_r1}};
    expect_next_hops_match(d.net, down);
    send_and_check(d, down, 3);
}

TEST(Routing, PathCacheCapacityNeverChangesOutcomes) {
    // Unbounded, single-entry (every lookup evicts) and default-sized
    // caches must produce the same trace, even across a down transition
    // that is not yet finalized -- cached and freshly-composed hops agree.
    const auto unbounded = run_down_no_refinalize(0);
    const auto tiny = run_down_no_refinalize(1);
    const auto roomy = run_down_no_refinalize(65536);
    EXPECT_EQ(unbounded, tiny);
    EXPECT_EQ(unbounded, roomy);
}

TEST(Routing, DownedRouterBlackholesUntilRefinalize) {
    DetourNet d;
    const GroupId group{1};
    d.net.join(group, d.b_host);
    auto send = [&](std::uint32_t seq) {
        d.net.multicast(d.a_host,
                        Packet{Header{group, d.a_host, d.a_host},
                               DataBody{SeqNum{seq}, EpochId{0}, {9}}},
                        McastScope::kGlobal);
        d.sim.run_for(secs(1.0));
    };
    send(1);
    EXPECT_EQ(d.net.link(d.a_host, d.a_r1)->stats().packets, 1u);

    d.net.set_node_down(d.a_r1, true);
    send(2);  // tree rebuilt (down drops caches) but on the *old* tables
    EXPECT_EQ(d.net.link(d.a_host, d.a_r1)->stats().packets, 2u);  // into the hole
    EXPECT_EQ(d.net.link(d.a_r1, d.b_r1)->stats().packets, 1u);  // died at a_r1
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 0u);  // no early detour

    d.net.finalize();
    send(3);
    EXPECT_EQ(d.net.link(d.a_host, d.a_r1)->stats().packets, 2u);  // unchanged
    EXPECT_EQ(d.net.link(d.a_r2, d.b_r2)->stats().packets, 1u);  // detour taken
}

TEST(Routing, HierarchicalIsDefaultAndReportsTables) {
    Simulator sim;
    Network net{sim, 1};
    DisTopologySpec spec;
    spec.sites = 3;
    spec.receivers_per_site = 2;
    const DisTopology topo = make_dis_topology(net, spec);
    EXPECT_THROW((void)net.next_hop(topo.source, topo.backbone), std::logic_error);
    net.finalize();
    EXPECT_GT(net.routing_table_bytes(), 0u);
    EXPECT_GT(net.site_rows_built(), 0u);
    EXPECT_EQ(net.next_hop(topo.source, topo.source), kNoNode);
    EXPECT_EQ(net.next_hop(topo.source, topo.sites[1].receivers[0]), topo.source_router);
}

}  // namespace
