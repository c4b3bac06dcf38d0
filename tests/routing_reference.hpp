// Brute-force routing reference for the routing tests.
//
// An all-pairs Dijkstra over every link of a sim::Network, using the metric
// and liveness rule of the network's own tables: propagation + 1 us per hop,
// and a node down at the last finalize() may be an endpoint but never
// relays.  It knows nothing of sites, borders, backbone composition, lazy
// rows or the path cache, so a network that agrees with it on every
// (from, to) pair routes correctly by construction.
//
// The check is exact only where shortest paths are unique under the metric
// (every tree-shaped DIS topology, and each hand-built topology below).
// expect_next_hops_match() reports an equal-cost tie as a failure, so a test
// topology that loses that property says so instead of passing by luck.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "sim/network.hpp"

namespace lbrm::test {

class RoutingReference {
public:
    static constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

    /// Snapshot `net`'s links and their current propagation delays; `down`
    /// is the set of nodes that may not relay.  Build it where the network
    /// snapshots its own state -- next to finalize() -- so a later re-spec
    /// or set_node_down is invisible to both.
    explicit RoutingReference(const sim::Network& net, const std::vector<NodeId>& down = {})
        : n_(net.node_count()), down_(n_, false), adj_(n_), dist_(n_ * n_, kInf) {
        for (const NodeId d : down) down_[d.value() - 1] = true;
        for (std::size_t a = 0; a < n_; ++a)
            for (std::size_t b = 0; b < n_; ++b)
                if (const sim::Link* l = net.link(node(a), node(b)))
                    adj_[a].emplace_back(b, l->spec().propagation.count() + 1000);
        for (std::size_t s = 0; s < n_; ++s) dijkstra(s);
    }

    [[nodiscard]] std::int64_t dist(NodeId from, NodeId to) const {
        return dist_[idx(from) * n_ + idx(to)];
    }

    /// Every neighbour of `from` that starts a shortest path to `to` (empty
    /// when `to` is unreachable or equal to `from`).
    [[nodiscard]] std::vector<NodeId> first_hops(NodeId from, NodeId to) const {
        std::vector<NodeId> out;
        const std::int64_t total = dist(from, to);
        if (from == to || total == kInf) return out;
        for (const auto& [h, w] : adj_[idx(from)]) {
            if (node(h) == to) {
                if (w == total) out.push_back(to);
            } else if (!down_[h]) {
                const std::int64_t rest = dist_[h * n_ + idx(to)];
                if (rest != kInf && w + rest == total) out.push_back(node(h));
            }
        }
        return out;
    }

    /// The shortest path from `from` to `to` as its node sequence, both ends
    /// included; empty when unreachable.  Requires unique first hops.
    [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId to) const {
        if (from != to && dist(from, to) == kInf) return {};
        std::vector<NodeId> out{from};
        while (out.back() != to) {
            const std::vector<NodeId> hops = first_hops(out.back(), to);
            if (hops.size() != 1) {
                ADD_FAILURE() << "no unique shortest path " << from.value() << " -> "
                              << to.value();
                return {};
            }
            out.push_back(hops.front());
        }
        return out;
    }

private:
    [[nodiscard]] static NodeId node(std::size_t i) {
        return NodeId{static_cast<std::uint32_t>(i + 1)};
    }
    [[nodiscard]] static std::size_t idx(NodeId id) { return id.value() - 1; }

    void dijkstra(std::size_t src) {
        std::int64_t* dist = &dist_[src * n_];
        using QE = std::pair<std::int64_t, std::size_t>;
        std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
        dist[src] = 0;
        pq.emplace(0, src);
        while (!pq.empty()) {
            const auto [d, u] = pq.top();
            pq.pop();
            if (d != dist[u]) continue;
            if (u != src && down_[u]) continue;  // reachable, but no relay
            for (const auto& [v, w] : adj_[u]) {
                if (d + w < dist[v]) {
                    dist[v] = d + w;
                    pq.emplace(dist[v], v);
                }
            }
        }
    }

    std::size_t n_;
    std::vector<bool> down_;
    std::vector<std::vector<std::pair<std::size_t, std::int64_t>>> adj_;
    std::vector<std::int64_t> dist_;  ///< row-major: dist_[from * n + to]
};

/// Network::next_hop must equal the reference's unique first hop for every
/// ordered pair of nodes (kNoNode where the reference finds no path).
inline void expect_next_hops_match(sim::Network& net, const RoutingReference& ref) {
    const std::size_t n = net.node_count();
    for (std::uint32_t a = 1; a <= n; ++a) {
        for (std::uint32_t b = 1; b <= n; ++b) {
            const NodeId from{a};
            const NodeId to{b};
            const std::vector<NodeId> want = ref.first_hops(from, to);
            const NodeId got = net.next_hop(from, to);
            if (want.empty()) {
                EXPECT_EQ(got, kNoNode) << a << " -> " << b << " should be unreachable";
            } else if (want.size() > 1) {
                ADD_FAILURE() << a << " -> " << b << ": equal-cost tie in the reference";
            } else {
                EXPECT_EQ(got, want.front()) << "next hop " << a << " -> " << b;
            }
        }
    }
}

/// One link transmission seen by the network tap.
struct TapHop {
    NodeId from;
    NodeId to;
    bool delivered;
};

/// A unicast's tap record must walk the reference path hop by hop, ending
/// at the destination or at the first dropped hop.  `dies_at` names a node
/// that is down now but was up at finalize(): the packet is routed into it
/// and dies on arrival.
inline void expect_unicast_follows(const RoutingReference& ref, NodeId from, NodeId to,
                                   const std::vector<TapHop>& taps,
                                   NodeId dies_at = kNoNode) {
    const std::vector<NodeId> want = ref.path(from, to);
    ASSERT_FALSE(want.empty()) << from.value() << " -> " << to.value() << " unreachable";
    ASSERT_FALSE(taps.empty()) << from.value() << " -> " << to.value() << " sent nothing";
    for (std::size_t i = 0; i < taps.size(); ++i) {
        ASSERT_LT(i + 1, want.size()) << "unicast overran its reference path";
        EXPECT_EQ(taps[i].from, want[i]) << "hop " << i;
        EXPECT_EQ(taps[i].to, want[i + 1]) << "hop " << i;
        if (!taps[i].delivered || taps[i].to == dies_at) {
            EXPECT_EQ(i + 1, taps.size()) << "traffic past a dropped hop";
            return;
        }
    }
    EXPECT_EQ(taps.back().to, to) << "unicast stopped short of its destination";
}

/// A multicast's tap record must be exactly the union of the reference
/// paths from `root` to each of `members`, one copy per tree edge, pruned
/// below every dropped hop and below `dies_at` (as for unicasts).
inline void expect_multicast_follows(const RoutingReference& ref, NodeId root,
                                     const std::vector<NodeId>& members,
                                     const std::vector<TapHop>& taps,
                                     NodeId dies_at = kNoNode) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> sent, dropped, expected;
    for (const TapHop& t : taps) {
        const auto edge = std::make_pair(t.from.value(), t.to.value());
        EXPECT_TRUE(sent.insert(edge).second)
            << "edge " << edge.first << " -> " << edge.second << " carried two copies";
        if (!t.delivered) dropped.insert(edge);
    }
    for (const NodeId m : members) {
        const std::vector<NodeId> p = ref.path(root, m);
        ASSERT_FALSE(p.empty()) << "member " << m.value() << " unreachable";
        for (std::size_t i = 0; i + 1 < p.size(); ++i) {
            const auto edge = std::make_pair(p[i].value(), p[i + 1].value());
            expected.insert(edge);
            EXPECT_TRUE(sent.count(edge) != 0)
                << "member " << m.value() << ": missing edge " << edge.first << " -> "
                << edge.second;
            if (dropped.count(edge) != 0 || p[i + 1] == dies_at) break;
        }
    }
    for (const auto& edge : sent)
        EXPECT_TRUE(expected.count(edge) != 0)
            << "edge " << edge.first << " -> " << edge.second << " is on no member's path";
}

}  // namespace lbrm::test
