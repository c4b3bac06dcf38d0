#include "sim/network.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "common/fnv.hpp"
#include "obs/trace.hpp"
#include "sim/sim_host.hpp"

namespace lbrm::sim {

namespace {

constexpr std::int64_t kInfDist = std::numeric_limits<std::int64_t>::max();

/// Edge weight: propagation + 1 microsecond hop penalty (prefers fewer
/// hops between equal-latency paths, keeping routes deterministic).
/// Sampled into the CSR snapshot at finalize(), so a later re-spec cannot
/// reach a row built after it.
[[nodiscard]] std::int64_t edge_weight(const Link* l) {
    return l->spec().propagation.count() + 1000;
}

/// Multicast-tree cache key: (group id, sender id) packed into 64 bits.
[[nodiscard]] std::uint64_t tree_key(GroupId group, NodeId sender) {
    return (static_cast<std::uint64_t>(group.value()) << 32) | sender.value();
}

/// Path-cache key: (from node index, to node index) packed into 64 bits.
[[nodiscard]] std::uint64_t path_key(std::uint32_t from, std::uint32_t to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
}

/// Link-index key: (from node index, to node index) packed into 64 bits.
[[nodiscard]] std::uint64_t pair_key(std::size_t from, std::size_t to) {
    return (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
}

}  // namespace

namespace {
/// "sim.*" pull-gauge names registered by register_metrics(); ~Network
/// removes exactly this list (the registry can outlive the network).
constexpr const char* kSimGaugeNames[] = {
    "sim.cached_trees",     "sim.tree_cache_bytes",   "sim.site_rows_built",
    "sim.routing_table_bytes", "sim.path_cache_entries", "sim.drops_queue",
    "sim.drops_loss",       "sim.link_packets",       "sim.link_bytes",
    "sim.queue_pending",    "sim.events_processed",   "sim.events_scheduled",
};
}  // namespace

Network::Network(Simulator& simulator, std::uint64_t seed, SimConfig config)
    : simulator_(simulator), rng_(seed), seed_(seed),
      path_cache_capacity_(config.path_cache_capacity),
      tree_cache_capacity_(config.tree_cache_capacity),
      metrics_(config.metrics ? config.metrics : std::make_shared<obs::Metrics>()),
      shard_ordering_(config.shard_ordering) {
    if (shard_ordering_) simulator_.enable_actor_keys();
    register_metrics();
}

Network::~Network() {
    while (deliveries_ != nullptr) destroy(deliveries_);
    for (const char* name : kSimGaugeNames) metrics_->remove_gauge_fn(name);
}

void Network::register_metrics() {
    obs::Metrics& m = *metrics_;
    unicast_sends_ = &m.counter("sim.unicast_sends");
    multicast_sends_ = &m.counter("sim.multicast_sends");
    deliveries_made_ = &m.counter("sim.deliveries");
    tree_cache_hits_ = &m.counter("sim.tree_cache_hits");
    tree_builds_ = &m.counter("sim.tree_builds");
    path_cache_hits_ = &m.counter("sim.path_cache_hits");
    path_cache_misses_ = &m.counter("sim.path_cache_misses");
    batched_arrivals_ = &m.counter("sim.batched_arrivals");
    batch_drains_ = &m.counter("sim.batch_drains");
    batched_runs_ = &m.counter("sim.batched_delivery_runs");
    respec_loss_resets_ = &m.counter("network.respec_loss_resets");
    remote_emits_ = &m.counter("sim.remote_emits");
    remote_injects_ = &m.counter("sim.remote_injects");
    remote_drops_ = &m.counter("sim.remote_drops");

    // Pull gauges: evaluated at snapshot time only, so none of these touch
    // the hot path.  When several networks share one registry the most
    // recently constructed network's gauges win (find-or-create semantics).
    m.gauge_fn("sim.cached_trees",
               [this] { return static_cast<std::uint64_t>(cached_trees_); });
    m.gauge_fn("sim.tree_cache_bytes",
               [this] { return static_cast<std::uint64_t>(tree_cache_bytes()); });
    m.gauge_fn("sim.site_rows_built",
               [this] { return static_cast<std::uint64_t>(site_rows_built()); });
    m.gauge_fn("sim.routing_table_bytes",
               [this] { return static_cast<std::uint64_t>(routing_table_bytes()); });
    m.gauge_fn("sim.path_cache_entries",
               [this] { return static_cast<std::uint64_t>(path_cache_.size()); });
    m.gauge_fn("sim.drops_queue", [this] { return drop_breakdown().queue; });
    m.gauge_fn("sim.drops_loss", [this] { return drop_breakdown().loss; });
    m.gauge_fn("sim.link_packets", [this] {
        std::uint64_t total = 0;
        for (const Cable& c : cables_)
            for (const Link& l : c.dir) total += l.stats().packets;
        return total;
    });
    m.gauge_fn("sim.link_bytes", [this] {
        std::uint64_t total = 0;
        for (const Cable& c : cables_)
            for (const Link& l : c.dir) total += l.stats().bytes;
        return total;
    });
    m.gauge_fn("sim.queue_pending",
               [this] { return static_cast<std::uint64_t>(simulator_.pending()); });
    m.gauge_fn("sim.events_processed",
               [this] { return simulator_.events_processed(); });
    m.gauge_fn("sim.events_scheduled",
               [this] { return simulator_.events_scheduled(); });
}

Network::DropBreakdown Network::drop_breakdown() const {
    DropBreakdown out;
    for (const Cable& c : cables_) {
        for (const Link& l : c.dir) {
            out.queue += l.stats().drops_queue;
            out.loss += l.stats().drops_loss;
        }
    }
    return out;
}

void Network::track(DeliveryBase* d) {
    d->next = deliveries_;
    if (deliveries_ != nullptr) deliveries_->prev = d;
    deliveries_ = d;
}

void Network::destroy(DeliveryBase* d) {
    if (d->prev != nullptr) d->prev->next = d->next;
    if (d->next != nullptr) d->next->prev = d->prev;
    if (deliveries_ == d) deliveries_ = d->next;
    if (d->arena_backed) {
        d->~DeliveryBase();
        // Burst drained: no in-flight record points into the arena any
        // more, so rewind it (chunks are retained for the next burst).
        if (deliveries_ == nullptr) delivery_arena_.reset();
    } else {
        delete d;
    }
}

void Network::reserve(std::size_t nodes, std::size_t directed_links) {
    node_site_id_.reserve(nodes);
    node_is_router_.reserve(nodes);
    node_down_.reserve(nodes);
    edge_head_.reserve(nodes);
    edge_tail_.reserve(nodes);
    node_host_.reserve(nodes);
    edge_cells_.reserve(directed_links);
    link_index_.reserve(directed_links);
}

NodeId Network::add_node(SiteId site, bool is_router) {
    node_site_id_.push_back(site);
    node_is_router_.push_back(is_router ? 1 : 0);
    node_down_.push_back(0);
    // Edge lists are grown on demand by ensure_edge_lists(): finalize()
    // frees the construction arena once the CSR snapshot exists, so a
    // node addition must not assume the lists are live.
    finalized_ = false;
    return NodeId{static_cast<std::uint32_t>(node_site_id_.size())};
}

void Network::ensure_edge_lists() {
    const std::size_t n = node_count();
    if (edge_head_.size() == n && (!edge_cells_.empty() || csr_to_.empty()))
        return;
    edge_head_.resize(n, kNoIndex);
    edge_tail_.resize(n, kNoIndex);
    // Rehydrate the per-node linked lists from the CSR snapshot after
    // finalize() freed them.  CSR row order *is* the original per-source
    // insertion order, and build_adjacency() only ever walks the lists
    // per source, so the next snapshot comes out identical.
    if (edge_cells_.empty() && !csr_to_.empty()) {
        const std::size_t csr_nodes = csr_offset_.size() - 1;
        edge_cells_.reserve(csr_to_.size());
        for (std::size_t i = 0; i < csr_nodes; ++i) {
            for (std::uint32_t e = csr_offset_[i]; e < csr_offset_[i + 1]; ++e) {
                const std::uint32_t cell = static_cast<std::uint32_t>(edge_cells_.size());
                edge_cells_.push_back(EdgeCell{csr_to_[e], kNoIndex, csr_link_[e]});
                if (edge_head_[i] == kNoIndex)
                    edge_head_[i] = cell;
                else
                    edge_cells_[edge_tail_[i]].next = cell;
                edge_tail_[i] = cell;
            }
        }
    }
}

void Network::add_link(NodeId a, NodeId b, const LinkSpec& spec) {
    if (index(a) >= node_count() || index(b) >= node_count() || a == b)
        throw std::invalid_argument("Network::add_link: bad endpoints");
    if (Link* existing = link(a, b)) {
        // Cables are always installed in pairs, so a->b existing means the
        // whole cable exists: re-spec it in place.  Any installed loss
        // model silently resets to NoLoss (Cable::respec documents this);
        // surface the resets through network.respec_loss_resets so
        // lossy-rewire scenarios can detect them.
        const unsigned resets = existing->cable().respec(spec);
        if (resets != 0) respec_loss_resets_->inc(resets);
    } else {
        ensure_edge_lists();
        Cable& c = cables_.emplace_back(a, b, spec);
        auto wire = [this](Link& l, NodeId from, NodeId to) {
            const std::size_t fi = index(from);
            const std::size_t ti = index(to);
            const std::uint32_t cell = static_cast<std::uint32_t>(edge_cells_.size());
            edge_cells_.push_back(
                EdgeCell{static_cast<std::uint32_t>(ti), kNoIndex, &l});
            if (edge_head_[fi] == kNoIndex)
                edge_head_[fi] = cell;
            else
                edge_cells_[edge_tail_[fi]].next = cell;
            edge_tail_[fi] = cell;
            link_index_.emplace(pair_key(fi, ti), &l);
        };
        wire(c.dir[0], a, b);
        wire(c.dir[1], b, a);
    }
    // A changed edge can invalidate any cached tree or cached path, so both
    // caches drop immediately -- not just at the next finalize().  In-flight
    // deliveries keep their pinned trees and complete on the pre-change
    // routes, as before.  The CSR snapshot (adjacency and edge weights) is
    // *not* rebuilt here: every row, including one first built after this
    // call, keeps reading the finalize-time graph until the required
    // finalize().
    invalidate_all_trees();
    clear_path_cache();
    finalized_ = false;
}

void Network::set_loss(NodeId a, NodeId b, std::unique_ptr<LossModel> model) {
    Link* l = link(a, b);
    if (l == nullptr) throw std::invalid_argument("Network::set_loss: no such link");
    l->set_loss_model(std::move(model));
}

void Network::set_node_down(NodeId node, bool down) {
    const std::size_t i = index(node);
    if ((node_down_[i] != 0) != down) invalidate_all_trees();
    node_down_[i] = down ? 1 : 0;
    // The path cache is untouched: routes are a pure function of the
    // tables built at the last finalize() -- every site-table row (built at
    // finalize or lazily) plus compose_hop consult the route_down_ /
    // border_down_ snapshots, never the live flags -- so a downed relay
    // blackholes until re-finalize, like an unconverged routing protocol,
    // and cache occupancy can never change outcomes.  Trees must drop
    // because membership pruning *does* consult liveness at build time.
}

Link* Network::find_link(std::uint64_t key) const {
    const auto it = std::lower_bound(
        link_flat_.begin(), link_flat_.end(), key,
        [](const std::pair<std::uint64_t, Link*>& e, std::uint64_t k) {
            return e.first < k;
        });
    if (it != link_flat_.end() && it->first == key) return it->second;
    const auto mit = link_index_.find(key);
    return mit != link_index_.end() ? mit->second : nullptr;
}

Link* Network::link(NodeId a, NodeId b) {
    if (index(a) >= node_count() || index(b) >= node_count()) return nullptr;
    return find_link(pair_key(index(a), index(b)));
}

const Link* Network::link(NodeId a, NodeId b) const {
    if (index(a) >= node_count() || index(b) >= node_count()) return nullptr;
    return find_link(pair_key(index(a), index(b)));
}

// ---------------------------------------------------------------------------
// Routing: finalize() builds the hierarchical site/backbone tables, leaving
// interior rows to materialise on first touch (DESIGN.md "Hierarchical
// routing", "Scale engineering").
// ---------------------------------------------------------------------------

void Network::build_adjacency() {
    const std::size_t n = node_count();
    ensure_edge_lists();  // rehydrates from the old CSR if finalize() freed them
    csr_offset_.assign(n + 1, 0);
    csr_to_.clear();
    csr_link_.clear();
    csr_weight_.clear();
    csr_to_.reserve(edge_cells_.size());
    csr_link_.reserve(edge_cells_.size());
    csr_weight_.reserve(edge_cells_.size());
    for (std::size_t i = 0; i < n; ++i) {
        csr_offset_[i] = static_cast<std::uint32_t>(csr_to_.size());
        for (std::uint32_t c = edge_head_[i]; c != kNoIndex; c = edge_cells_[c].next) {
            csr_to_.push_back(edge_cells_[c].to);
            csr_link_.push_back(edge_cells_[c].link);
            csr_weight_.push_back(edge_weight(edge_cells_[c].link));
        }
    }
    csr_offset_[n] = static_cast<std::uint32_t>(csr_to_.size());
    // The CSR snapshot now carries everything routing needs, and it can
    // regenerate the lists if a link is ever added afterwards
    // (ensure_edge_lists above) -- so drop the construction arena: at 10^7
    // nodes the cells plus head/tail pointers are ~400 MB of dead weight.
    std::vector<EdgeCell>().swap(edge_cells_);
    std::vector<std::uint32_t>().swap(edge_head_);
    std::vector<std::uint32_t>().swap(edge_tail_);

    // Drain the construction-time hash map into the sorted flat index and
    // free its buckets (see the member comment for the memory math).
    if (!link_index_.empty()) {
        link_flat_.reserve(link_flat_.size() + link_index_.size());
        for (const auto& [key, l] : link_index_) link_flat_.emplace_back(key, l);
        std::sort(link_flat_.begin(), link_flat_.end());
        std::unordered_map<std::uint64_t, Link*>{}.swap(link_index_);
    }
}

void Network::finalize() {
    LBRM_TRACE_SPAN("finalize");
    {
        LBRM_TRACE_SPAN("finalize.prep");
        invalidate_all_trees();
        clear_path_cache();
        // Snapshot adjacency, edge weights and liveness: every table row --
        // including rows materialised mid-run -- is a pure function of
        // these, so build order/time cannot change a route.
        build_adjacency();
        route_down_.assign(node_down_.begin(), node_down_.end());
    }
    {
        LBRM_TRACE_SPAN("finalize.routes");
        build_routes();
    }
    finalized_ = true;
}

void Network::build_routes() {
    const std::size_t n = node_count();

    {
        LBRM_TRACE_SPAN("finalize.site_index");
        // 1. Group nodes into dense site indices (first-appearance order).
        site_tables_.clear();
        node_site_.assign(n, 0);
        node_local_.assign(n, 0);
        std::unordered_map<std::uint32_t, std::uint32_t> site_index;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t key = node_site_id_[i].value();
            auto [it, inserted] = site_index.emplace(
                key, static_cast<std::uint32_t>(site_tables_.size()));
            if (inserted) site_tables_.emplace_back();
            SiteTable& table = site_tables_[it->second];
            node_site_[i] = it->second;
            node_local_[i] = static_cast<std::uint32_t>(table.nodes.size());
            table.nodes.push_back(static_cast<std::uint32_t>(i));
        }
        // One empty slot per row; a row is built into its slot on first
        // touch (ensure_row).
        for (SiteTable& table : site_tables_) table.rows.resize(table.nodes.size());

        // 2. Border nodes: any node with an inter-site link (ascending index).
        border_nodes_.clear();
        node_border_.assign(n, kNoIndex);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::uint32_t k = csr_offset_[i]; k != csr_offset_[i + 1]; ++k) {
                if (node_site_[csr_to_[k]] != node_site_[i]) {
                    node_border_[i] = static_cast<std::uint32_t>(border_nodes_.size());
                    border_nodes_.push_back(static_cast<std::uint32_t>(i));
                    site_tables_[node_site_[i]].borders.push_back(
                        static_cast<std::uint32_t>(i));
                    break;
                }
            }
        }
        // Border projection of the liveness snapshot: compose_hop must see the
        // state the tables were built under, not later set_node_down
        // transitions (which only take routing effect at the next finalize).
        border_down_.assign(border_nodes_.size(), 0);
        for (std::size_t b = 0; b < border_nodes_.size(); ++b)
            border_down_[b] = route_down_[border_nodes_[b]];
    }

    // 3. The border rows, which the backbone build reads.  Every other row
    //    waits for its first touch.
    rows_built_ = 0;
    {
        LBRM_TRACE_SPAN("finalize.site_rows");
        for (std::size_t s = 0; s < site_tables_.size(); ++s)
            for (const std::uint32_t gb : site_tables_[s].borders)
                build_site_row(static_cast<std::uint32_t>(s), node_local_[gb]);
    }

    // 4. Backbone all-pairs over the border nodes.
    build_backbone();
}

void Network::build_site_row(std::uint32_t site, std::uint32_t src_local) {
    DijkstraScratch& s = scratch_;
    SiteTable& table = site_tables_[site];
    const std::size_t m = table.size();
    s.dist.assign(m, kInfDist);
    s.first_hop.assign(m, kNoIndex);
    s.first_link.assign(m, nullptr);
    s.dist[src_local] = 0;
    s.pq.emplace(0, src_local);

    // Dijkstra over the site's own subgraph against the finalize-time
    // adjacency, weight and liveness snapshots -- never live state, so a
    // row is the same whenever it is first built.  A node down at finalize
    // may be the source but never relays.
    while (!s.pq.empty()) {
        auto [d, u] = s.pq.top();
        s.pq.pop();
        if (d != s.dist[u]) continue;
        const std::uint32_t gu = table.nodes[u];
        if (u != src_local && route_down_[gu]) continue;
        for (std::uint32_t k = csr_offset_[gu]; k != csr_offset_[gu + 1]; ++k) {
            const std::uint32_t gv = csr_to_[k];
            if (node_site_[gv] != site) continue;  // intra only
            const std::uint32_t v = node_local_[gv];
            const std::int64_t w = csr_weight_[k];
            if (d + w < s.dist[v]) {
                s.dist[v] = d + w;
                s.first_hop[v] = (u == src_local) ? gv : s.first_hop[u];
                s.first_link[v] = (u == src_local) ? csr_link_[k] : s.first_link[u];
                s.pq.emplace(s.dist[v], v);
            }
        }
    }

    auto row = std::make_unique<RowCell[]>(m);
    for (std::size_t i = 0; i < m; ++i)
        row[i] = RowCell{s.dist[i], s.first_hop[i], s.first_link[i]};
    table.rows[src_local] = std::move(row);
    ++rows_built_;
}

void Network::build_backbone() {
    LBRM_TRACE_SPAN("finalize.backbone");
    // Backbone all-pairs over the border nodes.  Edges: real inter-site
    // links, plus one virtual edge per same-site border pair weighted by
    // the intra-site distance -- so inter-border travel *through* a site's
    // interior is represented and the composed metric is exact.  The first
    // physical hop of each virtual edge is resolved through the intra-site
    // rows at build time, making descent O(1).
    const std::size_t nb = border_nodes_.size();
    bb_dist_.assign(nb * nb, kInfDist);
    bb_next_node_.assign(nb * nb, kNoIndex);
    bb_next_link_.assign(nb * nb, nullptr);

    std::vector<std::int64_t> bdist(nb);
    std::vector<std::uint32_t> bfirst_node(nb);
    std::vector<Link*> bfirst_link(nb);
    for (std::size_t src = 0; src < nb; ++src) {
        std::fill(bdist.begin(), bdist.end(), kInfDist);
        std::fill(bfirst_node.begin(), bfirst_node.end(), kNoIndex);
        std::fill(bfirst_link.begin(), bfirst_link.end(), nullptr);
        bdist[src] = 0;

        using QE = std::pair<std::int64_t, std::uint32_t>;  // (distance, border index)
        std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
        pq.emplace(0, static_cast<std::uint32_t>(src));
        while (!pq.empty()) {
            auto [d, u] = pq.top();
            pq.pop();
            if (d != bdist[u]) continue;
            const std::uint32_t gu = border_nodes_[u];
            if (u != src && route_down_[gu]) continue;

            // Real inter-site links, in adjacency order.
            for (std::uint32_t k = csr_offset_[gu]; k != csr_offset_[gu + 1]; ++k) {
                const std::uint32_t gv = csr_to_[k];
                if (node_site_[gv] == node_site_[gu]) continue;
                const std::uint32_t v = node_border_[gv];  // inter-site => border
                const std::int64_t w = csr_weight_[k];
                if (d + w < bdist[v]) {
                    bdist[v] = d + w;
                    bfirst_node[v] = (u == src) ? gv : bfirst_node[u];
                    bfirst_link[v] = (u == src) ? csr_link_[k] : bfirst_link[u];
                    pq.emplace(bdist[v], v);
                }
            }
            // Virtual intra-site edges to the site's other borders.
            const SiteTable& table = site_tables_[node_site_[gu]];
            const RowCell* row = table.rows[node_local_[gu]].get();
            for (const std::uint32_t gv : table.borders) {
                if (gv == gu) continue;
                const RowCell& cell = row[node_local_[gv]];
                if (cell.dist == kInfDist) continue;
                const std::uint32_t v = node_border_[gv];
                if (d + cell.dist < bdist[v]) {
                    bdist[v] = d + cell.dist;
                    bfirst_node[v] = (u == src) ? cell.next : bfirst_node[u];
                    bfirst_link[v] = (u == src) ? cell.link : bfirst_link[u];
                    pq.emplace(bdist[v], v);
                }
            }
        }
        for (std::size_t dst = 0; dst < nb; ++dst) {
            bb_dist_[src * nb + dst] = bdist[dst];
            bb_next_node_[src * nb + dst] = bfirst_node[dst];
            bb_next_link_[src * nb + dst] = bfirst_link[dst];
        }
    }
}

Network::Hop Network::compose_hop(std::uint32_t from, std::uint32_t to) {
    const std::uint32_t su = node_site_[from];
    const std::uint32_t sv = node_site_[to];
    SiteTable& stu = site_tables_[su];
    SiteTable& stv = site_tables_[sv];
    const std::size_t lu = node_local_[from];
    const std::size_t lv = node_local_[to];
    const std::size_t nb = border_nodes_.size();

    ensure_row(su, static_cast<std::uint32_t>(lu));
    const RowCell* ru = stu.rows[lu].get();

    std::int64_t best = kInfDist;
    Hop choice;

    // Candidate 1: stay inside the shared site.
    if (su == sv) {
        const RowCell& c = ru[lv];
        if (c.dist < kInfDist) {
            best = c.dist;
            choice = Hop{c.next, c.link};
        }
    }

    // Candidate 2: exit via border b1, cross the backbone, enter via b2.
    // (For same-site pairs this also covers leave-and-return paths.)
    // Borders down *at the last finalize* never relay, but may still be
    // the endpoint itself; liveness comes from the border_down_ snapshot,
    // never the live flags, so a mid-run set_node_down leaves routing
    // untouched until re-finalize.  Every row consulted here is either
    // `from`'s own (ensured above) or a border row, which finalize() builds.
    for (const std::uint32_t b1 : stu.borders) {
        if (border_down_[node_border_[b1]] && b1 != from) continue;
        const std::int64_t du = (b1 == from) ? 0 : ru[node_local_[b1]].dist;
        if (du == kInfDist || du >= best) continue;
        const std::size_t row = static_cast<std::size_t>(node_border_[b1]) * nb;
        for (const std::uint32_t b2 : stv.borders) {
            if (border_down_[node_border_[b2]] && b2 != to) continue;
            const std::int64_t bb = bb_dist_[row + node_border_[b2]];
            if (bb == kInfDist) continue;
            const std::int64_t dv =
                (b2 == to) ? 0 : stv.rows[node_local_[b2]][lv].dist;
            if (dv == kInfDist) continue;
            const std::int64_t total = du + bb + dv;
            if (total >= best) continue;
            best = total;
            if (from != b1) {
                const RowCell& c = ru[node_local_[b1]];
                choice = Hop{c.next, c.link};
            } else if (b1 != b2) {
                const std::size_t idx = row + node_border_[b2];
                choice = Hop{bb_next_node_[idx], bb_next_link_[idx]};
            } else {  // from is both exit and entry border: pure intra tail
                const RowCell& c = stv.rows[node_local_[b2]][lv];
                choice = Hop{c.next, c.link};
            }
        }
    }
    return choice;
}

Network::Hop Network::hop_toward(std::uint32_t from, std::uint32_t to) {
    // No finalized_ check here: the traffic entry points enforce it, and
    // in-flight deliveries must keep forwarding on the (stale) tables after
    // a mid-run add_link.
    if (from == to) return Hop{};
    // Same-site next hops come straight from the intra-site rows; only
    // cross-site compositions go through the LRU path cache.
    if (node_site_[from] == node_site_[to]) return compose_hop(from, to);

    const std::uint64_t key = path_key(from, to);
    auto it = path_cache_.find(key);
    if (it != path_cache_.end()) {
        path_cache_hits_->inc();
        path_lru_.splice(path_lru_.begin(), path_lru_, it->second.lru);
        return it->second.hop;
    }
    path_cache_misses_->inc();
    const Hop hop = compose_hop(from, to);
    path_lru_.push_front(key);
    path_cache_.emplace(key, PathEntry{hop, path_lru_.begin()});
    if (path_cache_capacity_ != 0 && path_cache_.size() > path_cache_capacity_) {
        path_cache_.erase(path_lru_.back());
        path_lru_.pop_back();
    }
    return hop;
}

void Network::clear_path_cache() {
    path_cache_.clear();
    path_lru_.clear();
}

NodeId Network::next_hop(NodeId from, NodeId to) {
    if (index(from) >= node_site_.size() || index(to) >= node_site_.size())
        throw std::logic_error("Network::next_hop: node unknown to the last finalize()");
    if (from == to) return kNoNode;
    const Hop h = compose_hop(static_cast<std::uint32_t>(index(from)),
                              static_cast<std::uint32_t>(index(to)));
    return h.link != nullptr ? NodeId{h.next + 1} : kNoNode;
}

std::uint64_t Network::routing_table_hash() {
    Fnv1a hash;
    auto mix = [&hash](std::uint64_t v) { hash.feed_u64(v); };
    auto mix_link = [&mix](const Link* l) {
        mix(l != nullptr ? (static_cast<std::uint64_t>(l->from().value()) << 32) |
                               l->to().value()
                         : 0);
    };
    for (std::size_t s = 0; s < site_tables_.size(); ++s) {
        SiteTable& t = site_tables_[s];
        const std::size_t m = t.size();
        mix(m);
        for (const std::uint32_t v : t.nodes) mix(v);
        for (const std::uint32_t v : t.borders) mix(v);
        for (std::size_t l = 0; l < m; ++l) {
            ensure_row(static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(l));
            const RowCell* row = t.rows[l].get();
            for (std::size_t j = 0; j < m; ++j) {
                mix(static_cast<std::uint64_t>(row[j].dist));
                mix(row[j].next);
                mix_link(row[j].link);
            }
        }
    }
    for (const std::uint32_t v : border_nodes_) mix(v);
    for (const std::uint8_t v : border_down_) mix(v);
    for (const std::int64_t v : bb_dist_) mix(static_cast<std::uint64_t>(v));
    for (const std::uint32_t v : bb_next_node_) mix(v);
    for (const Link* l : bb_next_link_) mix_link(l);
    return hash.h;
}

// ---------------------------------------------------------------------------
// Membership & tree-cache bookkeeping
// ---------------------------------------------------------------------------

Network::GroupRec* Network::find_group(GroupId group) {
    auto it = std::lower_bound(
        groups_.begin(), groups_.end(), group,
        [](const GroupRec& g, GroupId id) { return g.id.value() < id.value(); });
    return (it != groups_.end() && it->id == group) ? &*it : nullptr;
}

void Network::join(GroupId group, NodeId node) {
    auto it = std::lower_bound(
        groups_.begin(), groups_.end(), group,
        [](const GroupRec& g, GroupId id) { return g.id.value() < id.value(); });
    if (it == groups_.end() || it->id != group)
        it = groups_.insert(it, GroupRec{group, {}});
    std::vector<NodeId>& members = it->members;
    // Members stay sorted ascending (the former std::set iteration order).
    // Scenario wiring joins in ascending node order, so the common case is
    // an O(1) append.
    if (members.empty() || members.back() < node) {
        members.push_back(node);
    } else {
        auto mit = std::lower_bound(members.begin(), members.end(), node);
        if (mit == members.end() || *mit != node) members.insert(mit, node);
    }
    invalidate_trees_for(group);
}

void Network::leave(GroupId group, NodeId node) {
    if (GroupRec* g = find_group(group)) {
        auto mit = std::lower_bound(g->members.begin(), g->members.end(), node);
        if (mit != g->members.end() && *mit == node) g->members.erase(mit);
    }
    invalidate_trees_for(group);
}

void Network::invalidate_trees_for(GroupId group) {
    for (auto it = mcast_cache_.begin(); it != mcast_cache_.end();) {
        if ((it->first >> 32) == group.value()) {
            for (TreeSlot& slot : it->second) {
                if (slot.tree) {
                    tree_lru_.erase(slot.lru);
                    slot.tree.reset();
                    --cached_trees_;
                }
            }
            it = mcast_cache_.erase(it);
        } else {
            ++it;
        }
    }
}

void Network::invalidate_all_trees() {
    mcast_cache_.clear();
    tree_lru_.clear();
    cached_trees_ = 0;
}

void Network::enforce_tree_cache_bound() {
    if (tree_cache_capacity_ == 0) return;
    while (cached_trees_ > tree_cache_capacity_) {
        const TreeRef victim = tree_lru_.back();
        tree_lru_.pop_back();
        auto it = mcast_cache_.find(victim.key);
        auto& by_scope = it->second;
        by_scope[victim.scope].tree.reset();
        --cached_trees_;
        const bool empty = std::none_of(by_scope.begin(), by_scope.end(),
                                        [](const TreeSlot& s) { return bool(s.tree); });
        if (empty) mcast_cache_.erase(it);
    }
}

void Network::set_tree_cache_capacity(std::size_t capacity) {
    tree_cache_capacity_ = capacity;
    enforce_tree_cache_bound();
}

std::size_t Network::tree_cache_bytes() const {
    std::size_t total = 0;
    for (const auto& [key, by_scope] : mcast_cache_) {
        total += sizeof(key) + sizeof(by_scope) + 16;  // node + bucket overhead
        for (const TreeSlot& slot : by_scope)
            if (slot.tree) total += slot.tree->bytes() + sizeof(TreeRef) + 16;
    }
    return total;
}

SimHost& Network::attach_host(NodeId node) {
    const std::size_t i = index(node);
    if (node_host_.size() < node_count()) node_host_.resize(node_count(), nullptr);
    if (node_host_[i] == nullptr)
        node_host_[i] = &host_arena_.emplace_back(*this, simulator_, node);
    return *node_host_[i];
}

SimHost* Network::host(NodeId node) {
    const std::size_t i = index(node);
    return i < node_host_.size() ? node_host_[i] : nullptr;
}

void Network::deliver_local(NodeId node, const Packet& packet) {
    const std::size_t i = index(node);
    if (node_down_[i] != 0) return;
    SimHost* h = i < node_host_.size() ? node_host_[i] : nullptr;
    if (h != nullptr) {
        deliveries_made_->inc();
        h->deliver(simulator_.now(), packet);
    }
}

// ---------------------------------------------------------------------------
// Link burst batching (DESIGN.md "Link burst batching")
// ---------------------------------------------------------------------------

void Network::schedule_arrival(Link* l, bool was_busy, TimePoint arrival,
                               DeliveryBase* d, std::uint32_t hop, ArrivalKind kind) {
    if (!was_busy) {
        simulator_.schedule_at(arrival,
                               [d, hop, kind] { dispatch_arrival(d, hop, kind); });
        return;
    }
    // The packet queued behind earlier traffic: park the arrival in the
    // link's FIFO under the tiebreak an immediate schedule would have used,
    // so the drain event fires it at the exact (time, order) position of
    // the unbatched path.
    batched_arrivals_->inc();
    const std::uint64_t tiebreak = simulator_.reserve_tiebreak();
    if (l->drain_slot() == 0)
        l->set_drain_slot(simulator_.create_recurring([this, l] { drain_link(l); }));
    l->push_pending(arrival, tiebreak, d, hop, static_cast<std::uint8_t>(kind));
    if (!l->drain_armed()) {
        l->set_drain_armed(true);
        simulator_.arm_recurring(l->drain_slot(), arrival, tiebreak);
    }
}

void Network::drain_link(Link* l) {
    if (!l->drain_armed() || !l->has_pending()) return;
    batch_drains_->inc();
    const Link::PendingArrival entry = l->pop_pending();
    // Re-arm for the next pending arrival *before* resuming the delivery:
    // it may transmit on this same link, and any arrival it parks is later
    // than everything already in the FIFO (the busy horizon only moves
    // forward), so the FIFO stays sorted and the armed entry is always the
    // head.
    if (l->has_pending()) {
        const Link::PendingArrival& next = l->front_pending();
        simulator_.arm_recurring(l->drain_slot(), next.at, next.tiebreak);
    } else {
        l->set_drain_armed(false);
    }
    dispatch_arrival(static_cast<DeliveryBase*>(entry.delivery), entry.hop,
                     static_cast<ArrivalKind>(entry.kind));
}

// ---------------------------------------------------------------------------
// Unicast
// ---------------------------------------------------------------------------

struct Network::UnicastDelivery final : DeliveryBase {
    UnicastDelivery(Network& n, const Packet& p, std::uint32_t to_index)
        : DeliveryBase(n), packet(p), bytes(encoded_size(p)), type(p.type()),
          to(to_index), hops_left(static_cast<std::uint32_t>(n.node_count())) {}

    Packet packet;
    std::size_t bytes;
    PacketType type;
    std::uint32_t to;         ///< destination node index
    std::uint32_t hops_left;  ///< loop guard (see forward_unicast)
};

// Delivery records come from the burst-scoped bump arena when enabled (the
// flag is sampled per record, so a mid-run toggle leaves in-flight records
// on their original backing).
template <typename T, typename... Args>
T* Network::make_delivery(Args&&... args) {
    if (!arena_enabled_) return new T(std::forward<Args>(args)...);
    void* p = delivery_arena_.allocate(sizeof(T), alignof(T));
    T* d = new (p) T(std::forward<Args>(args)...);
    d->arena_backed = true;
    return d;
}

void Network::unicast(NodeId from, NodeId to, const Packet& packet) {
    if (node_down_[index(from)] != 0) return;
    if (from != to && !finalized_)
        throw std::logic_error("Network: finalize() before sending traffic");
    unicast_sends_->inc();
    auto* d = make_delivery<UnicastDelivery>(*this, packet,
                                             static_cast<std::uint32_t>(index(to)));
    track(d);
    if (from == to) {  // local delivery without touching the network
        simulator_.schedule_in(Duration::zero(), [d, at = d->to] {
            dispatch_arrival(d, at, ArrivalKind::kUnicast);
        });
        return;
    }
    forward_unicast(d, static_cast<std::uint32_t>(index(from)));
}

void Network::forward_unicast(UnicastDelivery* d, std::uint32_t at) {
    // Loop guard: any consistent table walk reaches its destination within
    // n-1 hops, but a mid-flight re-finalize can mix hops from the old and
    // new tables into a cycle, so the budget caps the walk (build_tree has
    // the same guard on its path collection).
    if (d->hops_left == 0) {
        destroy(d);
        return;
    }
    --d->hops_left;
    const Hop h = hop_toward(at, d->to);
    if (h.link == nullptr) {  // unreachable
        destroy(d);
        return;
    }
    const bool was_busy = batching_enabled_ && h.link->busy(simulator_.now());
    auto arrival = h.link->transmit(tx_rng(), simulator_.now(), d->bytes, d->type);
    if (tap_) tap_(simulator_.now(), *h.link, d->packet, arrival.has_value());
    if (!arrival) {
        destroy(d);
        return;
    }
    if (!owns_node(h.next)) {
        // The packet leaves this shard: the transmit above already did the
        // local half (link accounting, loss roll, tap -- the link belongs
        // to the sending node's shard), so ship the arrival with the key an
        // immediate schedule would have used and retire the local record.
        // Busy-parking is irrelevant here: every arrival on this link
        // targets the same (remote) node, so nothing local interleaves.
        RemoteEvent ev;
        ev.at = *arrival;
        ev.key = simulator_.reserve_tiebreak();
        ev.kind = RemoteEvent::kUnicast;
        ev.target_shard = shard_of_node(h.next);
        ev.packet = d->packet;
        ev.to = d->to;
        ev.entry_node = h.next;
        ev.hops_left = d->hops_left;
        remote_emits_->inc();
        remote_sink_(std::move(ev));
        destroy(d);
        return;
    }
    schedule_arrival(h.link, was_busy, *arrival, d, h.next, ArrivalKind::kUnicast);
}

void Network::unicast_arrive(UnicastDelivery* d, std::uint32_t at) {
    if (node_down_[at] != 0) {
        destroy(d);
        return;
    }
    if (at == d->to) {
        deliver_local(NodeId{at + 1}, d->packet);
        destroy(d);
        return;
    }
    forward_unicast(d, at);
}

// ---------------------------------------------------------------------------
// Multicast
// ---------------------------------------------------------------------------

struct Network::TreeDelivery final : DeliveryBase {
    TreeDelivery(Network& n, std::shared_ptr<const CachedTree> t, const Packet& p,
                 McastScope sc)
        : DeliveryBase(n), tree(std::move(t)), packet(p), bytes(encoded_size(p)),
          type(p.type()), scope(sc) {}

    std::shared_ptr<const CachedTree> tree;  ///< pins the tree across invalidation
    Packet packet;
    std::size_t bytes;
    PacketType type;
    McastScope scope;           ///< carried so remote segments can re-resolve
    std::uint32_t pending = 1;  ///< outstanding events + the sending frame
};

std::shared_ptr<const Network::CachedTree> Network::build_tree(
    NodeId from, const std::vector<NodeId>& members, McastScope scope) {
    LBRM_TRACE_SPAN("tree_build");
    std::chrono::steady_clock::time_point t0{};
    if constexpr (obs::kTelemetryEnabled) t0 = std::chrono::steady_clock::now();
    const std::size_t n = node_count();
    auto tree = std::make_shared<CachedTree>();

    // Scratch: node index -> tree entry slot, generation-marked.
    if (tree_mark_.size() != n) {
        tree_mark_.assign(n, 0);
        tree_slot_.assign(n, 0);
        tree_epoch_ = 0;
    }
    if (++tree_epoch_ == 0) {  // generation counter wrapped: hard reset
        std::fill(tree_mark_.begin(), tree_mark_.end(), 0u);
        tree_epoch_ = 1;
    }

    std::vector<std::pair<std::uint32_t, std::uint8_t>> entries;  // (node, member)
    std::vector<std::vector<CachedTree::Child>> kids;  // per entry, insertion order
    auto slot_of = [&](std::uint32_t node) {
        if (tree_mark_[node] != tree_epoch_) {
            tree_mark_[node] = tree_epoch_;
            tree_slot_[node] = static_cast<std::uint32_t>(entries.size());
            entries.emplace_back(node, 0);
            kids.emplace_back();
        }
        return tree_slot_[node];
    };

    const std::uint32_t from_index = static_cast<std::uint32_t>(index(from));
    slot_of(from_index);  // root = entry 0

    // Hop budget per scope: site scope is bounded by the site-containment
    // check below (a site never spans more hops than its own LAN); region
    // scope reaches adjacent sites through the backbone, up to 4 hops;
    // global scope is unbounded.
    const SiteId sender_site = site_of(from);
    const std::size_t hop_limit = scope == McastScope::kRegion
                                      ? 4u
                                      : std::numeric_limits<std::size_t>::max();

    std::vector<std::uint32_t> path;
    std::vector<Link*> path_links;
    for (NodeId member : members) {
        if (member == from || node_down_[index(member)] != 0) continue;
        if (scope == McastScope::kSite && site_of(member) != sender_site) continue;

        // Walk the route hop by hop; collect the node chain and its links.
        const std::uint32_t member_index = static_cast<std::uint32_t>(index(member));
        path.assign(1, from_index);
        path_links.clear();
        std::uint32_t at = from_index;
        bool reachable = true;
        while (at != member_index) {
            const Hop h = hop_toward(at, member_index);
            if (h.next == kNoIndex) {
                reachable = false;
                break;
            }
            path.push_back(h.next);
            path_links.push_back(h.link);
            at = h.next;
            if (path.size() > n) {
                reachable = false;  // routing loop guard
                break;
            }
        }
        if (!reachable || path.size() - 1 > hop_limit) continue;
        if (scope == McastScope::kSite) {
            bool stays = true;
            for (std::uint32_t node : path)
                if (node_site_id_[node] != sender_site) stays = false;
            if (!stays) continue;
        }

        entries[slot_of(member_index)].second = 1;
        tree->any_members = true;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const std::uint32_t parent = slot_of(path[i]);
            const std::uint32_t child = slot_of(path[i + 1]);
            auto& siblings = kids[parent];
            if (std::find_if(siblings.begin(), siblings.end(),
                             [child](const CachedTree::Child& c) {
                                 return c.entry == child;
                             }) == siblings.end())
                siblings.push_back(CachedTree::Child{child, path_links[i]});
        }
    }

    // Flatten to CSR, preserving per-node child insertion order (the
    // delivery transmit order, and hence the RNG draw order).
    tree->nodes.reserve(entries.size());
    std::size_t child_count = 0;
    for (const auto& k : kids) child_count += k.size();
    tree->children.reserve(child_count);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        CachedTree::Node node;
        node.node = entries[i].first;
        node.member = entries[i].second;
        node.child_begin = static_cast<std::uint32_t>(tree->children.size());
        tree->children.insert(tree->children.end(), kids[i].begin(), kids[i].end());
        node.child_end = static_cast<std::uint32_t>(tree->children.size());
        tree->nodes.push_back(node);
    }

    tree_builds_->inc();
    if constexpr (obs::kTelemetryEnabled) {
        tree_build_ns_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
    return tree;
}

std::shared_ptr<const Network::CachedTree> Network::resolve_tree(NodeId from,
                                                                 GroupId group,
                                                                 McastScope scope) {
    const GroupRec* g = find_group(group);
    if (g == nullptr) return nullptr;
    const std::uint64_t key = tree_key(group, from);
    auto& by_scope = mcast_cache_[key];
    TreeSlot& slot = by_scope[static_cast<std::size_t>(scope)];
    if (!slot.tree) {
        slot.tree = build_tree(from, g->members, scope);
        tree_lru_.push_front(TreeRef{key, static_cast<std::uint8_t>(scope)});
        slot.lru = tree_lru_.begin();
        ++cached_trees_;
        enforce_tree_cache_bound();  // never evicts the just-inserted head
    } else {
        tree_cache_hits_->inc();
        tree_lru_.splice(tree_lru_.begin(), tree_lru_, slot.lru);
    }
    return slot.tree;
}

void Network::multicast(NodeId from, const Packet& packet, McastScope scope) {
    if (!finalized_) throw std::logic_error("Network: finalize() before sending traffic");
    if (node_down_[index(from)] != 0) return;
    const std::shared_ptr<const CachedTree> tree =
        resolve_tree(from, packet.header.group, scope);
    if (!tree) return;
    multicast_sends_->inc();
    if (!tree->any_members) return;

    auto* d = make_delivery<TreeDelivery>(*this, tree, packet, scope);
    track(d);
    multicast_step(d, 0);  // entry 0 = the sender
    unref(d);  // drop the sending frame's reference
}

void Network::multicast_step(TreeDelivery* d, std::uint32_t at) {
    const CachedTree::Node& node = d->tree->nodes[at];
    // Per-(site, packet) delivery batching: consecutive children whose
    // copies all arrive at the same instant on idle links (the common case:
    // a site router fanning one packet out to its LAN receivers over
    // identical, idle links) share ONE event that replays the run in child
    // order, instead of one event each.  Bit-identity argument: the
    // per-child events would receive consecutive tiebreaks with nothing
    // interleaved (only this loop consumes tiebreaks, and parked/dropped
    // children flush the run first), so they would pop back to back at the
    // same instant; multicast_arrive_run processes the same children in the
    // same order at that instant.  Consuming one tiebreak instead of k
    // preserves every relative (time, seq) order, because tiebreaks are
    // compared only between equal timestamps and stay monotone.
    std::uint32_t run_begin = 0;
    std::uint32_t run_len = 0;
    TimePoint run_at = time_zero();
    auto schedule_segment = [&](TimePoint at, std::uint64_t key, std::uint32_t c0,
                                std::uint32_t n) {
        // One contiguous stretch of a run owned by this shard: holds one
        // pending reference per child, fires at the run's shared key.
        d->pending += n;
        if (n == 1) {
            const std::uint32_t hop = d->tree->children[c0].entry;
            simulator_.schedule_at_key(
                at, key, [d, hop] { dispatch_arrival(d, hop, ArrivalKind::kMulticast); });
        } else {
            batched_runs_->inc();
            simulator_.schedule_at_key(
                at, key, [d, c0, n] { d->net.multicast_arrive_run(d, c0, n); });
        }
    };
    auto flush_run = [&] {
        if (run_len == 0) return;
        if (!shard_ordering_) {
            d->pending += run_len;
            if (run_len == 1) {
                const std::uint32_t hop = d->tree->children[run_begin].entry;
                simulator_.schedule_at(run_at, [d, hop] {
                    dispatch_arrival(d, hop, ArrivalKind::kMulticast);
                });
            } else {
                batched_runs_->inc();
                simulator_.schedule_at(run_at, [d, c0 = run_begin, n = run_len] {
                    d->net.multicast_arrive_run(d, c0, n);
                });
            }
            run_len = 0;
            return;
        }
        // Shard-ordering mode: runs form ownership-blind (so the key stream
        // matches the single-process run exactly -- ONE key per run), then
        // split at flush into maximal per-shard contiguous segments that all
        // share that key.  Same-instant segments with equal keys are
        // causally independent -- they arrive at distinct nodes, so their
        // follow-on transmits touch disjoint links and distinct actor key
        // streams -- which makes their relative pop order irrelevant.
        const std::uint64_t key = simulator_.reserve_tiebreak();
        const std::uint32_t run_end = run_begin + run_len;
        std::uint32_t seg = run_begin;
        while (seg != run_end) {
            const std::uint32_t shard =
                shard_of_node(d->tree->nodes[d->tree->children[seg].entry].node);
            std::uint32_t seg_end = seg + 1;
            while (seg_end != run_end &&
                   shard_of_node(d->tree->nodes[d->tree->children[seg_end].entry]
                                     .node) == shard)
                ++seg_end;
            if (shard == shard_self_ || node_shard_.empty())
                schedule_segment(run_at, key, seg, seg_end - seg);
            else
                emit_remote_mcast(d, shard, run_at, key, seg, seg_end - seg);
            seg = seg_end;
        }
        run_len = 0;
    };
    for (std::uint32_t c = node.child_begin; c != node.child_end; ++c) {
        const CachedTree::Child& child = d->tree->children[c];
        const bool busy = child.link->busy(simulator_.now());
        auto arrival = child.link->transmit(tx_rng(), simulator_.now(), d->bytes, d->type);
        if (tap_) tap_(simulator_.now(), *child.link, d->packet, arrival.has_value());
        if (!arrival) {
            flush_run();  // a dropped child splits the contiguous run
            continue;
        }
        if (!delivery_batching_ || busy) {
            // A busy link always splits the run and takes the per-child
            // path, whether or not FIFO parking is on -- run formation must
            // not depend on the FIFO mode, or the two modes stop being
            // event-count-identical (BurstBatching tests).  FIFO parking
            // reserves the next tiebreak, so the run is emitted first to
            // keep tiebreak consumption in child order.
            flush_run();
            const std::uint32_t target = d->tree->nodes[child.entry].node;
            if (!owns_node(target)) {
                emit_remote_mcast(d, shard_of_node(target), *arrival,
                                  simulator_.reserve_tiebreak(), c, 1);
                continue;
            }
            ++d->pending;
            schedule_arrival(child.link, batching_enabled_ && busy, *arrival, d,
                             child.entry, ArrivalKind::kMulticast);
            continue;
        }
        if (run_len != 0 && *arrival == run_at) {
            ++run_len;
        } else {
            flush_run();
            run_begin = c;
            run_len = 1;
            run_at = *arrival;
        }
    }
    flush_run();
}

void Network::multicast_arrive_run(TreeDelivery* d, std::uint32_t child_begin,
                                   std::uint32_t count) {
    // Each child in the run holds one `pending` reference, so `d` (and the
    // tree it pins) outlives every iteration.
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t entry = d->tree->children[child_begin + i].entry;
        Simulator::ActorScope scope(simulator_, d->tree->nodes[entry].node);
        multicast_arrive(d, entry);
    }
}

void Network::multicast_arrive(TreeDelivery* d, std::uint32_t at) {
    const CachedTree::Node& node = d->tree->nodes[at];
    if (node_down_[node.node] == 0) {
        if (node.member) deliver_local(NodeId{node.node + 1}, d->packet);
        multicast_step(d, at);
    }
    unref(d);
}

void Network::unref(TreeDelivery* d) {
    if (--d->pending == 0) destroy(d);
}

// Defined here, after both delivery types are complete.  The ActorScope
// makes the arriving node the actor for everything the arrival handler
// schedules (actor-keyed mode; a cheap int save/restore otherwise).
void Network::dispatch_arrival(DeliveryBase* d, std::uint32_t hop, ArrivalKind kind) {
    if (kind == ArrivalKind::kMulticast) {
        auto* td = static_cast<TreeDelivery*>(d);
        Simulator::ActorScope scope(td->net.simulator_, td->tree->nodes[hop].node);
        td->net.multicast_arrive(td, hop);
    } else {
        auto* ud = static_cast<UnicastDelivery*>(d);
        Simulator::ActorScope scope(ud->net.simulator_, hop);
        ud->net.unicast_arrive(ud, hop);
    }
}

// ---------------------------------------------------------------------------
// Sharded execution (DESIGN.md "Sharded execution")
// ---------------------------------------------------------------------------

void Network::set_shard_view(std::uint32_t self, std::vector<std::uint32_t> node_shard,
                             RemoteSink sink) {
    shard_self_ = self;
    node_shard_ = std::move(node_shard);
    remote_sink_ = std::move(sink);
}

Duration Network::min_cut_propagation(
    const std::vector<std::uint32_t>& node_shard) const {
    Duration best = Duration::max();
    for (const Cable& c : cables_) {
        const std::size_t a = index(c.a), b = index(c.b);
        if (a >= node_shard.size() || b >= node_shard.size()) continue;
        if (node_shard[a] == node_shard[b]) continue;
        if (c.spec.propagation < best) best = c.spec.propagation;
    }
    return best;
}

void Network::emit_remote_mcast(TreeDelivery* d, std::uint32_t shard, TimePoint at,
                                std::uint64_t key, std::uint32_t child_begin,
                                std::uint32_t count) {
    RemoteEvent ev;
    ev.at = at;
    ev.key = key;
    ev.kind = RemoteEvent::kMulticastRun;
    ev.scope = static_cast<std::uint8_t>(d->scope);
    ev.target_shard = shard;
    ev.packet = d->packet;
    ev.tree_root = d->tree->nodes[0].node;
    ev.entry_begin = child_begin;
    ev.entry_count = count;
    remote_emits_->inc();
    remote_sink_(std::move(ev));
}

void Network::inject_remote(const RemoteEvent& ev) {
    remote_injects_->inc();
    if (ev.kind == RemoteEvent::kUnicast) {
        auto* d = make_delivery<UnicastDelivery>(*this, ev.packet, ev.to);
        d->hops_left = ev.hops_left;
        track(d);
        simulator_.schedule_at_key(ev.at, ev.key, [d, at = ev.entry_node] {
            dispatch_arrival(d, at, ArrivalKind::kUnicast);
        });
        return;
    }
    // Multicast segment: re-resolve the delivery tree from (group, root,
    // scope).  Each shard builds bit-identical trees from the shared
    // membership and finalize-time routing snapshot, so the child indices
    // the sending shard computed address the same children here.  A
    // membership or topology change while cross-shard traffic is in flight
    // can break that equivalence (the monolithic run keeps delivering on
    // the tree it captured at send time; we can only rebuild from current
    // state) -- such segments are *dropped*, exactly like packets caught in
    // flight by a routing change, and the receiver-reliable protocol
    // recovers them by NACK.  Fault-free A/B runs never hit this path
    // (sim.remote_drops stays zero; shard_test asserts it).
    const auto scope = static_cast<McastScope>(ev.scope);
    const std::shared_ptr<const CachedTree> tree =
        resolve_tree(NodeId{ev.tree_root + 1}, ev.packet.header.group, scope);
    if (!tree || tree->children.size() < ev.entry_begin + ev.entry_count) {
        remote_drops_->inc();
        return;
    }
    auto* d = make_delivery<TreeDelivery>(*this, tree, ev.packet, scope);
    track(d);
    d->pending = ev.entry_count;  // no sending frame: one reference per child
    if (ev.entry_count == 1) {
        const std::uint32_t hop = tree->children[ev.entry_begin].entry;
        simulator_.schedule_at_key(ev.at, ev.key, [d, hop] {
            dispatch_arrival(d, hop, ArrivalKind::kMulticast);
        });
    } else {
        simulator_.schedule_at_key(
            ev.at, ev.key,
            [d, c0 = ev.entry_begin, n = ev.entry_count] {
                d->net.multicast_arrive_run(d, c0, n);
            });
    }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::size_t Network::routing_table_bytes() const {
    std::size_t total = 0;
    for (const SiteTable& t : site_tables_) {
        total += t.nodes.capacity() * sizeof(std::uint32_t) +
                 t.borders.capacity() * sizeof(std::uint32_t) +
                 t.rows.capacity() * sizeof(std::unique_ptr<RowCell[]>) +
                 sizeof(SiteTable);
        for (const auto& row : t.rows)
            if (row) total += t.size() * sizeof(RowCell);
    }
    total += node_site_.capacity() * sizeof(std::uint32_t) +
             node_local_.capacity() * sizeof(std::uint32_t) +
             border_nodes_.capacity() * sizeof(std::uint32_t) +
             node_border_.capacity() * sizeof(std::uint32_t) +
             route_down_.capacity() * sizeof(std::uint8_t) +
             border_down_.capacity() * sizeof(std::uint8_t);
    total += bb_dist_.capacity() * sizeof(std::int64_t) +
             bb_next_node_.capacity() * sizeof(std::uint32_t) +
             bb_next_link_.capacity() * sizeof(Link*);
    // Path cache: entry + key + list node + hash-table overhead estimate.
    total += path_cache_.size() *
             (sizeof(std::uint64_t) * 2 + sizeof(PathEntry) + 2 * sizeof(void*) + 16);
    return total;
}

std::uint64_t Network::count_packets(PacketType type,
                                     const std::function<bool(const Link&)>& pred) const {
    std::uint64_t total = 0;
    for (const Cable& c : cables_)
        for (const Link& l : c.dir)
            if (!pred || pred(l)) total += l.stats().packets_of(type);
    return total;
}

void Network::reset_link_stats() {
    for (Cable& c : cables_)
        for (Link& l : c.dir) l.reset_stats();
}

}  // namespace lbrm::sim
