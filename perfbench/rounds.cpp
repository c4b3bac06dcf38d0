#include "rounds.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/episode.hpp"
#include "packet/packet.hpp"
#include "workload/engine.hpp"
#include "workload/stock_ticker.hpp"

namespace perfbench {

using lbrm::millis;
using lbrm::secs;
using namespace lbrm::sim;

namespace {

std::vector<Workload> make_workloads() {
    std::vector<Workload> out;

    Workload terrain;
    terrain.name = "terrain_steady";
    terrain.sites = 20;
    terrain.receivers_per_site = 50;
    terrain.loss = 0.02;
    terrain.payload_bytes = 200;
    terrain.settle = secs(3.0);
    terrain.updates = 4500;  // > the detector's 4096-seq received window
    terrain.period = millis(20);
    out.push_back(terrain);

    Workload fanout;
    fanout.name = "fanout_1e5";
    fanout.sites = 1000;
    fanout.receivers_per_site = 100;
    fanout.loss = 0.005;
    fanout.payload_bytes = 200;
    fanout.dormant = true;
    fanout.sample_interval = millis(100);
    fanout.settle = secs(3.0);
    // Few enough updates that losses of the last one (caught only by the
    // heartbeat) stay above 1% of recoveries on every seed, so the p99
    // does not flip between the two recovery modes.
    fanout.updates = 18;
    fanout.period = millis(20);
    out.push_back(fanout);

    Workload ticker;
    ticker.name = "ticker_sharded";
    ticker.sites = 200;
    ticker.receivers_per_site = 8;
    // Two regions, one per shard: the cut cables are then the 38 ms
    // region-to-backbone links, not 1 ms tail circuits, so the lockstep
    // window protocol runs one window per 38 ms of sim time and wall time
    // is not dominated by wake-ups (with tails cut, run-to-run spread of
    // deliveries_per_s was 0.27).
    ticker.sites_per_region = 100;
    ticker.loss = 0.02;
    ticker.payload_bytes = 48;
    // Every simulated millisecond is one lockstep window across the shards,
    // so a settle longer than recovery needs only adds sync-bound wall time.
    ticker.settle = secs(1.5);
    ticker.ticker = true;
    // The plan comes from --seed; the program's own random draws (acker
    // volunteering, group-size probes, loss rolls) from a fixed seed.  Left
    // to --seed they switch the run between two stat-ack regimes (see
    // README "Stat-ack regimes"), which no amount of run length averages.
    ticker.program_seed = 7;
    ticker.shards = 2;
    ticker.updates = 1200;
    ticker.symbols = 500;
    ticker.zipf_s = 1.1;
    ticker.mean_gap = millis(5);
    ticker.burst_probability = 0.05;
    ticker.burst_length = 12;
    ticker.burst_gap = millis(1);
    out.push_back(ticker);
    return out;
}

std::unique_ptr<lbrm::workload::StockTickerWorkload> make_ticker(const Workload& w) {
    lbrm::workload::StockTickerConfig cfg;
    cfg.symbols = w.symbols;
    cfg.zipf_s = w.zipf_s;
    cfg.mean_gap = w.mean_gap;
    cfg.burst_probability = w.burst_probability;
    cfg.burst_length = w.burst_length;
    cfg.burst_gap = w.burst_gap;
    cfg.payload_size = w.payload_bytes;
    return std::make_unique<lbrm::workload::StockTickerWorkload>(cfg);
}

std::uint32_t region_count(const lbrm::sim::DisTopologySpec& t) {
    return t.sites_per_region == 0 ? 0 : (t.sites + t.sites_per_region - 1) / t.sites_per_region;
}

/// Node ids as make_dis_topology assigns them, computed from the spec alone:
/// backbone, source router, source, primary, replicas, a router and a logger
/// per region, then per site its router, its secondary logger and its
/// receivers.
lbrm::NodeId receiver_node(const lbrm::sim::DisTopologySpec& t, std::uint32_t site,
                     std::uint32_t h) {
    const std::uint32_t first_site = 5 + t.replicas + 2 * region_count(t);
    const std::uint32_t per_site = 2 + t.receivers_per_site;
    return lbrm::NodeId{first_site + site * per_site + 2 + h};
}

std::size_t data_wire_size(std::size_t payload_bytes) {
    lbrm::Packet p;
    p.body = lbrm::DataBody{lbrm::SeqNum{1}, lbrm::EpochId{0},
                            std::vector<std::uint8_t>(payload_bytes)};
    return lbrm::encoded_size(p);
}

OracleCounters& slot_counters(SharedRegion& region, const OracleSpec& spec,
                              std::uint32_t slot) {
    const OracleLayout layout(spec);
    return reinterpret_cast<OracleCounters*>(region.bytes() + layout.counters_off)[slot];
}

/// Everything a round installs before start(), identical on every shard:
/// feed loss, the ticker's pre-scheduled updates, and two probe events that
/// stamp wall/CPU clocks at the first and last simulated instant.  The
/// ticker plan is drawn and rendered here, inside each shard's build, as a
/// sharded workload engine would; the oracle's copy is drawn separately.
void prepare(DisScenario& sc, const Workload& w, std::uint64_t seed, OracleCounters* probe,
             TimePoint end) {
    install_feed_loss(sc.network(), sc.topology(), w);
    if (w.ticker) {
        sc.schedule_update(kFirstUpdate, make_payload(seed, 0, w.payload_bytes));
        sc.schedule_update(kSecondUpdate, make_payload(seed, 1, w.payload_bytes));
        TickerPlan plan = draw_ticker_plan(w, seed);
        for (std::size_t i = 0; i < plan.items.size(); ++i)
            sc.schedule_update(plan.at[i], std::move(plan.payloads[i]));
    }
    if (probe == nullptr) return;
    Simulator& sim = sc.simulator();
    Simulator::ActorScope scope(sim, Simulator::kScenarioActor);
    sim.schedule_at(lbrm::time_zero(), [probe] {
        probe->go_wall_ns = wall_ns();
        probe->go_cpu_ns = cpu_ns();
    });
    sim.schedule_at(end - Duration{1}, [probe, &sc] {
        probe->end_wall_ns = wall_ns();
        probe->end_cpu_ns = cpu_ns();
        probe->data_link_packets =
            sc.network().count_packets(lbrm::PacketType::kData, [](const Link&) { return true; });
        probe->link_bytes = sc.metrics().value("sim.link_bytes");
    });
}

/// Checks shared by both round kinds; fills the derived statistics.
void finish(RoundResult& r, const Workload& w, const OracleSpec& spec, SharedRegion& region,
            std::uint64_t data_link_packets, std::uint64_t link_bytes) {
    r.verdict = judge(spec, region);
    const OracleVerdict& v = r.verdict;
    const auto counter = [&](const char* name) {
        const auto it = r.counters.find(name);
        return it == r.counters.end() ? 0.0 : it->second;
    };
    const double delivered = static_cast<double>(v.delivered_ok);
    if (v.delivered_ok == 0) r.problems.push_back("no delivery passed the oracle");
    const double data_bytes =
        static_cast<double>(data_link_packets) * static_cast<double>(data_wire_size(w.payload_bytes));
    r.overhead_bytes_per_delivery =
        delivered > 0 ? (static_cast<double>(link_bytes) - data_bytes) / delivered : 0.0;
    r.recovery_p50_ms = quantile_sorted(v.recovered_latency_ns, 0.50) * 1e-6;
    r.recovery_p99_ms = quantile_sorted(v.recovered_latency_ns, 0.99) * 1e-6;

    if (v.totals.sends != spec.updates) r.problems.push_back("source sent a different update count");
    if (counter("proto.receiver.delivered") != static_cast<double>(v.totals.deliveries))
        r.problems.push_back("program delivery count != oracle count");
    const double opened = counter("recovery.episodes_opened");
    const double repaired = counter("recovery.episodes_repaired");
    const double abandoned = counter("recovery.episodes_abandoned");
    const double open = counter("recovery.episodes_open");
    if (opened != repaired + abandoned + open) r.problems.push_back("episode accounting unbalanced");
    if (open != 0.0) r.problems.push_back("recovery episodes still open after settle");
    if (!v.only_named_failures()) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "oracle: %llu failed ops, %llu named fault; dup %llu corrupt %llu early %llu "
                      "stray %llu send_mismatch %llu",
                      static_cast<unsigned long long>(v.failed),
                      static_cast<unsigned long long>(v.named_fault),
                      static_cast<unsigned long long>(v.totals.duplicates),
                      static_cast<unsigned long long>(v.totals.corrupt),
                      static_cast<unsigned long long>(v.totals.too_early),
                      static_cast<unsigned long long>(v.totals.stray),
                      static_cast<unsigned long long>(v.totals.send_mismatch));
        r.problems.push_back(buf);
    }
}

std::map<std::string, double> flatten(lbrm::obs::Metrics& m) {
    (void)m.episodes();  // materialise the recovery.* rows
    std::map<std::string, double> out;
    for (const auto& s : m.snapshot()) out.emplace(s.name, s.value);
    return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = make_workloads();
    return all;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

TickerPlan draw_ticker_plan(const Workload& w, std::uint64_t seed) {
    // A fixed item count (not a horizon), so every seed attempts the same
    // number of operations per round.
    TickerPlan plan;
    auto ticker = make_ticker(w);
    lbrm::Rng rng = lbrm::workload::WorkloadEngine::stream_rng(seed, 0);
    TimePoint at = stream_marks(w).plan_start;
    for (std::uint32_t i = 0; i < w.updates; ++i) {
        plan.items.push_back(ticker->next(rng));
        const auto& item = plan.items.back();
        at += item.gap;
        plan.at.push_back(at);
        plan.payloads.push_back(ticker->render(item));
    }
    return plan;
}

ScenarioConfig scenario_config(const Workload& w, std::uint64_t seed) {
    ScenarioConfig cfg;
    cfg.topology.sites = w.sites;
    cfg.topology.receivers_per_site = w.receivers_per_site;
    cfg.topology.sites_per_region = w.sites_per_region;
    cfg.seed = w.program_seed != 0 ? w.program_seed : seed;
    cfg.sim.tree_cache_capacity = 64;
    cfg.dormant_receivers = w.dormant;
    return cfg;
}

OracleSpec make_spec(const Workload& w, std::uint64_t seed) {
    OracleSpec s;
    s.receivers = w.receivers();
    const ScenarioConfig cfg = scenario_config(w, seed);
    const lbrm::sim::DisTopologySpec& t = cfg.topology;
    // Counted here rather than with dis_topology_size(), which leaves out
    // one of the four source-site nodes.
    const std::size_t nodes = 4 + t.replicas + 2 * region_count(t) +
                              std::size_t{w.sites} * (2 + w.receivers_per_site);
    s.node_rx.assign(nodes, OracleSpec::kNoReceiver);
    for (std::uint32_t site = 0; site < w.sites; ++site)
        for (std::uint32_t h = 0; h < w.receivers_per_site; ++h)
            s.node_rx.at(receiver_node(t, site, h).value() - 1) = site * w.receivers_per_site + h;
    // Source -> source router (LAN) -> backbone [-> region router] -> site
    // router (tail) -> receiver (LAN): the propagation floor of every
    // delivery.
    s.min_path = t.lan_delay + t.backbone_delay + t.tail_delay + t.lan_delay;
    if (region_count(t) > 0) s.min_path += t.backbone_delay;
    s.fault_rx_begin = w.probe_site() * w.receivers_per_site;
    s.fault_rx_end = s.fault_rx_begin + w.receivers_per_site;
    s.slots = w.shards;

    if (w.ticker) {
        // Updates 1 and 2 are the benchmark's fixed anchors; the drawn
        // ticker plan follows from stream_marks().plan_start.
        s.payloads.push_back(make_payload(seed, 0, w.payload_bytes));
        s.payloads.push_back(make_payload(seed, 1, w.payload_bytes));
        s.send_at = {kFirstUpdate, kSecondUpdate};
        TickerPlan plan = draw_ticker_plan(w, seed);
        for (std::size_t i = 0; i < plan.items.size(); ++i) {
            s.payloads.push_back(std::move(plan.payloads[i]));
            s.send_at.push_back(plan.at[i]);
        }
    } else {
        if (w.period != kSecondUpdate - kFirstUpdate)
            throw std::logic_error("fixed streams must put update 2 at kSecondUpdate");
        for (std::uint32_t u = 0; u < w.updates; ++u) {
            s.payloads.push_back(make_payload(seed, u, w.payload_bytes));
            s.send_at.push_back(kFirstUpdate + w.period * u);
        }
    }
    s.updates = static_cast<std::uint32_t>(s.payloads.size());
    s.latency_capacity = s.operations() / 8 + 1024;
    return s;
}

void install_feed_loss(Network& net, const DisTopology& topo, const Workload& w) {
    const StreamMarks m = stream_marks(w);
    for (std::size_t i = 0; i < topo.sites.size(); ++i) {
        const bool probe = i == w.probe_site();
        const DisTopology::Region* region = topo.region_of_site(i);
        net.set_loss(region != nullptr ? region->router : topo.backbone, topo.sites[i].router,
                     std::make_unique<ScheduledLoss>(w.loss, m.loss_on,
                                                     probe ? m.drop_begin : TimePoint{},
                                                     probe ? m.drop_end : TimePoint{}));
    }
}

TimePoint round_end(const Workload& w, const OracleSpec& spec) {
    return spec.send_at.back() + w.settle;
}

RoundResult run_round_inprocess(const Workload& w, std::uint64_t seed, const OracleSpec& spec,
                                SharedRegion& region, bool digest, bool shard_ordering,
                                const RoundHooks& hooks) {
    region.clear();
    RoundResult r;
    const TimePoint end = round_end(w, spec);
    ScenarioConfig cfg = scenario_config(w, seed);
    cfg.sim.shard_ordering = shard_ordering;
    cfg.observer = std::make_shared<OracleObserver>(spec, region, 0);
    OracleCounters& probe = slot_counters(region, spec, 0);

    const std::uint64_t t0 = wall_ns();
    auto sc = std::make_unique<DisScenario>(cfg);
    const std::uint64_t t1 = wall_ns();
    prepare(*sc, w, seed, w.ticker ? &probe : nullptr, end);
    if (digest)
        sc->network().set_tap([&r](TimePoint at, const Link& l, const lbrm::Packet& p,
                                   bool delivered) { r.digest.add(at, l, p, delivered); });
    r.has_digest = digest;
    if (hooks.after_construct) hooks.after_construct(*sc);
    const std::uint64_t t2 = wall_ns();
    if (w.sample_interval > Duration::zero()) sc->start_sampling(w.sample_interval);
    sc->start();
    const std::uint64_t t3 = wall_ns();
    r.construct_s = static_cast<double>(t1 - t0) * 1e-9;
    r.start_s = static_cast<double>(t3 - t2) * 1e-9;
    r.setup_s = static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-9;
    if (hooks.span) {
        hooks.span("construct", t0, t1);
        hooks.span("start", t2, t3);
    }

    const std::uint64_t c0 = cpu_ns();
    std::uint64_t chunk_begin = wall_ns();
    const std::uint64_t w0 = chunk_begin;
    if (w.ticker) {
        sc->run_until(end);
    } else {
        for (std::uint32_t u = 0; u < spec.updates; ++u) {
            sc->run_until(spec.send_at[u]);
            sc->send_update(spec.payloads[u]);
            if (hooks.span && (u + 1) % 500 == 0) {
                const std::uint64_t now = wall_ns();
                hooks.span("traffic_chunk", chunk_begin, now);
                chunk_begin = now;
            }
        }
        if (hooks.span) {
            const std::uint64_t now = wall_ns();
            hooks.span("traffic_chunk", chunk_begin, now);
            chunk_begin = now;
        }
        sc->run_until(end);
    }
    const std::uint64_t w1 = wall_ns();
    const std::uint64_t c1 = cpu_ns();
    if (hooks.span) hooks.span(w.ticker ? "traffic" : "settle", chunk_begin, w1);
    r.traffic_wall_s = static_cast<double>(w1 - w0) * 1e-9;
    r.traffic_cpu_s = static_cast<double>(c1 - c0) * 1e-9;
    r.peak_rss_mib = peak_rss_mib();

    // The topology must be the one the oracle derived from the spec.
    for (std::size_t s = 0; s < sc->topology().sites.size(); ++s)
        for (std::size_t h = 0; h < sc->topology().sites[s].receivers.size(); ++h)
            if (sc->topology().sites[s].receivers[h] !=
                receiver_node(cfg.topology, static_cast<std::uint32_t>(s),
                              static_cast<std::uint32_t>(h)))
                r.problems.push_back("topology node ids differ from the oracle's");

    r.counters = flatten(sc->metrics());
    const std::uint64_t data_packets = sc->network().count_packets(
        lbrm::PacketType::kData, [](const Link&) { return true; });
    const std::uint64_t link_bytes = sc->metrics().value("sim.link_bytes");
    if (hooks.before_destroy) hooks.before_destroy(*sc);
    sc->network().set_tap({});
    sc.reset();
    finish(r, w, spec, region, data_packets, link_bytes);
    return r;
}

RoundResult run_round_sharded(const Workload& w, std::uint64_t seed, const OracleSpec& spec,
                              SharedRegion& region, bool unsharded) {
    region.clear();
    RoundResult r;
    const TimePoint end = round_end(w, spec);
    ShardRunConfig rc;
    rc.scenario = scenario_config(w, seed);
    rc.shards = w.shards;
    rc.run_for = end - lbrm::time_zero();
    rc.make_observer = [&spec, &region](std::uint32_t shard) {
        return std::make_shared<OracleObserver>(spec, region, shard);
    };
    rc.setup = [&w, seed, &spec, &region, end](DisScenario& sc, std::uint32_t shard) {
        prepare(sc, w, seed, &slot_counters(region, spec, shard), end);
    };

    const std::uint64_t t0 = wall_ns();
    const std::uint64_t c0 = cpu_ns();
    r.shard = unsharded ? run_unsharded(rc) : run_sharded_processes(rc);
    const std::uint64_t c1 = cpu_ns();

    std::uint64_t go = ~std::uint64_t{0}, stop = 0, child_cpu = 0, data_packets = 0,
                  link_bytes = 0;
    for (std::uint32_t s = 0; s < w.shards; ++s) {
        const OracleCounters& c = slot_counters(region, spec, s);
        if (c.go_wall_ns == 0 || c.end_wall_ns == 0) {
            if (!unsharded) r.problems.push_back("a shard never reached its end probe");
            continue;
        }
        go = std::min(go, c.go_wall_ns);
        stop = std::max(stop, c.end_wall_ns);
        child_cpu += c.end_cpu_ns - c.go_cpu_ns;
        data_packets += c.data_link_packets;
        link_bytes += c.link_bytes;
    }
    if (unsharded) {
        // run_unsharded runs in this process: slot 0 holds everything.
        const OracleCounters& c = slot_counters(region, spec, 0);
        go = c.go_wall_ns;
        stop = c.end_wall_ns;
        child_cpu = 0;
        data_packets = c.data_link_packets;
        link_bytes = c.link_bytes;
    }
    r.setup_s = static_cast<double>(go - t0) * 1e-9;
    r.traffic_wall_s = static_cast<double>(stop - go) * 1e-9;
    // Children's traffic CPU plus everything the coordinator burned.
    r.traffic_cpu_s = static_cast<double>(child_cpu + (c1 - c0)) * 1e-9;
    if (unsharded) r.traffic_cpu_s = static_cast<double>(c1 - c0) * 1e-9;
    r.peak_rss_mib = peak_rss_mib();
    for (std::uint64_t kb : r.shard.peak_rss_kb) r.peak_rss_mib += static_cast<double>(kb) / 1024.0;
    r.digest = r.shard.digest;
    r.has_digest = true;
    r.counters = r.shard.counters;
    if (r.shard.remote_drops != 0) r.problems.push_back("cross-shard arrivals were dropped");
    finish(r, w, spec, region, data_packets, link_bytes);
    return r;
}

}  // namespace perfbench
