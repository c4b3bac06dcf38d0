// The traced run (see layers.hpp).
//
// One round runs with a capture tap on every link: it samples wire packets
// for the codec, records every arrival at one receiver and at that
// receiver's site logger, the source's data packets, and the peak event
// queue depth.  After the round the captured inputs are replayed through
// each layer's public functions on fresh instances, timed with the
// steady clock.  Counts come from the round's own registry, so they equal
// the untraced rounds' exactly.
#include "layers.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>

#include "core/log_store.hpp"
#include "core/logger.hpp"
#include "core/loss_detector.hpp"
#include "core/receiver.hpp"
#include "core/sender.hpp"
#include "packet/packet.hpp"
#include "runtime/protocol_host.hpp"
#include "runtime/services.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/sim_host.hpp"
#include "sim/topology.hpp"

namespace perfbench {

using namespace lbrm;
using namespace lbrm::sim;

namespace {

// --- spans -------------------------------------------------------------------

struct Span {
    std::string name;
    std::string cat;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
};

class Spans {
public:
    explicit Spans(std::uint64_t origin) : origin_(origin) {}
    void add(std::string name, std::string cat, std::uint64_t b, std::uint64_t e) {
        spans_.push_back({std::move(name), std::move(cat), b, e});
    }
    /// Time `fn` as one span; returns its duration in ns.
    template <typename Fn>
    std::uint64_t time(const std::string& name, Fn&& fn) {
        const std::uint64_t b = wall_ns();
        fn();
        const std::uint64_t e = wall_ns();
        add(name, "replay", b, e);
        return e - b;
    }
    [[nodiscard]] bool write_chrome(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return false;
        out << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                          s.name.c_str(), s.cat.c_str(),
                          static_cast<double>(s.begin_ns - origin_) * 1e-3,
                          static_cast<double>(s.end_ns - s.begin_ns) * 1e-3,
                          i + 1 == spans_.size() ? "" : ",");
            out << buf;
        }
        out << "], \"displayTimeUnit\": \"ms\"}\n";
        return static_cast<bool>(out);
    }

private:
    std::uint64_t origin_;
    std::vector<Span> spans_;
};

// --- capture -------------------------------------------------------------------

struct Arrival {
    TimePoint at;
    Packet packet;
};

struct Capture {
    NodeId source, primary, receiver, logger;
    std::set<NodeId> loggers;          ///< every logger node (primary, replicas, secondaries)
    std::vector<std::uint8_t> is_receiver;  ///< by node index
    std::vector<Packet> codec_sample;
    std::uint64_t codec_seen = 0;
    std::vector<Arrival> at_receiver;  ///< arrivals at `receiver`
    std::vector<Arrival> at_logger;    ///< arrivals at `logger` (its site's secondary)
    std::vector<Arrival> source_data;  ///< the source's data packets, first hop
    std::uint64_t receiver_arrivals = 0;  ///< packets arriving at any receiver
    std::uint64_t logger_arrivals = 0;    ///< packets arriving at any logger
    std::size_t peak_pending = 0;
    TraceDigest digest;                ///< must equal the reference round's
    ScenarioConfig config;
    std::vector<NodeId> members;       ///< group members, for the network replay
};

constexpr std::size_t kCodecSample = 50000;
constexpr std::uint64_t kCodecStride = 7;

void install_capture(DisScenario& sc, Capture& cap) {
    const DisTopology& topo = sc.topology();
    cap.config = sc.config();
    cap.source = topo.source;
    cap.primary = topo.primary;
    cap.receiver = topo.sites.front().receivers.front();
    cap.logger = topo.sites.front().secondary;
    cap.loggers.insert(topo.primary);
    for (NodeId r : topo.replicas) cap.loggers.insert(r);
    cap.is_receiver.assign(sc.network().node_count(), 0);
    cap.members.push_back(topo.primary);
    for (const auto& site : topo.sites) {
        cap.loggers.insert(site.secondary);
        cap.members.push_back(site.secondary);
        for (NodeId r : site.receivers) {
            cap.is_receiver[r.value() - 1] = 1;
            cap.members.push_back(r);
        }
    }
    Simulator& sim = sc.simulator();
    sc.network().set_tap([&cap, &sim](TimePoint at, const Link& l, const Packet& p,
                                      bool delivered) {
        cap.peak_pending = std::max(cap.peak_pending, sim.pending());
        cap.digest.add(at, l, p, delivered);
        if (cap.codec_seen++ % kCodecStride == 0 && cap.codec_sample.size() < kCodecSample)
            cap.codec_sample.push_back(p);
        if (l.from() == cap.source && p.type() == PacketType::kData)
            cap.source_data.push_back({at, p});
        if (!delivered) return;
        const NodeId to = l.to();
        const TimePoint arrive = at + l.spec().propagation;
        if (cap.is_receiver[to.value() - 1]) ++cap.receiver_arrivals;
        if (cap.loggers.contains(to)) ++cap.logger_arrivals;
        if (to == cap.receiver) cap.at_receiver.push_back({arrive, p});
        if (to == cap.logger) cap.at_logger.push_back({arrive, p});
    });
}

// --- stub services for the host replay ---------------------------------------------

class NullNetwork final : public NetworkService {
public:
    void send_unicast(NodeId, const Packet&) override {}
    void send_multicast(const Packet&, McastScope) override {}
    void join_group(GroupId) override {}
    void leave_group(GroupId) override {}
};

class NullTimers final : public TimerService {
public:
    void arm(std::uint32_t, TimerId, TimePoint) override {}
    void cancel(std::uint32_t, TimerId) override {}
};

// --- replay helpers -------------------------------------------------------------------

std::size_t heap_bytes() { return mallinfo2().uordblks + mallinfo2().hblkhd; }

/// Best of `reps` passes of `pass`, in ns per item.
template <typename Fn>
double best_ns_per_item(int reps, std::size_t items, Fn&& pass) {
    if (items == 0) return 0.0;
    std::uint64_t best = ~std::uint64_t{0};
    for (int r = 0; r < reps; ++r) {
        const std::uint64_t b = wall_ns();
        pass();
        best = std::min(best, wall_ns() - b);
    }
    return static_cast<double>(best) / static_cast<double>(items);
}

ReceiverConfig receiver_config(const Capture& c) {
    ReceiverConfig r;
    r.self = c.receiver;
    r.group = c.config.group;
    r.source = c.source;
    r.logger = c.logger;
    r.fallback_logger = c.primary;
    r.max_idle = c.config.max_idle;
    r.heartbeat = c.config.heartbeat;
    return r;
}

LoggerConfig logger_config(const Capture& c) {
    LoggerConfig l = c.config.logger_defaults;
    l.self = c.logger;
    l.group = c.config.group;
    l.source = c.source;
    l.role = LoggerRole::kSecondary;
    l.upstream = c.primary;
    l.initial_seq = c.config.initial_seq;
    l.remulticast_request_threshold = c.config.remulticast_request_threshold;
    return l;
}

/// The sequence number a packet proves transmitted, if it carries one.
bool seq_bearing(const Packet& p, SeqNum& seq, bool& heartbeat) {
    heartbeat = false;
    if (const auto* d = std::get_if<DataBody>(&p.body)) {
        seq = d->seq;
        return true;
    }
    if (const auto* r = std::get_if<RetransmissionBody>(&p.body)) {
        seq = r->seq;
        return true;
    }
    if (const auto* h = std::get_if<HeartbeatBody>(&p.body)) {
        seq = h->last_seq;
        heartbeat = true;
        return true;
    }
    return false;
}

double counter(const RoundResult& r, const char* name) {
    const auto it = r.counters.find(name);
    return it == r.counters.end() ? 0.0 : it->second;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

TraceOutcome run_traced(const Workload& w, std::uint64_t seed, const OracleSpec& spec,
                        SharedRegion& region, double seconds, const std::string& out_dir) {
    TraceOutcome out;
    Spans spans(wall_ns());
    Capture cap;
    double sampler_tick_us = 0.0;
    double routing_bytes = 0.0;

    // 1. The traced round.  The ticker's capture runs in one process under
    // the shard-invariant event order, which puts exactly the sharded run's
    // packets on the wire (the sharding self-test checks this).
    RoundHooks hooks;
    hooks.after_construct = [&cap](DisScenario& sc) { install_capture(sc, cap); };
    hooks.span = [&spans](const char* name, std::uint64_t b, std::uint64_t e) {
        spans.add(name, "round", b, e);
    };
    hooks.before_destroy = [&](DisScenario& sc) {
        sc.network().set_tap({});
        // Sampler cost on the final scenario: the default series, ticked
        // directly (a workload that samples already has them).
        if (w.sample_interval == Duration::zero()) sc.start_sampling(millis(100));
        sc.stop_sampling();
        constexpr int kTicks = 200;
        TimePoint t = sc.simulator().now();
        const std::uint64_t ns = spans.time("sampler.tick", [&] {
            for (int i = 0; i < kTicks; ++i) sc.sampler().tick(t += millis(1));
        });
        sampler_tick_us = static_cast<double>(ns) * 1e-3 / kTicks;
        routing_bytes = static_cast<double>(sc.metrics().value("sim.routing_table_bytes"));
    };
    const std::uint64_t traced_b = wall_ns();
    RoundResult traced = run_round_inprocess(w, seed, spec, region, false,
                                             /*shard_ordering=*/w.shards > 1, hooks);
    spans.add("traced_round", "round", traced_b, wall_ns());
    traced.digest = cap.digest;
    traced.has_digest = true;
    out.rounds.push_back(traced);

    // 2. Untraced rounds for the same span of time: the tracing overhead's
    // reference, and (ticker) the process shard runner's own figures.
    std::vector<double> untraced_wall, windows, stall, splice, cpu_max, remote_emits;
    const std::uint64_t begin = wall_ns();
    do {
        const std::uint64_t b = wall_ns();
        RoundResult r = w.shards > 1 ? run_round_sharded(w, seed, spec, region)
                                     : run_round_inprocess(w, seed, spec, region, false, false);
        spans.add("untraced_round", "round", b, wall_ns());
        untraced_wall.push_back(r.traffic_wall_s);
        if (w.shards > 1) {
            const ShardResult& s = r.shard;
            windows.push_back(static_cast<double>(s.windows));
            stall.push_back(s.stall_fraction);
            double sum = 0.0;
            for (std::uint64_t ns : s.window_splice_ns) sum += static_cast<double>(ns);
            splice.push_back(ratio(sum, static_cast<double>(s.window_splice_ns.size())));
            cpu_max.push_back(s.cpu_seconds_max_shard);
            remote_emits.push_back(static_cast<double>(s.remote_emits));
        }
        out.rounds.push_back(std::move(r));
    } while (static_cast<double>(wall_ns() - begin) * 1e-9 < seconds);
    const double untraced = median(untraced_wall);

    // 3. Replays.
    // Codec: encode and decode the sampled wire packets.
    std::vector<std::vector<std::uint8_t>> encoded(cap.codec_sample.size());
    double encode_ns = 0.0, decode_ns = 0.0;
    std::size_t decoded_ok = 0;
    spans.time("packet.codec", [&] {
        encode_ns = best_ns_per_item(3, cap.codec_sample.size(), [&] {
            for (std::size_t i = 0; i < cap.codec_sample.size(); ++i)
                encoded[i] = encode(cap.codec_sample[i]);
        });
        decode_ns = best_ns_per_item(3, encoded.size(), [&] {
            decoded_ok = 0;
            for (const auto& bytes : encoded) decoded_ok += decode(bytes).has_value() ? 1 : 0;
        });
    });
    if (decoded_ok != encoded.size()) out.rounds.front().problems.push_back("codec replay: decode failed");

    // Loss detector: the receiver's seq-bearing arrivals.
    std::vector<std::pair<TimePoint, std::pair<SeqNum, bool>>> seqs;
    for (const Arrival& a : cap.at_receiver) {
        SeqNum s{};
        bool hb = false;
        if (seq_bearing(a.packet, s, hb)) seqs.push_back({a.at, {s, hb}});
    }
    double observe_ns = 0.0, detector_bytes = 0.0;
    spans.time("loss_detector.observe", [&] {
        observe_ns = best_ns_per_item(3, seqs.size(), [&] {
            LossDetector d;
            for (const auto& [at, s] : seqs) (void)d.observe(at, s.first, s.second);
        });
        const std::size_t h0 = heap_bytes();
        auto d = std::make_unique<LossDetector>();
        for (const auto& [at, s] : seqs) (void)d->observe(at, s.first, s.second);
        detector_bytes = static_cast<double>(heap_bytes() - h0);
    });

    // Log store: the whole stream in, then lookups of every stored seq in a
    // seeded shuffled order.
    double insert_ns = 0.0, find_ns = 0.0, store_bytes = 0.0;
    spans.time("log_store", [&] {
        insert_ns = best_ns_per_item(3, spec.updates, [&] {
            LogStore store;
            for (std::uint32_t u = 0; u < spec.updates; ++u)
                store.insert(spec.send_at[u], SeqNum{u + 1}, EpochId{0}, spec.payloads[u]);
        });
        const std::size_t h0 = heap_bytes();
        auto store = std::make_unique<LogStore>();
        for (std::uint32_t u = 0; u < spec.updates; ++u)
            store->insert(spec.send_at[u], SeqNum{u + 1}, EpochId{0}, spec.payloads[u]);
        store_bytes = static_cast<double>(heap_bytes() - h0);
        std::vector<std::uint32_t> order(spec.updates);
        for (std::uint32_t u = 0; u < spec.updates; ++u) order[u] = u + 1;
        Rng rng(seed ^ 0x5eedull);
        std::shuffle(order.begin(), order.end(), rng.engine());
        std::size_t found = 0;
        find_ns = best_ns_per_item(3, order.size(), [&] {
            for (std::uint32_t s : order) found += store->find(SeqNum{s}) != nullptr;
        });
        if (found != 3 * order.size())
            out.rounds.front().problems.push_back("log store replay: lookups missed");
    });

    // Receiver core and its host: the receiver's arrivals.
    double receiver_ns = 0.0, host_ns = 0.0;
    spans.time("receiver.on_packet", [&] {
        receiver_ns = best_ns_per_item(3, cap.at_receiver.size(), [&] {
            ReceiverCore core(receiver_config(cap));
            (void)core.start(time_zero());
            for (const Arrival& a : cap.at_receiver) (void)core.on_packet(a.at, a.packet);
        });
    });
    spans.time("host.dispatch", [&] {
        host_ns = best_ns_per_item(3, cap.at_receiver.size(), [&] {
            NullNetwork net;
            NullTimers timers;
            ProtocolHost host(net, timers);
            AppHandlers h;
            h.on_data = [](TimePoint, const DeliverData&) {};
            host.add_receiver(receiver_config(cap), std::move(h));
            host.start(time_zero());
            for (const Arrival& a : cap.at_receiver) host.on_packet(a.at, a.packet);
        });
    });

    // Secondary logger: the site logger's arrivals.
    double logger_ns = 0.0;
    spans.time("logger.on_packet", [&] {
        logger_ns = best_ns_per_item(3, cap.at_logger.size(), [&] {
            LoggerCore core(logger_config(cap), seed * 31);
            (void)core.start(time_zero());
            for (const Arrival& a : cap.at_logger) (void)core.on_packet(a.at, a.packet);
        });
    });

    // Sender: every update of the stream at its planned time.
    double send_ns = 0.0;
    spans.time("sender.send", [&] {
        send_ns = best_ns_per_item(3, spec.updates, [&] {
            SenderConfig sc;
            sc.self = cap.source;
            sc.group = cap.config.group;
            sc.primary_logger = cap.primary;
            sc.heartbeat = cap.config.heartbeat;
            sc.stat_ack = cap.config.stat_ack;
            sc.initial_seq = cap.config.initial_seq;
            SenderCore core(sc);
            (void)core.start(time_zero());
            for (std::uint32_t u = 0; u < spec.updates; ++u)
                (void)core.send(spec.send_at[u], spec.payloads[u]);
        });
    });

    // Event queue at the run's peak pending depth: one schedule plus one pop
    // per step, so the depth holds.
    double queue_ns = 0.0;
    spans.time("event_queue", [&] {
        const std::size_t depth = std::max<std::size_t>(cap.peak_pending, 1);
        constexpr std::size_t kSteps = 1000000;
        queue_ns = best_ns_per_item(3, 2 * kSteps, [&] {
            EventQueue q;
            Rng rng(seed);
            std::int64_t now = 0;
            for (std::size_t i = 0; i < depth; ++i)
                q.schedule(TimePoint{Duration{now + static_cast<std::int64_t>(rng.uniform_int(0, 1000000))}}, [] {});
            for (std::size_t i = 0; i < kSteps; ++i) {
                const auto popped = q.pop();
                now = popped.at.time_since_epoch().count();
                q.schedule(TimePoint{Duration{now + static_cast<std::int64_t>(rng.uniform_int(0, 1000000))}}, [] {});
            }
        });
    });

    // Network alone: the same topology, feed loss and membership with
    // protocol-free hosts, carrying only the source's data packets.
    double network_ns = 0.0, routing_finalize_s = 0.0, replay_events = 0.0;
    spans.time("network.replay", [&] {
        Simulator sim;
        SimConfig simcfg = cap.config.sim;
        simcfg.shard_ordering = w.shards > 1;
        Network net(sim, seed, simcfg);
        const DisTopology topo = make_dis_topology(net, cap.config.topology);
        const std::uint64_t f0 = wall_ns();
        net.finalize();
        routing_finalize_s = static_cast<double>(wall_ns() - f0) * 1e-9;
        install_feed_loss(net, topo, w);
        for (NodeId m : cap.members) {
            net.join(cap.config.group, m);
            (void)net.attach_host(m);
        }
        for (const Arrival& a : cap.source_data) {
            const Packet* p = &a.packet;
            sim.schedule_at(a.at, [&net, p, src = cap.source] {
                net.multicast(src, *p, McastScope::kGlobal);
            });
        }
        const std::uint64_t b = wall_ns();
        sim.run_until(round_end(w, spec));
        const std::uint64_t e = wall_ns();
        network_ns = ratio(static_cast<double>(e - b),
                           static_cast<double>(net.metrics().value("sim.deliveries")));
        replay_events = static_cast<double>(sim.events_scheduled());
    });

    // Workload layer: drawing and rendering the ticker plan.
    double plan_ns = 0.0, workload_sends = 0.0;
    if (w.ticker) {
        std::size_t items = 0;
        spans.time("workload.plan", [&] {
            plan_ns = best_ns_per_item(3, 1, [&] { items = draw_ticker_plan(w, seed).items.size(); });
        });
        plan_ns = ratio(plan_ns, static_cast<double>(items));
        workload_sends = static_cast<double>(traced.verdict.totals.sends) - 2.0;  // minus anchors
    }

    // 4. Figures.
    const double delivered = static_cast<double>(traced.verdict.delivered_ok);
    const double host_dispatch_ns = host_ns - receiver_ns;
    // Disjoint layer times: the cores, host dispatch, the data-only network
    // (its own events included) and the event-queue work of every other
    // scheduled event (protocol timers above all).
    const double accounted_ns =
        receiver_ns * static_cast<double>(cap.receiver_arrivals) +
        logger_ns * static_cast<double>(cap.logger_arrivals) +
        send_ns * static_cast<double>(spec.updates) +
        host_dispatch_ns * static_cast<double>(cap.receiver_arrivals + cap.logger_arrivals) +
        network_ns * counter(traced, "sim.deliveries") +
        2.0 * queue_ns * std::max(0.0, counter(traced, "sim.events_scheduled") - replay_events);
    const RoundResult& t = traced;
    out.metrics = {
        {"packet.encode_ns", encode_ns, "ns"},
        {"packet.decode_ns", decode_ns, "ns"},
        {"loss_detector.observe_ns", observe_ns, "ns"},
        {"loss_detector.bytes_per_receiver", detector_bytes, "B"},
        {"proto.loss.gaps_opened", counter(t, "proto.loss.gaps_opened"), "count"},
        {"log_store.insert_ns", insert_ns, "ns"},
        {"log_store.find_ns", find_ns, "ns"},
        {"log_store.bytes", store_bytes, "B"},
        {"receiver.on_packet_ns", receiver_ns, "ns"},
        {"receiver.useful_arrivals", ratio(counter(t, "proto.receiver.delivered"),
                                           static_cast<double>(cap.receiver_arrivals)), "ratio"},
        {"proto.receiver.nacks_sent", counter(t, "proto.receiver.nacks_sent"), "count"},
        {"proto.receiver.duplicates", counter(t, "proto.receiver.duplicates"), "count"},
        {"logger.on_packet_ns", logger_ns, "ns"},
        {"logger.repairs_per_nack",
         ratio(counter(t, "proto.logger.served_unicast") + counter(t, "proto.logger.served_multicast"),
               counter(t, "proto.logger.nacks_received")), "ratio"},
        {"proto.logger.upstream_fetches", counter(t, "proto.logger.upstream_fetches"), "count"},
        {"sender.send_ns", send_ns, "ns"},
        {"proto.sender.heartbeats_sent", counter(t, "proto.sender.heartbeats_sent"), "count"},
        {"proto.stat_ack.epochs_opened", counter(t, "proto.stat_ack.epochs_opened"), "count"},
        {"host.dispatch_ns", host_dispatch_ns, "ns"},
        {"host.timer_arms_per_delivery", ratio(counter(t, "host.timers_armed"), delivered), "ratio"},
        {"sim.events_per_delivery", ratio(counter(t, "sim.events_processed"), delivered), "ratio"},
        {"event_queue.op_ns", queue_ns, "ns"},
        {"event_queue.peak_pending", static_cast<double>(cap.peak_pending), "count"},
        {"network.ns_per_delivery", network_ns, "ns"},
        {"sim.tree_cache_hit_ratio",
         ratio(counter(t, "sim.tree_cache_hits"),
               counter(t, "sim.tree_cache_hits") + counter(t, "sim.tree_builds")), "ratio"},
        {"sim.link_packets_per_delivery", ratio(counter(t, "sim.link_packets"), delivered), "ratio"},
        {"scenario.construct_s", t.construct_s, "s"},
        {"routing.finalize_s", routing_finalize_s, "s"},
        {"scenario.start_s", t.start_s, "s"},
        {"sim.routing_table_bytes", routing_bytes, "B"},
        {"shard.windows", median(windows), "count"},
        {"shard.stall_fraction", median(stall), "ratio"},
        {"shard.splice_ns_per_window", median(splice), "ns"},
        {"shard.cpu_s_max_shard", median(cpu_max), "s"},
        {"sim.remote_emits", median(remote_emits), "count"},
        {"sampler.tick_us", sampler_tick_us, "us"},
        {"workload.plan_ns_per_item", plan_ns, "ns"},
        {"workload.sends", workload_sends, "count"},
        {"trace.overhead_s", t.traffic_wall_s - untraced, "s"},
        {"trace.layer_share", ratio(accounted_ns * 1e-9, untraced), "ratio"},
    };

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/trace-" + w.name + "-" + std::to_string(seed) + ".json";
    if (!spans.write_chrome(path)) out.rounds.front().problems.push_back("could not write " + path);
    std::fprintf(stderr, "[%s] chrome trace: %s\n", w.name.c_str(), path.c_str());
    std::fprintf(stderr, "[%s] traced traffic %.3fs, untraced median %.3fs over %zu rounds\n",
                 w.name.c_str(), t.traffic_wall_s, untraced, untraced_wall.size());
    return out;
}

}  // namespace perfbench
