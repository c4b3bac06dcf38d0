// LBRM simulator benchmark: end-to-end and per-layer metrics for three
// workloads (see README.md).
//
//   lbrm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out DIR] [--commit ID]
//   lbrm_perfbench --self-test
//
// An untraced run executes one reference round (packet-trace digest on),
// then timed rounds until S seconds have passed, and prints the end-to-end
// metrics.  A traced run prints the per-layer metrics instead (layers.cpp).
// The last line of standard output is always the result object.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "rounds.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".bench_build/perfbench-out";
    std::string commit = "unknown";
    bool self_test = false;
};

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload") a.workload = value();
        else if (flag == "--seed") a.seed = std::stoull(value());
        else if (flag == "--seconds") a.seconds = std::stod(value());
        else if (flag == "--trace") a.trace = std::stoi(value()) != 0;
        else if (flag == "--out") a.out = value();
        else if (flag == "--commit") a.commit = value();
        else if (flag == "--self-test") a.self_test = true;
        else throw std::invalid_argument("unknown flag " + flag);
    }
    return a;
}

// --- self-tests ------------------------------------------------------------

/// Feed the oracle a withheld delivery, a duplicate and a corrupted byte;
/// each must count as exactly one failed operation, and only the withheld
/// first update of a fault receiver may count as the named fault.
bool oracle_self_test() {
    OracleSpec spec;
    spec.receivers = 3;
    spec.updates = 70;  // spans two bitmap words
    spec.node_rx = {OracleSpec::kNoReceiver, 0, 1, 2};
    for (std::uint32_t u = 0; u < spec.updates; ++u) {
        spec.payloads.push_back(make_payload(9, u, 16));
        spec.send_at.push_back(TimePoint{lbrm::millis(10 * u)});
    }
    spec.min_path = lbrm::millis(40);
    spec.fault_rx_begin = 2;
    spec.fault_rx_end = 3;
    spec.latency_capacity = 16;
    SharedRegion region(OracleLayout(spec).total);
    region.clear();
    OracleObserver obs(spec, region, 0);
    const auto deliver = [&](std::uint32_t rx, std::uint32_t u, bool corrupt, bool recovered,
                             lbrm::Duration delay) {
        lbrm::DeliverData d;
        d.seq = lbrm::SeqNum{u + 1};
        d.payload = spec.payloads[u];
        if (corrupt) d.payload[3] ^= 0x40;
        d.recovered = recovered;
        obs.on_delivery(spec.send_at[u] + delay, lbrm::NodeId{rx + 2}, d);
    };
    for (std::uint32_t rx = 0; rx < 3; ++rx)
        for (std::uint32_t u = 0; u < spec.updates; ++u) {
            if (rx == 0 && u == 65) continue;  // withheld
            if (rx == 2 && u == 0) continue;   // withheld: the named fault
            deliver(rx, u, rx == 2 && u == 40, u == 7, lbrm::millis(45));
        }
    deliver(1, 3, false, false, lbrm::millis(45));  // duplicate
    deliver(1, 9, false, false, lbrm::millis(1));   // duplicate and too early
    const OracleVerdict v = judge(spec, region);
    const bool ok = v.operations == 210 && v.failed == 5 && v.named_fault == 1 &&
                    v.totals.duplicates == 2 && v.totals.corrupt == 1 &&
                    v.totals.too_early == 0 && v.recovered_latency_ns.size() == 3 &&
                    !v.only_named_failures();
    // An early first delivery must fail too.
    region.clear();
    deliver(0, 5, false, false, lbrm::millis(39));
    const OracleVerdict early = judge(spec, region);
    if (!ok || early.totals.too_early != 1) {
        std::fprintf(stderr, "oracle self-test FAILED: failed=%llu named=%llu dup=%llu corrupt=%llu early=%llu\n",
                     static_cast<unsigned long long>(v.failed),
                     static_cast<unsigned long long>(v.named_fault),
                     static_cast<unsigned long long>(v.totals.duplicates),
                     static_cast<unsigned long long>(v.totals.corrupt),
                     static_cast<unsigned long long>(early.totals.too_early));
        return false;
    }
    return true;
}

/// A small ticker_sharded round split over two processes must put exactly
/// the packets of its unsharded shard-ordering twin on the wire.
bool sharding_self_test() {
    Workload w = *find_workload("ticker_sharded");
    w.sites = 8;
    w.receivers_per_site = 5;
    w.sites_per_region = 4;
    w.updates = 250;
    const OracleSpec spec = make_spec(w, 5);
    SharedRegion region(OracleLayout(spec).total);
    const RoundResult one = run_round_sharded(w, 5, spec, region, /*unsharded=*/true);
    const RoundResult two = run_round_sharded(w, 5, spec, region, /*unsharded=*/false);
    const bool ok = one.correct() && two.correct() && one.digest.same(two.digest) &&
                    one.verdict.delivered_ok == two.verdict.delivered_ok &&
                    one.verdict.failed == two.verdict.failed && one.digest.packets > 0;
    std::fprintf(stderr,
                 "sharding self-test: unsharded %016llx/%llu, 2 shards %016llx/%llu, "
                 "delivered %llu/%llu -> %s\n",
                 static_cast<unsigned long long>(one.digest.sum),
                 static_cast<unsigned long long>(one.digest.packets),
                 static_cast<unsigned long long>(two.digest.sum),
                 static_cast<unsigned long long>(two.digest.packets),
                 static_cast<unsigned long long>(one.verdict.delivered_ok),
                 static_cast<unsigned long long>(two.verdict.delivered_ok), ok ? "OK" : "FAILED");
    for (const auto* r : {&one, &two})
        for (const std::string& p : r->problems) std::fprintf(stderr, "  %s\n", p.c_str());
    return ok;
}

// --- untraced run ----------------------------------------------------------

RoundResult run_round(const Workload& w, std::uint64_t seed, const OracleSpec& spec,
                      SharedRegion& region, bool digest) {
    return w.shards > 1 ? run_round_sharded(w, seed, spec, region)
                        : run_round_inprocess(w, seed, spec, region, digest, false);
}

/// The simulated statistics of a round must repeat exactly in every round.
/// Event counts are compared only between rounds run the same way: a
/// sharded run replays cross-shard arrivals as extra events.
std::string same_simulation(const RoundResult& a, const RoundResult& b) {
    if (a.verdict.delivered_ok != b.verdict.delivered_ok) return "delivered count";
    if (a.verdict.failed != b.verdict.failed) return "failed count";
    if (a.verdict.recovered_latency_ns != b.verdict.recovered_latency_ns)
        return "recovered latencies";
    if (a.overhead_bytes_per_delivery != b.overhead_bytes_per_delivery) return "overhead bytes";
    const bool same_kind = a.shard.windows == b.shard.windows;
    for (const char* name : {"sim.link_packets", "sim.events_processed", "host.send.NACK",
                             "proto.receiver.recovered"}) {
        if (!same_kind && std::strcmp(name, "sim.events_processed") == 0) continue;
        const auto ia = a.counters.find(name);
        const auto ib = b.counters.find(name);
        if ((ia == a.counters.end()) != (ib == b.counters.end()) ||
            (ia != a.counters.end() && ia->second != ib->second))
            return name;
    }
    if (a.has_digest && b.has_digest && !a.digest.same(b.digest)) return "packet-trace digest";
    return "";
}

std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::string meta_json(const Args& a, const Workload& w, const OracleSpec& spec,
                      const RoundResult& ref, std::size_t rounds) {
    std::string s = "{\"meta\": {";
    s += "\"commit\": \"" + json_escape(a.commit) + "\"";
    s += ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) + "\"";
    s += ", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
    s += ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
    s += ", \"seed\": " + std::to_string(a.seed);
    s += ", \"program_seed\": " + std::to_string(w.program_seed != 0 ? w.program_seed : a.seed);
    s += ", \"workload\": {\"name\": \"" + w.name + "\"";
    s += ", \"sites\": " + std::to_string(w.sites);
    s += ", \"receivers_per_site\": " + std::to_string(w.receivers_per_site);
    s += ", \"sites_per_region\": " + std::to_string(w.sites_per_region);
    s += ", \"feed_loss\": " + json_number(w.loss);
    s += ", \"payload_bytes\": " + std::to_string(w.payload_bytes);
    s += ", \"updates\": " + std::to_string(spec.updates);
    s += ", \"dormant\": " + std::string(w.dormant ? "true" : "false");
    s += ", \"sampler_ms\": " + json_number(lbrm::to_seconds(w.sample_interval) * 1e3);
    s += ", \"settle_s\": " + json_number(lbrm::to_seconds(w.settle));
    s += ", \"shards\": " + std::to_string(w.shards);
    if (w.ticker) {
        s += ", \"symbols\": " + std::to_string(w.symbols);
        s += ", \"zipf_s\": " + json_number(w.zipf_s);
        s += ", \"mean_gap_ms\": " + json_number(lbrm::to_seconds(w.mean_gap) * 1e3);
        s += ", \"burst_probability\": " + json_number(w.burst_probability);
        s += ", \"burst_length\": " + std::to_string(w.burst_length);
        s += ", \"burst_gap_ms\": " + json_number(lbrm::to_seconds(w.burst_gap) * 1e3);
    } else {
        s += ", \"period_ms\": " + json_number(lbrm::to_seconds(w.period) * 1e3);
    }
    s += "}";
    s += ", \"operations_per_round\": " + std::to_string(spec.operations());
    s += ", \"rounds\": " + std::to_string(rounds);
    s += ", \"trace_digest\": \"" + hex(ref.digest.sum) + "\"";
    s += ", \"trace_packets\": " + std::to_string(ref.digest.packets);
    s += ", \"named_fault_failures_per_round\": " + std::to_string(ref.verdict.named_fault);
    // The reference round's protocol counters: simulated, so they repeat
    // exactly for a seed and show which recovery path a run took.
    s += ", \"counters\": {";
    bool first = true;
    for (const char* name :
         {"proto.receiver.delivered", "proto.receiver.recovered", "proto.receiver.nacks_sent",
          "proto.receiver.duplicates", "proto.logger.upstream_fetches",
          "proto.logger.served_unicast", "proto.logger.served_multicast",
          "proto.sender.remulticasts", "proto.sender.heartbeats_sent",
          "proto.stat_ack.epochs_opened", "proto.stat_ack.remulticast_decisions",
          "proto.stat_ack.empty_epoch_resolicits", "proto.stat_ack.packets_completed",
          "proto.stat_ack.packets_incomplete",
          "recovery.episodes_opened", "sim.link_packets", "sim.events_processed"}) {
        const auto it = ref.counters.find(name);
        s += std::string(first ? "" : ", ") + "\"" + name + "\": " +
             json_number(it == ref.counters.end() ? 0.0 : it->second);
        first = false;
    }
    s += "}}}";
    return s;
}

int run(const Args& a) {
    const Workload* wp = find_workload(a.workload);
    if (wp == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }
    const Workload& w = *wp;
    if (!oracle_self_test()) return 1;

    const OracleSpec spec = make_spec(w, a.seed);
    SharedRegion region(OracleLayout(spec).total);
    std::vector<std::string> problems;
    std::uint64_t attempted = 0, failed = 0;
    const auto account = [&](const RoundResult& r, const char* what) {
        attempted += r.verdict.operations;
        failed += r.verdict.failed;
        for (const std::string& p : r.problems) problems.push_back(std::string(what) + ": " + p);
        if (!r.verdict.only_named_failures() && r.problems.empty())
            problems.push_back(std::string(what) + ": failures beyond the named fault");
    };

    const RoundResult ref = run_round(w, a.seed, spec, region, /*digest=*/true);
    account(ref, "reference round");
    std::fprintf(stderr, "[%s] reference round: setup %.3fs traffic %.3fs delivered %llu failed %llu digest %s\n",
                 w.name.c_str(), ref.setup_s, ref.traffic_wall_s,
                 static_cast<unsigned long long>(ref.verdict.delivered_ok),
                 static_cast<unsigned long long>(ref.verdict.failed), hex(ref.digest.sum).c_str());

    std::vector<Metric> metrics;
    std::size_t rounds = 1;
    if (a.trace) {
        TraceOutcome t = run_traced(w, a.seed, spec, region, a.seconds, a.out);
        for (const RoundResult& r : t.rounds) {
            account(r, "traced run");
            const std::string diff = same_simulation(ref, r);
            if (!diff.empty()) problems.push_back("traced run: simulation differs in " + diff);
        }
        rounds += t.rounds.size();
        metrics = std::move(t.metrics);
    } else {
        std::vector<double> setup{ref.setup_s}, rate, cpu_rate;
        if (w.shards > 1) {
            // A sharded round always carries the digest, so its reference
            // round is timed like any other.
            rate.push_back(static_cast<double>(ref.verdict.delivered_ok) / ref.traffic_wall_s);
            cpu_rate.push_back(static_cast<double>(ref.verdict.delivered_ok) / ref.traffic_cpu_s);
        }
        double rss = ref.peak_rss_mib;
        const std::uint64_t begin = wall_ns();
        do {
            const RoundResult r = run_round(w, a.seed, spec, region, false);
            account(r, "timed round");
            const std::string diff = same_simulation(ref, r);
            if (!diff.empty()) problems.push_back("timed round: simulation differs in " + diff);
            setup.push_back(r.setup_s);
            rate.push_back(static_cast<double>(r.verdict.delivered_ok) / r.traffic_wall_s);
            cpu_rate.push_back(static_cast<double>(r.verdict.delivered_ok) / r.traffic_cpu_s);
            rss = std::max(rss, r.peak_rss_mib);
            ++rounds;
            std::fprintf(stderr, "[%s] round %zu: setup %.3fs traffic %.3fs (%.0f/s, %.0f/cpu-s)\n",
                         w.name.c_str(), rounds, r.setup_s, r.traffic_wall_s, rate.back(),
                         cpu_rate.back());
        } while (static_cast<double>(wall_ns() - begin) * 1e-9 < a.seconds);
        metrics = {
            {"deliveries_per_s", median(rate), "1/s"},
            {"deliveries_per_cpu_s", median(cpu_rate), "1/s"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mb", rss, "MiB"},
            {"recovery_p50_ms", ref.recovery_p50_ms, "ms"},
            {"recovery_p99_ms", ref.recovery_p99_ms, "ms"},
            {"overhead_bytes_per_delivery", ref.overhead_bytes_per_delivery, "B"},
        };
    }

    for (const std::string& p : problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
    std::printf("%s\n", meta_json(a, w, spec, ref, rounds).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                problems.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        const perfbench::Args a = perfbench::parse(argc, argv);
        if (a.self_test) {
            const bool ok = perfbench::oracle_self_test() && perfbench::sharding_self_test();
            std::fprintf(stderr, "self-test %s\n", ok ? "passed" : "FAILED");
            return ok ? 0 : 1;
        }
        return perfbench::run(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
