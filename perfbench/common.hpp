// Shared pieces of the benchmark: workload parameters, clocks, the loss
// schedule, the benchmark's own payload generator and a small JSON writer.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/loss_model.hpp"
#include "sim/topology.hpp"

namespace perfbench {

using lbrm::Duration;
using lbrm::TimePoint;

/// One named workload.  Every run of a workload executes whole rounds; a
/// round builds the scenario, drives the full update schedule, settles and
/// checks every delivery.
struct Workload {
    std::string name;
    std::uint32_t sites = 0;
    std::uint32_t receivers_per_site = 0;
    std::uint32_t sites_per_region = 0;  ///< 0 = flat Figure-1 topology
    double loss = 0.0;             ///< Bernoulli loss on every backbone->site feed
    std::size_t payload_bytes = 0;
    bool dormant = false;          ///< dormant-attached receivers
    Duration sample_interval{};    ///< zero = sampler off
    Duration settle{};             ///< recovery tail after the last update
    /// ScenarioConfig::seed for the program's own random draws; 0 = --seed.
    std::uint64_t program_seed = 0;

    /// Updates per round (ticker: planned items, after two fixed anchors).
    std::uint32_t updates = 0;
    /// Fixed-period stream (terrain_steady, fanout_1e5).
    Duration period{};

    // Stock-ticker stream (ticker_sharded).
    bool ticker = false;
    std::uint32_t shards = 1;
    std::uint32_t symbols = 0;
    double zipf_s = 0.0;
    Duration mean_gap{};
    double burst_probability = 0.0;
    std::uint32_t burst_length = 0;
    Duration burst_gap{};

    [[nodiscard]] std::uint32_t receivers() const { return sites * receivers_per_site; }
    /// The site whose feed drops update 1 (first-update fault exposure).
    [[nodiscard]] std::uint32_t probe_site() const { return sites - 1; }
};

// Fixed start of every stream: updates 1 and 2 go out at these sim times on
// every workload and every seed.  See stream_marks().
constexpr TimePoint kFirstUpdate = TimePoint{lbrm::millis(100)};
constexpr TimePoint kSecondUpdate = TimePoint{lbrm::millis(120)};

/// Sim-time marks of a stream's start.  The probe site's feed drops
/// whatever crosses it in [drop_begin, drop_end): update 1 crosses a site
/// feed about 39 ms after its send (77 ms behind a regional tier, one more
/// backbone hop), update 2 20 ms later.  Random loss starts at loss_on,
/// after update 2 crossed every feed, so the first-update fault shows on
/// exactly one site, whatever the seed.  Ticker plans start at plan_start.
struct StreamMarks {
    TimePoint drop_begin, drop_end, loss_on, plan_start;
};

inline StreamMarks stream_marks(const Workload& w) {
    const Duration shift = w.sites_per_region > 0 ? lbrm::sim::DisTopologySpec{}.backbone_delay
                                                  : Duration::zero();
    return {TimePoint{lbrm::millis(120) + shift}, TimePoint{lbrm::millis(150) + shift},
            TimePoint{lbrm::millis(170) + shift}, TimePoint{lbrm::millis(200) + shift}};
}

/// Feed loss: a fixed drop window (probe site only), then Bernoulli(p) from
/// `on`.  No RNG draw happens before `on`.
class ScheduledLoss final : public lbrm::sim::LossModel {
public:
    ScheduledLoss(double p, TimePoint on, TimePoint drop_begin, TimePoint drop_end)
        : p_(p), on_(on), drop_begin_(drop_begin), drop_end_(drop_end) {}
    bool drop(lbrm::Rng& rng, TimePoint now) override {
        if (now >= drop_begin_ && now < drop_end_) return true;
        return now >= on_ && rng.bernoulli(p_);
    }

private:
    double p_;
    TimePoint on_, drop_begin_, drop_end_;
};

/// The benchmark's own payload for a fixed-period stream: a pure function of
/// (seed, update index), different for every update.
inline std::vector<std::uint8_t> make_payload(std::uint64_t seed, std::uint64_t index,
                                              std::size_t bytes) {
    std::vector<std::uint8_t> out(bytes);
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
        if (i % 8 == 0) word = lbrm::splitmix64(seed * 0x9e3779b97f4a7c15ull ^ (index << 20) ^ i);
        out[i] = static_cast<std::uint8_t>(word >> ((i % 8) * 8));
    }
    return out;
}

// --- clocks ---------------------------------------------------------------

inline std::uint64_t wall_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

inline std::uint64_t cpu_ns() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

inline double peak_rss_mib() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of a sorted sample.
inline double quantile_sorted(const std::vector<std::int64_t>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    return static_cast<double>(sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1]);
}

// --- output ---------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

inline std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out.push_back(c);
    }
    return out;
}

inline std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

inline std::string metrics_json(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i) out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}";
}

}  // namespace perfbench
