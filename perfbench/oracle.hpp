// Delivery oracle: the benchmark's own account of what every receiver must
// see, computed apart from the program under test.
//
// An operation is one (receiver, update) delivery.  The oracle keeps, per
// receiver, a bitmap over update indices and checks each delivery against
//   * the payload bytes the benchmark itself generated for that update,
//   * exactly-once delivery (a second delivery marks the operation bad),
//   * the physical floor: no delivery lands sooner after its planned send
//     than the summed link propagation delays of its path.
// Recovered deliveries also log their send-to-delivery latency.
//
// All state lives in a caller-supplied SharedRegion, so the same observer
// works in-process and inside forked shard children: each receiver's bitmap
// row is padded to whole 64-bit words and written only by the shard that
// owns the receiver, and each shard has its own counter and latency slot.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "core/actions.hpp"
#include "sim/observer.hpp"

namespace perfbench {

/// Anonymous shared mapping: survives fork(), so shard children write their
/// oracle state where the coordinator can read it after they exit.
class SharedRegion {
public:
    explicit SharedRegion(std::size_t bytes) : size_(std::max<std::size_t>(bytes, 1)) {
        data_ = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
        if (data_ == MAP_FAILED) throw std::runtime_error("oracle: mmap failed");
    }
    ~SharedRegion() { ::munmap(data_, size_); }
    SharedRegion(const SharedRegion&) = delete;
    SharedRegion& operator=(const SharedRegion&) = delete;

    [[nodiscard]] std::uint8_t* bytes() { return static_cast<std::uint8_t*>(data_); }
    void clear() { std::memset(data_, 0, size_); }

private:
    void* data_ = nullptr;
    std::size_t size_ = 0;
};

/// What the benchmark expects, fixed before the run starts.
struct OracleSpec {
    static constexpr std::uint32_t kNoReceiver = 0xFFFFFFFFu;
    std::uint32_t receivers = 0;
    std::uint32_t updates = 0;
    /// node index (id - 1) -> receiver index, or kNoReceiver.
    std::vector<std::uint32_t> node_rx;
    /// Payload of update i (sequence number i + 1).
    std::vector<std::vector<std::uint8_t>> payloads;
    /// Planned send time of update i.
    std::vector<lbrm::TimePoint> send_at;
    /// Smallest summed propagation delay from the source to any receiver.
    lbrm::Duration min_path{};
    /// The named first-update fault: receivers [fault_rx_begin,
    /// fault_rx_end) never get update 0 (see README "First-update fault").
    std::uint32_t fault_rx_begin = 0;
    std::uint32_t fault_rx_end = 0;
    /// Shard slots (1 for in-process runs).
    std::uint32_t slots = 1;
    /// Recovered-latency capacity per slot.
    std::uint64_t latency_capacity = 0;

    [[nodiscard]] std::uint64_t words_per_rx() const { return (updates + 63) / 64; }
    [[nodiscard]] std::uint64_t operations() const {
        return static_cast<std::uint64_t>(receivers) * updates;
    }
};

/// Per-slot tallies (one slot per shard process).
struct OracleCounters {
    std::uint64_t deliveries = 0;  ///< on_delivery calls
    std::uint64_t duplicates = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t too_early = 0;
    std::uint64_t stray = 0;       ///< unknown receiver or out-of-range seq
    std::uint64_t send_mismatch = 0;  ///< on_send off the planned schedule
    std::uint64_t sends = 0;
    std::uint64_t recovered = 0;
    std::uint64_t latency_overflow = 0;
    /// Clock and link probes stamped by the first and last simulated events
    /// of a round (rounds.cpp, prepare()); shard children write their own.
    std::uint64_t go_wall_ns = 0;
    std::uint64_t go_cpu_ns = 0;
    std::uint64_t end_wall_ns = 0;
    std::uint64_t end_cpu_ns = 0;
    std::uint64_t data_link_packets = 0;
    std::uint64_t link_bytes = 0;
};

/// Fixed layout of the oracle's state inside a SharedRegion.
struct OracleLayout {
    std::size_t counters_off = 0;
    std::size_t delivered_off = 0;
    std::size_t bad_off = 0;
    std::size_t latency_off = 0;
    std::size_t total = 0;

    explicit OracleLayout(const OracleSpec& s) {
        const std::size_t bitmap = s.receivers * s.words_per_rx() * sizeof(std::uint64_t);
        counters_off = 0;
        delivered_off = s.slots * sizeof(OracleCounters);
        bad_off = delivered_off + bitmap;
        latency_off = bad_off + bitmap;
        total = latency_off + s.slots * s.latency_capacity * sizeof(std::int64_t);
    }
};

/// The verdict over one round.
struct OracleVerdict {
    std::uint64_t operations = 0;
    std::uint64_t failed = 0;        ///< operations not delivered exactly once, intact, in time
    std::uint64_t named_fault = 0;   ///< failed operations that are the named fault
    std::uint64_t delivered_ok = 0;  ///< operations delivered exactly once, intact, in time
    OracleCounters totals;
    std::vector<std::int64_t> recovered_latency_ns;  ///< sorted
    [[nodiscard]] bool only_named_failures() const {
        return failed == named_fault && totals.stray == 0 && totals.send_mismatch == 0 &&
               totals.latency_overflow == 0;
    }
};

/// Observer bound to one slot of the shared oracle state.
class OracleObserver final : public lbrm::sim::ScenarioObserver {
public:
    OracleObserver(const OracleSpec& spec, SharedRegion& region, std::uint32_t slot)
        : spec_(spec), layout_(spec) {
        std::uint8_t* base = region.bytes();
        counters_ = reinterpret_cast<OracleCounters*>(base + layout_.counters_off) + slot;
        delivered_ = reinterpret_cast<std::uint64_t*>(base + layout_.delivered_off);
        bad_ = reinterpret_cast<std::uint64_t*>(base + layout_.bad_off);
        latency_ = reinterpret_cast<std::int64_t*>(base + layout_.latency_off) +
                   slot * spec.latency_capacity;
        words_ = spec.words_per_rx();
    }

    void on_delivery(lbrm::TimePoint at, lbrm::NodeId node,
                     const lbrm::DeliverData& data) override {
        OracleCounters& c = *counters_;
        ++c.deliveries;
        const std::size_t n = node.value() - 1;
        const std::uint32_t rx =
            n < spec_.node_rx.size() ? spec_.node_rx[n] : OracleSpec::kNoReceiver;
        const std::uint64_t u = static_cast<std::uint64_t>(data.seq.value()) - 1;
        if (rx == OracleSpec::kNoReceiver || u >= spec_.updates) {
            ++c.stray;
            return;
        }
        const std::uint64_t word = rx * words_ + u / 64;
        const std::uint64_t bit = std::uint64_t{1} << (u % 64);
        if (delivered_[word] & bit) {
            ++c.duplicates;
            bad_[word] |= bit;
            return;
        }
        delivered_[word] |= bit;
        const std::vector<std::uint8_t>& want = spec_.payloads[u];
        if (data.payload.size() != want.size() ||
            std::memcmp(data.payload.data(), want.data(), want.size()) != 0) {
            ++c.corrupt;
            bad_[word] |= bit;
        }
        const lbrm::Duration latency = at - spec_.send_at[u];
        if (latency < spec_.min_path) {
            ++c.too_early;
            bad_[word] |= bit;
        }
        if (data.recovered) {
            ++c.recovered;
            if (c.recovered <= spec_.latency_capacity)
                latency_[c.recovered - 1] = latency.count();
            else
                ++c.latency_overflow;
        }
    }

    void on_notice(lbrm::TimePoint, lbrm::NodeId, const lbrm::Notice&) override {}

    void on_send(lbrm::TimePoint at, lbrm::SeqNum seq) override {
        OracleCounters& c = *counters_;
        ++c.sends;
        const std::uint64_t u = static_cast<std::uint64_t>(seq.value()) - 1;
        if (u >= spec_.updates || spec_.send_at[u] != at) ++c.send_mismatch;
    }

    void clear() override {}

    [[nodiscard]] OracleCounters& counters() { return *counters_; }

private:
    const OracleSpec& spec_;
    OracleLayout layout_;
    OracleCounters* counters_ = nullptr;
    std::uint64_t* delivered_ = nullptr;
    std::uint64_t* bad_ = nullptr;
    std::int64_t* latency_ = nullptr;
    std::uint64_t words_ = 0;
};

/// Fold every slot and both bitmaps into one verdict.
inline OracleVerdict judge(const OracleSpec& spec, SharedRegion& region) {
    const OracleLayout layout(spec);
    const std::uint8_t* base = region.bytes();
    const auto* counters = reinterpret_cast<const OracleCounters*>(base + layout.counters_off);
    const auto* delivered = reinterpret_cast<const std::uint64_t*>(base + layout.delivered_off);
    const auto* bad = reinterpret_cast<const std::uint64_t*>(base + layout.bad_off);
    const auto* latency = reinterpret_cast<const std::int64_t*>(base + layout.latency_off);

    OracleVerdict v;
    v.operations = spec.operations();
    const std::uint64_t words = spec.words_per_rx();
    const std::uint64_t tail_bits = spec.updates % 64;
    const std::uint64_t tail_mask =
        tail_bits == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail_bits) - 1;
    for (std::uint64_t rx = 0; rx < spec.receivers; ++rx) {
        const bool fault_rx = rx >= spec.fault_rx_begin && rx < spec.fault_rx_end;
        for (std::uint64_t w = 0; w < words; ++w) {
            const std::uint64_t valid = w + 1 == words ? tail_mask : ~std::uint64_t{0};
            const std::uint64_t ok = delivered[rx * words + w] & ~bad[rx * words + w] & valid;
            const std::uint64_t failed = ~ok & valid;
            v.delivered_ok += static_cast<std::uint64_t>(std::popcount(ok));
            v.failed += static_cast<std::uint64_t>(std::popcount(failed));
            if (fault_rx && w == 0 && (failed & 1)) ++v.named_fault;
        }
    }
    for (std::uint32_t s = 0; s < spec.slots; ++s) {
        const OracleCounters& c = counters[s];
        OracleCounters& t = v.totals;
        t.deliveries += c.deliveries;
        t.duplicates += c.duplicates;
        t.corrupt += c.corrupt;
        t.too_early += c.too_early;
        t.stray += c.stray;
        t.send_mismatch += c.send_mismatch;
        t.sends += c.sends;
        t.recovered += c.recovered;
        t.latency_overflow += c.latency_overflow;
        t.data_link_packets += c.data_link_packets;
        t.link_bytes += c.link_bytes;
        const std::uint64_t n = std::min(c.recovered, spec.latency_capacity);
        const std::int64_t* row = latency + s * spec.latency_capacity;
        v.recovered_latency_ns.insert(v.recovered_latency_ns.end(), row, row + n);
    }
    std::sort(v.recovered_latency_ns.begin(), v.recovered_latency_ns.end());
    return v;
}

}  // namespace perfbench
