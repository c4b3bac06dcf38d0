// SimHost: one protocol endpoint living inside the simulated network.
//
// Implements the driver services (NetworkService via Network transport,
// TimerService via the Simulator's event queue) and owns the ProtocolHost
// carrying the actual cores -- by value: a host is one arena slot, not a
// chain of heap nodes (DESIGN.md "Scale engineering").  Armed timers live
// in a small flat table instead of a std::map: a host arms a handful of
// timers (heartbeat, ack, retransmit...), so linear scans beat tree nodes
// on both memory and locality at million-host scale.  The table itself is
// a 16-byte handle into the Network's BlockPool: most hosts in the big
// scenarios never arm a timer (watchdogs are deferred until first
// traffic), and the handle undercuts even an empty std::vector while the
// pool recycles the blocks of hosts that do arm.
//
// Re-arms are deferred in place (DESIGN.md "Deferred timer re-arm").  A
// receiver's MaxIT watchdog is pushed back by every packet it hears; an
// eager re-arm would cancel the queued event (leaving a heap tombstone)
// and schedule a fresh closure each time.  Instead every arm reserves the
// tiebreak an eager schedule would have taken and records the (deadline,
// key) pair in the table.  While the timer's queued heap entry fires no
// later than that pair, arm() touches neither the heap nor a closure; when
// the queued entry pops early it re-queues itself at exactly the recorded
// position.  Real firings therefore pop in the same order as on the eager
// path, and the simulation is bit-identical.
#pragma once

#include <cstdint>

#include "runtime/protocol_host.hpp"
#include "runtime/services.hpp"
#include "sim/simulator.hpp"

namespace lbrm::sim {

class Network;

class SimHost final : public NetworkService, public TimerService {
public:
    SimHost(Network& network, Simulator& simulator, NodeId self);
    ~SimHost() override;

    SimHost(const SimHost&) = delete;
    SimHost& operator=(const SimHost&) = delete;

    [[nodiscard]] NodeId id() const { return self_; }
    [[nodiscard]] ProtocolHost& protocol() { return protocol_; }
    [[nodiscard]] const ProtocolHost& protocol() const { return protocol_; }

    /// Network -> host delivery (called by Network at arrival time).
    void deliver(TimePoint now, const Packet& packet);

    // NetworkService
    void send_unicast(NodeId to, const Packet& packet) override;
    void send_multicast(const Packet& packet, McastScope scope) override;
    void join_group(GroupId group) override;
    void leave_group(GroupId group) override;

    // TimerService
    void arm(std::uint32_t core_tag, TimerId id, TimePoint deadline) override;
    void cancel(std::uint32_t core_tag, TimerId id) override;

private:
    /// One armed timer.  (deadline, key) is where the timer must fire: the
    /// position the latest arm() reserved.  (queued_at, queued_key) is the
    /// heap entry actually in the event queue, which may fire earlier; it
    /// then re-queues itself at (deadline, key).  Queued keys are unique
    /// across the simulator, so a firing closure finds its entry by key.
    struct TimerEnt {
        std::uint32_t tag;
        TimerId id;
        TimePoint deadline;
        std::uint64_t key;
        TimePoint queued_at;
        std::uint64_t queued_key;
        std::uint64_t event;  ///< event-queue id of the queued entry
    };
    [[nodiscard]] std::size_t find_timer(std::uint32_t tag, TimerId id) const;
    [[nodiscard]] std::size_t find_queued(std::uint64_t key) const;
    void erase_timer(std::size_t i);
    void grow_timers();
    /// Put `t`'s heap entry at its recorded (deadline, key).
    void queue(TimerEnt& t);
    /// Heap entry with key `queued_key` popped: re-queue or fire.
    void on_queued(std::uint64_t queued_key);

    Network& network_;
    Simulator& simulator_;
    NodeId self_;
    ProtocolHost protocol_;
    /// Armed timers, unordered; erased by swap-with-back.  The block comes
    /// from Network's BlockPool; null until the first arm.
    TimerEnt* timers_ = nullptr;
    std::uint16_t timer_count_ = 0;
    std::uint16_t timer_cap_ = 0;
};

}  // namespace lbrm::sim
