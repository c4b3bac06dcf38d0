#include "sim/sim_host.hpp"

#include <cstring>
#include <type_traits>

#include "sim/network.hpp"

namespace lbrm::sim {

SimHost::SimHost(Network& network, Simulator& simulator, NodeId self)
    : network_(network), simulator_(simulator), self_(self), protocol_(*this, *this) {
    protocol_.bind_metrics(network.metrics());
}

SimHost::~SimHost() {
    if (timers_ != nullptr)
        network_.timer_pool().free(timers_, timer_cap_ * sizeof(TimerEnt));
}

void SimHost::grow_timers() {
    static_assert(std::is_trivially_copyable_v<TimerEnt>,
                  "pooled timer table relies on memcpy relocation");
    // Start at one entry: most armed hosts hold only their idle watchdog,
    // and one entry fits the pool's 64-byte class.
    static_assert(sizeof(TimerEnt) <= 64, "one timer entry must fit a 64-byte block");
    const auto cap = static_cast<std::uint16_t>(timer_cap_ == 0 ? 1 : timer_cap_ * 2);
    auto* fresh =
        static_cast<TimerEnt*>(network_.timer_pool().alloc(cap * sizeof(TimerEnt)));
    if (timer_count_ > 0)
        std::memcpy(fresh, timers_, timer_count_ * sizeof(TimerEnt));
    if (timers_ != nullptr)
        network_.timer_pool().free(timers_, timer_cap_ * sizeof(TimerEnt));
    timers_ = fresh;
    timer_cap_ = cap;
}

void SimHost::deliver(TimePoint now, const Packet& packet) {
    protocol_.on_packet(now, packet);
}

void SimHost::send_unicast(NodeId to, const Packet& packet) {
    network_.unicast(self_, to, packet);
}

void SimHost::send_multicast(const Packet& packet, McastScope scope) {
    network_.multicast(self_, packet, scope);
}

void SimHost::join_group(GroupId group) { network_.join(group, self_); }

void SimHost::leave_group(GroupId group) { network_.leave(group, self_); }

std::size_t SimHost::find_timer(std::uint32_t tag, TimerId id) const {
    for (std::size_t i = 0; i < timer_count_; ++i)
        if (timers_[i].tag == tag && timers_[i].id == id) return i;
    return timer_count_;
}

std::size_t SimHost::find_queued(std::uint64_t key) const {
    for (std::size_t i = 0; i < timer_count_; ++i)
        if (timers_[i].queued_key == key) return i;
    return timer_count_;
}

void SimHost::erase_timer(std::size_t i) {
    timers_[i] = timers_[timer_count_ - 1];
    --timer_count_;
}

void SimHost::queue(TimerEnt& t) {
    t.queued_at = t.deadline;
    t.queued_key = t.key;
    // [this, key] fits std::function's small buffer whatever the timer's
    // tag and arg: those stay in the table.
    t.event = simulator_.schedule_at_key(t.deadline, t.key,
                                         [this, key = t.key] { on_queued(key); });
}

void SimHost::arm(std::uint32_t core_tag, TimerId id, TimePoint deadline) {
    // Take the tiebreak (actor key in actor-keyed mode) an eager
    // schedule_at() would take here, and clamp the way it clamps, so the
    // timer's position is the eager path's whether or not anything is
    // pushed now.
    const std::uint64_t key = simulator_.reserve_tiebreak();
    if (deadline < simulator_.now()) deadline = simulator_.now();
    const std::size_t i = find_timer(core_tag, id);
    if (i != timer_count_) {
        TimerEnt& t = timers_[i];
        t.deadline = deadline;
        t.key = key;
        // The queued entry pops no later than the new position: leave it
        // there, and on_queued() moves it on when it pops.
        if (t.queued_at < deadline || (t.queued_at == deadline && t.queued_key < key)) return;
        // Re-armed earlier: the queued entry would fire late.  Drop it (a
        // tombstone, exactly as the eager path leaves) and queue anew.
        simulator_.cancel(t.event);
        queue(t);
        return;
    }
    if (timer_count_ == timer_cap_) grow_timers();
    TimerEnt& t = timers_[timer_count_++];
    t = TimerEnt{core_tag, id, deadline, key, {}, 0, 0};
    queue(t);
}

void SimHost::on_queued(std::uint64_t queued_key) {
    const std::size_t i = find_queued(queued_key);
    if (i == timer_count_) return;  // unreachable: replaced entries are cancelled
    TimerEnt& t = timers_[i];
    if (t.key != queued_key) {
        // Re-armed later while queued: move to the recorded position.  The
        // key was reserved at arm time, so nothing is consumed here.
        queue(t);
        return;
    }
    const std::uint32_t tag = t.tag;
    const TimerId tid = t.id;
    erase_timer(i);
    // The firing host is the actor for whatever the handler schedules
    // (actor-keyed mode; int save/restore otherwise).
    Simulator::ActorScope scope(simulator_, static_cast<std::uint32_t>(self_.value() - 1));
    protocol_.on_timer(simulator_.now(), tag, tid);
}

void SimHost::cancel(std::uint32_t core_tag, TimerId id) {
    const std::size_t i = find_timer(core_tag, id);
    if (i == timer_count_) return;
    simulator_.cancel(timers_[i].event);
    erase_timer(i);
}

}  // namespace lbrm::sim
