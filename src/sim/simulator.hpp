// The simulation executive: a virtual clock over an EventQueue.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/time.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"

namespace lbrm::sim {

class Simulator {
public:
    [[nodiscard]] TimePoint now() const { return now_; }

    // --- actor-keyed event ordering (sharded execution) ------------------
    // Default mode orders equal-time events by global insertion sequence.
    // Actor-keyed mode (SimConfig::shard_ordering, DESIGN.md "Sharded
    // execution") replaces that tiebreak with (actor << 32 | per-actor
    // sequence), where the actor is the node whose event body is executing.
    // Both facts are local to the scheduling node, so the key an event gets
    // is identical no matter how the simulation is partitioned into shards
    // -- a key reserved on one shard can cross a shard boundary and
    // reproduce the exact heap position the event would have had in a
    // single-process actor-keyed run.  The two modes tie-break equal-time
    // events differently, so A/B comparisons must hold the mode fixed.
    //
    // Reserved actors for scenario-level machinery (dormant sweep, sampler
    // ticks, chaos arms): each gets its own sequence counter so per-shard
    // differences in one category can never skew the keys of another.
    static constexpr std::uint32_t kChaosActor = 0xFFFFFFFCu;
    static constexpr std::uint32_t kSamplerActor = 0xFFFFFFFDu;
    static constexpr std::uint32_t kSweepActor = 0xFFFFFFFEu;
    static constexpr std::uint32_t kScenarioActor = 0xFFFFFFFFu;

    void enable_actor_keys() { actor_keys_ = true; }
    [[nodiscard]] bool actor_keys() const { return actor_keys_; }
    /// Pre-size the per-actor sequence table (actor = node index).
    void reserve_actors(std::size_t n) { actor_seq_.reserve(n); }
    [[nodiscard]] std::uint32_t current_actor() const { return current_actor_; }

    /// RAII actor context: Network arrival dispatch, SimHost timer firings
    /// and scenario entry points scope the executing node so everything the
    /// event body schedules is keyed to it.  Cheap no-op outside actor-keyed
    /// mode (an int save/restore).
    class ActorScope {
    public:
        ActorScope(Simulator& sim, std::uint32_t actor)
            : sim_(sim), prev_(sim.current_actor_) {
            sim_.current_actor_ = actor;
        }
        ~ActorScope() { sim_.current_actor_ = prev_; }
        ActorScope(const ActorScope&) = delete;
        ActorScope& operator=(const ActorScope&) = delete;

    private:
        Simulator& sim_;
        std::uint32_t prev_;
    };

    std::uint64_t schedule_at(TimePoint at, EventQueue::Callback fn) {
        if (at < now_) at = now_;  // clamp: never schedule into the past
        if (actor_keys_) return queue_.schedule_key(at, next_key(), std::move(fn));
        return queue_.schedule(at, std::move(fn));
    }

    /// Schedule with an explicit key from reserve_tiebreak() -- the
    /// cross-shard injection path (Network::inject_remote, actor-keyed
    /// mode) and SimHost's deferred timer re-arm (either mode): the event
    /// lands exactly where a schedule_at() at the reservation point would
    /// have put it.
    std::uint64_t schedule_at_key(TimePoint at, std::uint64_t key,
                                  EventQueue::Callback fn) {
        if (at < now_) at = now_;
        return queue_.schedule_key(at, key, std::move(fn));
    }

    std::uint64_t schedule_in(Duration delay, EventQueue::Callback fn) {
        return schedule_at(now_ + delay, std::move(fn));
    }

    void cancel(std::uint64_t id) { queue_.cancel(id); }

    // --- recurring events (link burst batching, see event_queue.hpp) -----
    /// Reserve the tiebreak an immediate schedule_at() would have used (the
    /// current actor's next key in actor-keyed mode).
    [[nodiscard]] std::uint64_t reserve_tiebreak() {
        return actor_keys_ ? next_key() : queue_.reserve_tiebreak();
    }
    /// Create a persistent self-rescheduling event; starts disarmed.
    std::uint32_t create_recurring(EventQueue::Callback fn) {
        return queue_.create_recurring(std::move(fn));
    }
    /// Arm a recurring event at (at, tiebreak).  Pre: at >= now() and the
    /// slot is not currently armed.
    void arm_recurring(std::uint32_t slot, TimePoint at, std::uint64_t tiebreak) {
        queue_.arm_recurring(slot, at, tiebreak);
    }

    /// Run one event; returns false when the queue is empty.
    bool step() {
        if (queue_.empty()) return false;
        auto [at, fn] = queue_.pop();
        now_ = at;
        ++events_;
        fn();
        return true;
    }

    /// Run every event with timestamp <= deadline; the clock ends at
    /// `deadline` even if the queue drains early.
    void run_until(TimePoint deadline) {
        if (!queue_.empty() && queue_.next_time() <= deadline) {
            LBRM_TRACE_SPAN("event_drain");
            while (!queue_.empty() && queue_.next_time() <= deadline) step();
        }
        if (now_ < deadline) now_ = deadline;
    }

    void run_for(Duration d) { run_until(now_ + d); }

    /// Run every event with timestamp strictly before `bound`, then advance
    /// the clock to `bound`.  This is the shard window step (DESIGN.md
    /// "Sharded execution"): events exactly AT the boundary are left for
    /// the next window, after the cross-shard exchange, so a remote arrival
    /// landing exactly on the lookahead horizon still orders by key against
    /// same-instant local events.
    void run_before(TimePoint bound) {
        if (!queue_.empty() && queue_.next_time() < bound) {
            LBRM_TRACE_SPAN("event_drain");
            while (!queue_.empty() && queue_.next_time() < bound) step();
        }
        if (now_ < bound) now_ = bound;
    }

    /// Drain the queue completely (tests with naturally finite event sets).
    void run_to_completion(std::uint64_t max_events = 50'000'000) {
        while (step()) {
            if (events_ > max_events)
                throw std::runtime_error("Simulator: event budget exhausted (livelock?)");
        }
    }

    [[nodiscard]] std::uint64_t events_processed() const { return events_; }
    [[nodiscard]] std::size_t pending() const { return queue_.size(); }
    /// One-shot events ever scheduled (the batching bench's numerator).
    [[nodiscard]] std::uint64_t events_scheduled() const { return queue_.scheduled_total(); }
    [[nodiscard]] std::uint64_t recurring_arms() const { return queue_.recurring_arms(); }
    /// Peak-pending proxy: heap capacity never shrinks (bench observability).
    [[nodiscard]] std::size_t slab_slots() const { return queue_.slab_slots(); }

private:
    /// Next key for the current actor: (actor << 32) | its own sequence.
    /// Node-indexed actors share a dense table; the four reserved actors
    /// get dedicated counters (kChaosActor is the lowest reserved id).
    std::uint64_t next_key() {
        std::uint32_t* seq;
        if (current_actor_ >= kChaosActor) {
            seq = &reserved_seq_[current_actor_ - kChaosActor];
        } else {
            if (current_actor_ >= actor_seq_.size())
                actor_seq_.resize(current_actor_ + 1, 0);
            seq = &actor_seq_[current_actor_];
        }
        return (static_cast<std::uint64_t>(current_actor_) << 32) | (*seq)++;
    }

    EventQueue queue_;
    TimePoint now_ = time_zero();
    std::uint64_t events_ = 0;
    bool actor_keys_ = false;
    std::uint32_t current_actor_ = kScenarioActor;
    std::vector<std::uint32_t> actor_seq_;
    std::array<std::uint32_t, 4> reserved_seq_{};
};

}  // namespace lbrm::sim
