// SimHost timer tests: the deferred re-arm (DESIGN.md "Deferred timer
// re-arm") must fire every timer at exactly the heap position the eager
// cancel-and-reschedule path would have, in both event-ordering modes.
//  - Scripted cases: repeated later re-arms, an earlier re-arm, a cancel
//    after a deferred re-arm, and equal-deadline ordering against a plain
//    event.
//  - A later re-arm pushes nothing onto the heap.
//  - A seeded random mix of arms, cancels, plain events and self re-arms
//    fires in the same order, at the same times, as an eager reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/network.hpp"
#include "sim/sim_host.hpp"
#include "tests/test_util.hpp"

namespace lbrm::sim {
namespace {

using lbrm::test::at;

/// One line of the firing log: (sim time in ns, what fired).
using Log = std::vector<std::pair<std::int64_t, std::string>>;

std::int64_t ns(TimePoint t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

std::string timer_name(TimerId id) { return "T" + std::to_string(id.arg); }

/// The arm-on-fire rule both sides of the random A/B follow: a timer whose
/// arg is a multiple of 3 arms its neighbour (arg + 1) 2 ms later, and on
/// its first firing re-arms itself too.  The neighbour may still be queued
/// from a driver event, so in actor-keyed mode this re-arms a timer under a
/// different actor, whose keys sort before the queued entry's.
std::vector<std::uint64_t> arms_on_fire(std::map<std::uint64_t, int>& fired, TimerId id) {
    if (id.arg % 3 != 0) return {};
    if (fired[id.arg]++ == 0) return {id.arg, id.arg + 1};
    return {id.arg + 1};
}

/// Generic core that logs its firings and applies arms_on_fire.
struct LogCore final : CoreBase {
    Log* log = nullptr;
    std::map<std::uint64_t, int> fired;
    Actions start(TimePoint) override { return {}; }
    Actions on_packet(TimePoint, const Packet&) override { return {}; }
    Actions on_timer(TimePoint now, TimerId id) override {
        log->emplace_back(ns(now), timer_name(id));
        Actions actions;
        for (std::uint64_t arg : arms_on_fire(fired, id))
            actions.push_back(StartTimer{{id.kind, arg}, now + millis(2)});
        return actions;
    }
};

/// One SimHost with a LogCore at tag 1 (the first generic core's tag).
struct Rig {
    static constexpr std::uint32_t kTag = 1;
    Simulator sim;
    Network net;
    SimHost* host = nullptr;
    Log log;

    explicit Rig(bool actor_keys) : net(sim, 1) {
        if (actor_keys) sim.enable_actor_keys();
        host = &net.attach_host(net.add_node(SiteId{1}));
        auto core = std::make_unique<LogCore>();
        core->log = &log;
        host->protocol().add_core(std::move(core));
    }
    void arm(std::uint64_t arg, TimePoint deadline) {
        host->arm(kTag, TimerId{TimerKind::kIdle, arg}, deadline);
    }
    void cancel(std::uint64_t arg) { host->cancel(kTag, TimerId{TimerKind::kIdle, arg}); }
    void event(TimePoint t, std::string name) {
        sim.schedule_at(t, [this, name] { log.emplace_back(ns(sim.now()), name); });
    }
};

/// Eager reference: every arm cancels the queued event and schedules a new
/// one, as SimHost did before re-arms were deferred.
struct EagerRig {
    Simulator sim;
    std::map<std::uint64_t, std::uint64_t> events;  ///< arg -> event id
    std::map<std::uint64_t, int> fired;
    Log log;
    std::uint32_t actor;  ///< the SimHost's actor (node index)

    EagerRig(bool actor_keys, std::uint32_t host_actor) : actor(host_actor) {
        if (actor_keys) sim.enable_actor_keys();
    }
    void arm(std::uint64_t arg, TimePoint deadline) {
        if (auto it = events.find(arg); it != events.end()) sim.cancel(it->second);
        events[arg] = sim.schedule_at(deadline, [this, arg] {
            events.erase(arg);
            Simulator::ActorScope scope(sim, actor);
            const TimerId id{TimerKind::kIdle, arg};
            log.emplace_back(ns(sim.now()), timer_name(id));
            for (std::uint64_t next : arms_on_fire(fired, id)) arm(next, sim.now() + millis(2));
        });
    }
    void cancel(std::uint64_t arg) {
        if (auto it = events.find(arg); it != events.end()) {
            sim.cancel(it->second);
            events.erase(it);
        }
    }
    void event(TimePoint t, std::string name) {
        sim.schedule_at(t, [this, name] { log.emplace_back(ns(sim.now()), name); });
    }
};

class DeferredTimer : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Modes, DeferredTimer, ::testing::Values(false, true),
                         [](const auto& info) { return info.param ? "ActorKeys" : "Default"; });

TEST_P(DeferredTimer, LaterRearmsFireOnceAtTheLastDeadline) {
    Rig rig(GetParam());
    for (int k = 1; k <= 20; ++k) rig.arm(1, at(0.010 * k));
    rig.sim.run_until(at(1.0));
    ASSERT_EQ(rig.log.size(), 1u);
    EXPECT_EQ(rig.log[0], std::make_pair(ns(at(0.200)), std::string("T1")));
}

TEST_P(DeferredTimer, LaterRearmPushesNothing) {
    Rig rig(GetParam());
    rig.arm(1, at(0.010));
    const auto scheduled = rig.sim.events_scheduled();
    const auto pending = rig.sim.pending();
    for (int k = 2; k <= 50; ++k) rig.arm(1, at(0.010 * k));
    rig.arm(1, at(0.500));  // same deadline again: still deferred
    EXPECT_EQ(rig.sim.events_scheduled(), scheduled);
    EXPECT_EQ(rig.sim.pending(), pending);
    rig.sim.run_until(at(1.0));
    EXPECT_EQ(rig.log.size(), 1u);
}

TEST_P(DeferredTimer, EarlierRearmFiresEarlyAndStaleEntryIsInert) {
    Rig rig(GetParam());
    rig.arm(1, at(0.100));
    rig.arm(1, at(0.050));
    rig.sim.run_until(at(1.0));
    ASSERT_EQ(rig.log.size(), 1u);
    EXPECT_EQ(rig.log[0].first, ns(at(0.050)));
    EXPECT_EQ(rig.sim.pending(), 0u);

    // Later, then earlier than the still-queued first entry.
    rig.log.clear();
    rig.arm(2, at(1.100));
    rig.arm(2, at(1.300));
    rig.arm(2, at(1.050));
    rig.sim.run_until(at(2.0));
    ASSERT_EQ(rig.log.size(), 1u);
    EXPECT_EQ(rig.log[0].first, ns(at(1.050)));
}

TEST_P(DeferredTimer, CancelAfterDeferredRearmNeverFires) {
    Rig rig(GetParam());
    rig.arm(1, at(0.010));
    rig.arm(1, at(0.020));
    rig.cancel(1);
    rig.sim.run_until(at(1.0));
    EXPECT_TRUE(rig.log.empty());

    // Cancel after the early entry already re-queued itself.
    rig.arm(2, at(1.010));
    rig.arm(2, at(1.050));
    rig.sim.run_until(at(1.020));
    rig.cancel(2);
    rig.sim.run_until(at(2.0));
    EXPECT_TRUE(rig.log.empty());
    EXPECT_EQ(rig.sim.pending(), 0u);
}

TEST_P(DeferredTimer, EqualDeadlineRearmOrdersAfterEarlierEvent) {
    // Eager order: re-arming T cancels its entry and takes a tiebreak after
    // E's, so T fires after E at the shared instant.
    Rig rig(GetParam());
    const TimePoint d = at(0.100);
    rig.arm(1, d);
    rig.event(d, "E");
    rig.arm(1, d);
    rig.sim.run_until(at(1.0));
    ASSERT_EQ(rig.log.size(), 2u);
    EXPECT_EQ(rig.log[0], std::make_pair(ns(d), std::string("E")));
    EXPECT_EQ(rig.log[1], std::make_pair(ns(d), std::string("T1")));
}

TEST_P(DeferredTimer, RearmUnderAnotherActorKeepsItsOwnPosition) {
    // In actor-keyed mode the host's keys sort before the scenario actor's,
    // so a re-arm to the same deadline from the host's own context lands
    // BEFORE the entry the scenario actor queued: it must not be deferred
    // behind it.  E, scheduled next by the host, must fire after T.
    Rig rig(GetParam());
    const TimePoint d = at(0.100);
    rig.arm(1, d);
    {
        Simulator::ActorScope scope(rig.sim,
                                    static_cast<std::uint32_t>(rig.host->id().value() - 1));
        rig.arm(1, d);
        rig.event(d, "E");
    }
    rig.sim.run_until(at(1.0));
    ASSERT_EQ(rig.log.size(), 2u);
    EXPECT_EQ(rig.log[0].second, "T1");
    EXPECT_EQ(rig.log[1].second, "E");
}

TEST_P(DeferredTimer, RandomMixMatchesEagerReference) {
    Rig rig(GetParam());
    EagerRig ref(GetParam(), static_cast<std::uint32_t>(rig.host->id().value() - 1));
    // Drive both from identical driver events: 1 ms ticks, each doing a few
    // random operations on 6 timers.  Deadlines are whole milliseconds so
    // equal-time ties are common.
    auto drive = [](auto& r, std::uint64_t seed) {
        auto rng = std::make_shared<Rng>(seed);
        for (int tick = 0; tick < 400; ++tick) {
            r.sim.schedule_at(at(0.001 * tick), [&r, rng, tick] {
                for (int op = 0; op < 3; ++op) {
                    const std::uint64_t arg = rng->uniform_int(0, 5);
                    const auto roll = rng->uniform_int(0, 9);
                    const TimePoint when = r.sim.now() + millis(static_cast<std::int64_t>(
                                                             rng->uniform_int(0, 6)));
                    if (roll < 6) r.arm(arg, when);
                    else if (roll < 8) r.cancel(arg);
                    else r.event(when, "E" + std::to_string(tick) + "." + std::to_string(op));
                }
            });
        }
    };
    drive(rig, 42);
    drive(ref, 42);
    rig.sim.run_until(at(1.0));
    ref.sim.run_until(at(1.0));
    ASSERT_GT(ref.log.size(), 300u);
    EXPECT_EQ(rig.log, ref.log);
}

}  // namespace
}  // namespace lbrm::sim
