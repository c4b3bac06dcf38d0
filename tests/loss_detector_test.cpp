// Loss-detector unit tests: gap detection, heartbeat-revealed losses,
// reordering tolerance, duplicates and recovery bookkeeping, and that the
// in-order fast path allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/loss_detector.hpp"
#include "tests/test_util.hpp"

// Count every allocation in this test binary, so a test can pin a code path
// as allocation-free.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace lbrm {
namespace {

using test::at;

TEST(LossDetector, InOrderStreamHasNoLoss) {
    LossDetector d;
    for (std::uint32_t s = 1; s <= 100; ++s) {
        auto obs = d.observe(at(s), SeqNum{s});
        EXPECT_TRUE(obs.newly_missing.empty());
        EXPECT_FALSE(obs.duplicate);
        EXPECT_FALSE(obs.fills_gap);
    }
    EXPECT_EQ(d.missing_count(), 0u);
    EXPECT_EQ(d.highest_seen(), SeqNum{100});
}

TEST(LossDetector, SingleGapDetected) {
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    auto obs = d.observe(at(2), SeqNum{3});
    ASSERT_EQ(obs.newly_missing.size(), 1u);
    EXPECT_EQ(obs.newly_missing[0], SeqNum{2});
    EXPECT_TRUE(d.is_missing(SeqNum{2}));
    EXPECT_EQ(d.detected_at(SeqNum{2}), at(2));
}

TEST(LossDetector, MultiPacketGap) {
    LossDetector d;
    d.observe(at(1), SeqNum{10});
    auto obs = d.observe(at(2), SeqNum{15});
    EXPECT_EQ(obs.newly_missing.size(), 4u);  // 11..14
    EXPECT_EQ(d.missing(), (std::vector<SeqNum>{SeqNum{11}, SeqNum{12}, SeqNum{13}, SeqNum{14}}));
}

TEST(LossDetector, HeartbeatRevealsLostDataPacket) {
    LossDetector d;
    d.observe(at(1), SeqNum{5});
    // Heartbeat repeating seq 6 proves data 6 was sent and we missed it.
    auto obs = d.observe(at(2), SeqNum{6}, /*is_heartbeat=*/true);
    ASSERT_EQ(obs.newly_missing.size(), 1u);
    EXPECT_EQ(obs.newly_missing[0], SeqNum{6});
}

TEST(LossDetector, HeartbeatForReceivedPacketIsQuiet) {
    LossDetector d;
    d.observe(at(1), SeqNum{5});
    auto obs = d.observe(at(2), SeqNum{5}, /*is_heartbeat=*/true);
    EXPECT_TRUE(obs.newly_missing.empty());
    EXPECT_FALSE(obs.duplicate);
}

TEST(LossDetector, RepeatedHeartbeatsDontRededect) {
    LossDetector d;
    d.observe(at(1), SeqNum{5});
    auto first = d.observe(at(2), SeqNum{6}, true);
    EXPECT_EQ(first.newly_missing.size(), 1u);
    auto second = d.observe(at(3), SeqNum{6}, true);
    EXPECT_TRUE(second.newly_missing.empty());
}

TEST(LossDetector, RecoveryFillsGap) {
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    d.observe(at(2), SeqNum{3});
    auto obs = d.observe(at(3), SeqNum{2});
    EXPECT_TRUE(obs.fills_gap);
    EXPECT_FALSE(obs.duplicate);
    EXPECT_EQ(d.missing_count(), 0u);
}

TEST(LossDetector, ReorderingRetractsMissing) {
    // 1, 3, 2 arrive: 2 is briefly "missing" then retracted on arrival.
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    EXPECT_EQ(d.observe(at(2), SeqNum{3}).newly_missing.size(), 1u);
    EXPECT_TRUE(d.observe(at(3), SeqNum{2}).fills_gap);
}

TEST(LossDetector, DuplicateDataDetected) {
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    d.observe(at(2), SeqNum{2});
    auto obs = d.observe(at(3), SeqNum{2});
    EXPECT_TRUE(obs.duplicate);
}

TEST(LossDetector, AbandonStopsTracking) {
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    d.observe(at(2), SeqNum{5});
    d.abandon(SeqNum{2});
    EXPECT_FALSE(d.is_missing(SeqNum{2}));
    EXPECT_EQ(d.missing_count(), 2u);  // 3, 4 remain
}

TEST(LossDetector, FirstPacketEverIsNotALoss) {
    // Joining an in-progress stream at seq 1000 must not declare 1..999 lost.
    LossDetector d;
    auto obs = d.observe(at(1), SeqNum{1000});
    EXPECT_TRUE(obs.newly_missing.empty());
}

TEST(LossDetector, JoinViaHeartbeatThenData) {
    LossDetector d;
    d.observe(at(1), SeqNum{7}, /*is_heartbeat=*/true);  // join late, silent
    auto obs = d.observe(at(2), SeqNum{8});
    EXPECT_TRUE(obs.newly_missing.empty());
    EXPECT_EQ(d.highest_seen(), SeqNum{8});
}

TEST(LossDetector, LastHeardTracksEverything) {
    LossDetector d;
    EXPECT_FALSE(d.last_heard().has_value());
    d.observe(at(1), SeqNum{1});
    d.observe(at(5), SeqNum{1}, true);
    EXPECT_EQ(d.last_heard(), at(5));
}

TEST(LossDetector, WrapAroundGap) {
    LossDetector d;
    d.observe(at(1), SeqNum{0xFFFFFFFEu});
    auto obs = d.observe(at(2), SeqNum{1});
    EXPECT_EQ(obs.newly_missing.size(), 2u);  // FFFFFFFF and 0
    EXPECT_TRUE(d.is_missing(SeqNum{0xFFFFFFFFu}));
    EXPECT_TRUE(d.is_missing(SeqNum{0}));
}

TEST(LossDetector, LargeStreamStaysBounded) {
    // State is O(missing): a long lossless stream leaves nothing behind.
    LossDetector d;
    for (std::uint32_t s = 1; s <= 100'000; ++s) d.observe(at(s), SeqNum{s});
    EXPECT_EQ(d.missing_count(), 0u);
    EXPECT_EQ(d.highest_seen(), SeqNum{100'000});
}

// --- duplicate classification without a receive window ----------------------
// Every seq at or below highest_ that is not missing is a duplicate.

TEST(LossDetector, DuplicateOfRecentSeq) {
    LossDetector d;
    for (std::uint32_t s = 1; s <= 100; ++s) d.observe(at(s), SeqNum{s});
    auto obs = d.observe(at(101), SeqNum{50});
    EXPECT_TRUE(obs.duplicate);
    EXPECT_FALSE(obs.fills_gap);
    EXPECT_TRUE(obs.newly_missing.empty());
    EXPECT_EQ(d.highest_seen(), SeqNum{100});
}

TEST(LossDetector, DuplicateOfSeqFarBehindHighest) {
    LossDetector d;
    for (std::uint32_t s = 1; s <= 6000; ++s) d.observe(at(s), SeqNum{s});
    auto obs = d.observe(at(6001), SeqNum{10});  // 5,990 behind highest_
    EXPECT_TRUE(obs.duplicate);
    EXPECT_FALSE(obs.fills_gap);
    EXPECT_TRUE(obs.newly_missing.empty());
    EXPECT_EQ(d.missing_count(), 0u);
}

TEST(LossDetector, DuplicateOfJustFilledSeq) {
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    d.observe(at(2), SeqNum{3});
    EXPECT_TRUE(d.observe(at(3), SeqNum{2}).fills_gap);
    auto again = d.observe(at(4), SeqNum{2});
    EXPECT_TRUE(again.duplicate);
    EXPECT_FALSE(again.fills_gap);
    EXPECT_EQ(d.missing_count(), 0u);
}

TEST(LossDetector, HeartbeatForOldSeqChangesNothing) {
    LossDetector d;
    d.observe(at(1), SeqNum{1});
    d.observe(at(2), SeqNum{5});  // 2..4 missing
    for (std::uint32_t s : {1u, 3u, 5u}) {
        auto obs = d.observe(at(3), SeqNum{s}, /*is_heartbeat=*/true);
        EXPECT_TRUE(obs.newly_missing.empty()) << s;
        EXPECT_FALSE(obs.duplicate) << s;
        EXPECT_FALSE(obs.fills_gap) << s;
    }
    EXPECT_EQ(d.missing_count(), 3u);
    EXPECT_EQ(d.highest_seen(), SeqNum{5});
    EXPECT_EQ(d.last_heard(), at(3));
}

TEST(LossDetector, GapRightAfterMaxGapOverflow) {
    LossDetector d{8};
    d.observe(at(1), SeqNum{1});
    auto jump = d.observe(at(2), SeqNum{100});
    EXPECT_EQ(d.gap_overflows(), 1u);
    ASSERT_EQ(jump.newly_missing.size(), 8u);  // truncated to 92..99
    EXPECT_EQ(jump.newly_missing.front(), SeqNum{92});
    EXPECT_EQ(jump.newly_missing.back(), SeqNum{99});

    auto next = d.observe(at(3), SeqNum{103});
    EXPECT_EQ(next.newly_missing, (std::vector<SeqNum>{SeqNum{101}, SeqNum{102}}));
    EXPECT_EQ(d.gap_overflows(), 1u);
    // Inside the truncated range: never tracked, so a duplicate.
    EXPECT_TRUE(d.observe(at(4), SeqNum{50}).duplicate);
    // Inside the kept range: a repair.
    EXPECT_TRUE(d.observe(at(5), SeqNum{95}).fills_gap);
    EXPECT_EQ(d.missing_count(), 9u);
}

TEST(LossDetector, InOrderObservationAllocatesNothing) {
    LossDetector d;
    d.observe(at(0), SeqNum{1});
    const std::size_t before = g_allocations.load();
    for (std::uint32_t s = 2; s <= 20'001; ++s) (void)d.observe(at(s), SeqNum{s});
    EXPECT_EQ(g_allocations.load() - before, 0u);
    EXPECT_EQ(d.highest_seen(), SeqNum{20'001});
}

}  // namespace
}  // namespace lbrm
