/** Unit tests for the discrete-event simulation kernel. */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sim/event_queue.hh"
#include "util/rng.hh"

namespace hypersio::sim
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, DefaultPriority);
    q.schedule(5, [&] { order.push_back(3); }, LatePriority);
    q.schedule(5, [&] { order.push_back(1); }, EarlyPriority);
    q.schedule(5, [&] { order.push_back(21); }, DefaultPriority);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 21, 3}));
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {
        q.scheduleAfter(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 10)
            q.scheduleAfter(1, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(count, 10);
    EXPECT_EQ(q.now(), 9u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventHandle h = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h)); // second cancel is a no-op
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, CancelOneOfMany)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] { order.push_back(1); });
    EventHandle h = q.schedule(2, [&] { order.push_back(2); });
    q.schedule(3, [&] { order.push_back(3); });
    q.cancel(h);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.run(15);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 15u);
    q.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] { ++count; });
    q.schedule(2, [&] { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EventHandle a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ZeroDelaySameTickExecution)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] {
        order.push_back(1);
        q.scheduleAfter(0, [&] { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueue, ManyEventsStaySorted)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    // Pseudo-random insertion order.
    for (uint64_t i = 0; i < 1000; ++i) {
        Tick when = (i * 7919) % 10007;
        q.schedule(when, [&, when] {
            monotonic &= when >= last;
            last = when;
        });
    }
    q.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.executed(), 1000u);
}

TEST(EventHandle, DefaultIsInvalid)
{
    EventHandle h;
    EXPECT_FALSE(h.valid());
    EventQueue q;
    EXPECT_FALSE(q.cancel(h));
}

// Regression: cancelling an event after it fired must be a detected
// no-op. The pre-slab kernel tombstoned the dead id forever, so its
// pending() underflowed and empty() lied.
TEST(EventQueue, CancelAfterFireReturnsFalse)
{
    EventQueue q;
    int fired = 0;
    EventHandle h = q.schedule(10, [&] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.cancel(h));
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());

    // The queue must remain fully usable after the late cancel.
    q.scheduleAfter(1, [&] { ++fired; });
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(q.empty());
}

// A handle must die with its event even when the slot is recycled:
// a stale cancel may not hit the new occupant.
TEST(EventQueue, StaleHandleMissesRecycledSlot)
{
    EventQueue q;
    EventHandle old = q.schedule(1, [] {});
    q.run();
    // The new event reuses the fired event's slab slot.
    bool ran = false;
    q.scheduleAfter(1, [&] { ran = true; });
    EXPECT_FALSE(q.cancel(old));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, SameTickOrderSurvivesInterleavedCancels)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, DefaultPriority);
    EventHandle a =
        q.schedule(5, [&] { order.push_back(9); }, EarlyPriority);
    q.schedule(5, [&] { order.push_back(3); }, LatePriority);
    q.schedule(5, [&] { order.push_back(1); }, EarlyPriority);
    EventHandle b =
        q.schedule(5, [&] { order.push_back(9); }, DefaultPriority);
    q.schedule(5, [&] { order.push_back(21); }, DefaultPriority);
    EXPECT_TRUE(q.cancel(a));
    EXPECT_TRUE(q.cancel(b));
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 21, 3}));
}

TEST(EventQueue, RunLimitBoundaryIsInclusive)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(10); });
    q.schedule(15, [&] { order.push_back(15); });
    q.schedule(16, [&] { order.push_back(16); });
    // Events at exactly the limit tick still run.
    q.run(15);
    EXPECT_EQ(order, (std::vector<int>{10, 15}));
    EXPECT_EQ(q.now(), 15u);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{10, 15, 16}));
}

// Steady-state churn must recycle slab slots, not grow the pool:
// the high-water mark tracks the peak number of in-flight events,
// not the total scheduled.
TEST(EventQueue, SlabRecyclesUnderChurn)
{
    EventQueue q;
    uint64_t fired = 0;
    for (int round = 0; round < 1000; ++round) {
        EventHandle keep = q.scheduleAfter(1, [&] { ++fired; });
        EventHandle drop = q.scheduleAfter(2, [&] { ++fired; });
        if (round % 2 == 0) {
            EXPECT_TRUE(q.cancel(drop));
        } else {
            (void)keep;
        }
        q.run(q.now() + 2);
    }
    EXPECT_EQ(fired, 1000u + 500u);
    EXPECT_TRUE(q.empty());
    // Two live events max; one chunk of records is ample.
    EXPECT_LE(q.poolCapacity(), 8u);
}

/** Counts constructions/destructions of callback captures. */
struct LifeCounter
{
    static int alive;
    LifeCounter() { ++alive; }
    LifeCounter(const LifeCounter &) { ++alive; }
    LifeCounter(LifeCounter &&) noexcept { ++alive; }
    ~LifeCounter() { --alive; }
};
int LifeCounter::alive = 0;

TEST(EventQueue, SmallClosureStaysInlineAndIsDestroyed)
{
    LifeCounter::alive = 0;
    {
        EventQueue q;
        bool ran = false;
        LifeCounter c;
        static_assert(sizeof(bool *) + sizeof(LifeCounter) <=
                      EventQueue::CallbackInlineSize);
        q.schedule(1, [&ran, c] { ran = true; });
        q.run();
        EXPECT_TRUE(ran);
    }
    EXPECT_EQ(LifeCounter::alive, 0);
}

TEST(EventQueue, LargeClosureFallsBackToHeapAndIsDestroyed)
{
    LifeCounter::alive = 0;
    {
        EventQueue q;
        uint64_t sum = 0;
        std::array<uint64_t, 16> payload{};
        payload.fill(3);
        LifeCounter c;
        static_assert(sizeof(payload) >
                      EventQueue::CallbackInlineSize);
        q.schedule(1, [&sum, payload, c] {
            for (uint64_t v : payload)
                sum += v;
        });
        q.run();
        EXPECT_EQ(sum, 48u);

        // Cancelled oversized closures free their heap copy too.
        EventHandle h = q.scheduleAfter(1, [&sum, payload, c] {
            sum += payload[0];
        });
        EXPECT_TRUE(q.cancel(h));
        q.run();
        EXPECT_EQ(sum, 48u);
    }
    EXPECT_EQ(LifeCounter::alive, 0);
}

// Destroying a queue with events still scheduled must release every
// callback, inline and heap-allocated alike.
TEST(EventQueue, DestructorReleasesUnfiredCallbacks)
{
    LifeCounter::alive = 0;
    {
        EventQueue q;
        LifeCounter c;
        std::array<uint64_t, 16> fat{};
        q.schedule(5, [c] {});
        q.schedule(6, [c, fat] { (void)fat[0]; });
    }
    EXPECT_EQ(LifeCounter::alive, 0);
}

TEST(EventQueue, StepRefusesToRunPastCancelledTop)
{
    EventQueue q;
    int count = 0;
    EventHandle a = q.schedule(1, [&] { ++count; });
    q.schedule(2, [&] { ++count; });
    EXPECT_TRUE(q.cancel(a));
    EXPECT_TRUE(q.step()); // skips the tombstone, runs tick 2
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 2u);
    EXPECT_FALSE(q.step());
}

// now + delay wrapping Tick used to silently schedule in the past
// (the schedule() precondition then fired with a misleading message,
// or worse, passed when now was 0). The overflow is its own fatal
// assert now, at the scheduleAfter boundary where the bad delay is
// still visible.
TEST(EventQueueDeathTest, ScheduleAfterOverflowPanics)
{
    EXPECT_DEATH(
        {
            EventQueue q;
            q.schedule(10, [] {});
            q.run();
            q.scheduleAfter(MaxTick - 5, [] {});
        },
        "scheduleAfter overflows Tick");
}

TEST(EventQueueDeathTest, FusedHopOverflowPanics)
{
    EXPECT_DEATH(
        {
            EventQueue q;
            q.schedule(10, [&] { q.tryFuseAdvance(MaxTick - 5); });
            q.run();
        },
        "fused hop overflows Tick");
}

// The fast path must refuse outside run(): manual drivers (step(),
// direct calls between runs) rely on every hop being a real event.
TEST(EventQueueFusion, RefusesOutsideRun)
{
    EventQueue q;
    EXPECT_FALSE(q.tryFuseAdvance(5));
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.fusedHops(), 0u);
}

TEST(EventQueueFusion, WarpsNowAndBurnsExactlyOneSeq)
{
    EventQueue q;
    Tick fused_at = 0;
    uint64_t seq_before = 0;
    uint64_t seq_after = 0;
    q.schedule(10, [&] {
        seq_before = q.scheduledSeq();
        ASSERT_TRUE(q.tryFuseAdvance(3)); // heap empty: fusible
        seq_after = q.scheduledSeq();
        fused_at = q.now();
    });
    q.run();
    // The elided event's tick and its slot in the (tick, priority,
    // seq) total order are both preserved, so a fused run's sequence
    // ledger is indistinguishable from the event-per-hop run's.
    EXPECT_EQ(fused_at, 13u);
    EXPECT_EQ(seq_after, seq_before + 1);
    EXPECT_EQ(q.now(), 13u);
    EXPECT_EQ(q.fusedHops(), 1u);
    EXPECT_EQ(q.executed(), 1u); // only the real event counts
}

// Fusion would reorder execution if any pending event were due at or
// before the hop's tick, so those cases must fall back — including
// the exact-tie, where the elided event's later seq would still have
// ordered it last. Strictly-later pending work is safe.
TEST(EventQueueFusion, RefusesUnlessHeapTopStrictlyLater)
{
    EventQueue q;
    bool other_ran = false;
    q.schedule(12, [&] { other_ran = true; });
    q.schedule(10, [&] {
        EXPECT_FALSE(q.tryFuseAdvance(3)); // 13 past the top (12)
        EXPECT_FALSE(q.tryFuseAdvance(2)); // 12 ties the top
        EXPECT_TRUE(q.tryFuseAdvance(1));  // 11 strictly earlier
        EXPECT_EQ(q.now(), 11u);
    });
    q.run();
    EXPECT_TRUE(other_ran);
    EXPECT_EQ(q.fusedHops(), 1u);
}

// A tombstoned top refuses fusion too: the cancelled key may hide a
// later live event, and skipping fusion is the safe direction.
TEST(EventQueueFusion, RefusesOnTombstonedTop)
{
    EventQueue q;
    EventHandle dead = q.schedule(12, [] {});
    q.schedule(10, [&] { EXPECT_FALSE(q.tryFuseAdvance(2)); });
    EXPECT_TRUE(q.cancel(dead));
    q.run();
    EXPECT_EQ(q.fusedHops(), 0u);
}

// run(limit) leaves past-limit events pending; a fused hop past the
// limit would instead execute its continuation, so it must refuse.
TEST(EventQueueFusion, RefusesPastRunLimit)
{
    EventQueue q;
    q.schedule(10, [&] {
        EXPECT_FALSE(q.tryFuseAdvance(6)); // 16 past the limit
        EXPECT_TRUE(q.tryFuseAdvance(5));  // 15 exactly the limit
    });
    q.run(15);
    EXPECT_EQ(q.now(), 15u);
    EXPECT_EQ(q.fusedHops(), 1u);
}

TEST(EventQueueFusion, RuntimeKnobDisablesAndReenables)
{
    EventQueue q;
    int fused = 0;
    q.setFusionEnabled(false);
    EXPECT_FALSE(q.fusionEnabled());
    q.schedule(10, [&] { fused += q.tryFuseAdvance(1) ? 1 : 0; });
    q.schedule(20, [&] {
        q.setFusionEnabled(true);
        fused += q.tryFuseAdvance(1) ? 1 : 0;
    });
    q.run();
    EXPECT_EQ(fused, 1);
    EXPECT_EQ(q.fusedHops(), 1u);
}

// End-to-end ledger parity: a chain run with fusion (fall back when
// refused) must land on the same final now() and scheduledSeq() as
// the same chain run event-per-hop — the property the full-system
// golden tests check through RunResults and stat bytes.
TEST(EventQueueFusion, ChainLedgerMatchesEventPerHop)
{
    auto drive = [](EventQueue &q, bool use_fusion) {
        q.setFusionEnabled(use_fusion);
        std::function<void(int)> hop = [&](int left) {
            if (left == 0)
                return;
            if (q.tryFuseAdvance(7)) {
                hop(left - 1); // synchronous continuation
                return;
            }
            q.scheduleAfter(7, [&hop, left] { hop(left - 1); });
        };
        q.schedule(1, [&hop] { hop(16); });
        // A cross-cutting event mid-chain forces at least one
        // fallback in the fused run.
        q.schedule(50, [] {});
        q.run();
        return std::pair(q.now(), q.scheduledSeq());
    };
    EventQueue fused;
    EventQueue perhop;
    const auto a = drive(fused, true);
    const auto b = drive(perhop, false);
    EXPECT_EQ(a, b);
    EXPECT_EQ(perhop.fusedHops(), 0u);
    EXPECT_GT(fused.fusedHops(), 0u);
    EXPECT_EQ(perhop.executed(), fused.executed() + fused.fusedHops());
}

// ---- Parked tickers ----------------------------------------------------

TEST(EventQueueParking, PhantomSlotsBurnSeqsAndUnparkResumesOnTheGrid)
{
    EventQueue q;
    Ticker ticker;
    std::vector<std::pair<Tick, uint64_t>> fired;
    uint64_t skipped = 0;
    q.schedule(10, [&] { q.park(ticker, 10); }); // seq 1; slot 20
    // Phantom slots at 20, 30, 40 each burn one seq before the wake.
    q.schedule(45, [&] {
        EXPECT_TRUE(ticker.parked());
        skipped = q.unpark(ticker, [&] {
            fired.emplace_back(q.now(), q.scheduledSeq());
        });
        EXPECT_FALSE(ticker.parked());
    });
    q.run();
    EXPECT_EQ(skipped, 3u);
    // Seqs: 2 (the waker), 3 (park: slot 20), 4-6 (slots 20-40, each
    // reserving its successor); the wake fires at slot 50 (seq 6).
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], (std::pair<Tick, uint64_t>{50, 6}));
    EXPECT_EQ(q.scheduledSeq(), 6u);
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueParking, StepConsumesSlotsAheadOfTheEventItRuns)
{
    EventQueue q;
    Ticker ticker;
    q.schedule(10, [&] { q.park(ticker, 10); }); // seq 1; slot 20
    q.schedule(45, [] {});                        // seq 2
    EXPECT_TRUE(q.step()); // tick 10 parks: seq 3
    EXPECT_TRUE(q.step()); // slots 20-40 burn seqs 4-6, then tick 45
    EXPECT_EQ(q.now(), 45u);
    EXPECT_EQ(q.scheduledSeq(), 6u);
    EXPECT_EQ(q.unpark(ticker, [] {}), 3u);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(q.now(), 50u);
    EXPECT_FALSE(q.step());
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueParking, FusionRefusesAtOrPastAParkedSlot)
{
    EventQueue q;
    Ticker ticker;
    bool at_slot = true;
    bool before_slot = false;
    q.schedule(0, [&] { q.park(ticker, 10); });
    q.schedule(5, [&] {
        at_slot = q.tryFuseAdvance(5);     // hop lands on slot 10
        before_slot = q.tryFuseAdvance(4); // hop to 9 precedes it
        q.unpark(ticker, [] {});
    });
    q.run();
    EXPECT_FALSE(at_slot);
    EXPECT_TRUE(before_slot);
    EXPECT_EQ(q.fusedHops(), 1u);
}

TEST(EventQueueParkingDeathTest, DrainingWithATickerParkedPanics)
{
    EXPECT_DEATH(
        {
            EventQueue q;
            Ticker ticker;
            q.schedule(0, [&] { q.park(ticker, 10); });
            q.run();
        },
        "queue drained with a ticker parked");
}

/**
 * Differential harness for parked tickers. Two periodic processes
 * (tickers) run among random one-shot events. A process that goes to
 * sleep schedules the event that will wake it, then either parks
 * (`parking`) or keeps firing a no-op every period, the way the
 * event-per-slot kernel did; a woken process resumes at its next
 * slot. Random events spawn same-tick events at every priority,
 * cancel pending ones (tombstones), take fused hops in tail position
 * and wake sleepers early. Both sides draw the same random stream at
 * the same real events, so their real-event logs must match.
 */
class ParkScript
{
  public:
    struct Fire
    {
        int id;
        Tick tick;
        uint64_t seq; ///< scheduledSeq() when the event started
        bool operator==(const Fire &) const = default;
    };

    ParkScript(bool parking, uint64_t seed, Tick p0, Tick p1)
        : _parking(parking), _rng(seed)
    {
        _procs[0].period = p0;
        _procs[1].period = p1;
        q.schedule(0, [this] {
            start(0);
            start(1);
            real(nextId());
        });
    }

    EventQueue q;
    std::vector<Fire> log;
    uint64_t noops = 0;   ///< reference: no-op slot fires
    uint64_t skipped = 0; ///< parking: phantom slots reported by unpark
    /** Reference only: wakes ordered before / after a same-tick slot. */
    uint64_t wakeBeforeSlot = 0;
    uint64_t wakeAfterSlot = 0;

  private:
    struct Proc
    {
        Ticker ticker;
        Tick period = 0;
        bool alive = false;
        bool asleep = false; ///< reference side's sleep flag
        Tick lastNoop = MaxTick;
        Tick wokeAt = MaxTick;
    };

    int nextId() { return _nextId++; }

    Tick
    delay()
    {
        // Mostly multiples of 10, so events tie with slot ticks.
        return 10 * _rng.below(7) + (_rng.chance(0.2) ? _rng.below(10)
                                                      : 0);
    }

    Priority
    priority()
    {
        static constexpr Priority prios[] = {EarlyPriority,
                                             DefaultPriority,
                                             LatePriority};
        return prios[_rng.below(3)];
    }

    bool
    asleep(int p) const
    {
        return _parking ? _procs[p].ticker.parked() : _procs[p].asleep;
    }

    void
    start(int p)
    {
        _procs[p].alive = true;
        q.scheduleAfter(_procs[p].period, [this, p] { slot(p); });
    }

    void
    wake(int p)
    {
        Proc &proc = _procs[p];
        if (_parking) {
            skipped += q.unpark(proc.ticker, [this, p] { slot(p); });
            return;
        }
        proc.asleep = false;
        proc.wokeAt = q.now();
        if (proc.lastNoop == q.now())
            ++wakeAfterSlot;
    }

    void
    slot(int p)
    {
        Proc &proc = _procs[p];
        if (!_parking && proc.asleep) {
            ++noops;
            proc.lastNoop = q.now();
            q.scheduleAfter(proc.period, [this, p] { slot(p); });
            return;
        }
        if (!_parking && proc.wokeAt == q.now())
            ++wakeBeforeSlot;
        log.push_back({-1 - p, q.now(), q.scheduledSeq()});
        const uint64_t choice = _budget > 0 ? _rng.below(4) : 0;
        if (choice == 0) {
            proc.alive = false;
            return;
        }
        if (choice == 1) {
            q.scheduleAfter(proc.period, [this, p] { slot(p); });
            return;
        }
        // Sleep until a waker fires (the PTB release of the link
        // model), which may tie with a slot in either seq order.
        const int id = nextId();
        q.scheduleAfter(
            delay(),
            [this, id, p] {
                log.push_back({id, q.now(), q.scheduledSeq()});
                if (asleep(p))
                    wake(p);
            },
            priority());
        if (_parking) {
            q.park(proc.ticker, proc.period);
        } else {
            proc.asleep = true;
            q.scheduleAfter(proc.period, [this, p] { slot(p); });
        }
    }

    void
    real(int id)
    {
        log.push_back({id, q.now(), q.scheduledSeq()});
        if (_budget <= 0)
            return;
        for (uint64_t k = _rng.below(3); k > 0; --k) {
            --_budget;
            const int child = nextId();
            _handles.push_back(q.scheduleAfter(
                delay(), [this, child] { real(child); }, priority()));
        }
        if (_rng.chance(0.25) && !_handles.empty()) {
            // Logged as -10 when it tombstones a pending event, -11
            // when the event already fired or was cancelled.
            const EventHandle victim =
                _handles[_rng.below(_handles.size())];
            log.push_back({q.cancel(victim) ? -10 : -11, q.now(),
                           q.scheduledSeq()});
        }
        for (int p = 0; p < 2; ++p) {
            if (asleep(p) && _rng.chance(0.3))
                wake(p);
            else if (!_procs[p].alive && _rng.chance(0.1))
                start(p);
        }
        if (_rng.chance(0.5)) {
            // Tail position: the continuation is this event's last act.
            --_budget;
            const int hop = nextId();
            const Tick d = delay();
            if (q.tryFuseAdvance(d))
                real(hop);
            else
                q.scheduleAfter(d, [this, hop] { real(hop); });
        }
    }

    const bool _parking;
    Rng _rng;
    Proc _procs[2];
    std::vector<EventHandle> _handles;
    int _nextId = 0;
    int _budget = 300;
};

TEST(EventQueueParking, MatchesEventPerSlotReferenceOnRandomSchedules)
{
    uint64_t wake_before = 0;
    uint64_t wake_after = 0;
    uint64_t fused = 0;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE(seed);
        const Tick p0 = 10 * (1 + seed % 3);
        const Tick p1 = seed % 2 ? p0 : 10 * (1 + (seed / 3) % 4);
        ParkScript ref(false, seed, p0, p1);
        ParkScript park(true, seed, p0, p1);
        // Stop mid-park at a few limits (slots at or before each
        // limit must be consumed), then drain.
        for (const Tick limit : {Tick(35), Tick(90), Tick(91),
                                 Tick(200 + seed), MaxTick}) {
            ref.q.run(limit);
            park.q.run(limit);
            ASSERT_EQ(ref.log, park.log) << "limit " << limit;
            ASSERT_EQ(ref.q.now(), park.q.now()) << "limit " << limit;
            ASSERT_EQ(ref.q.scheduledSeq(), park.q.scheduledSeq())
                << "limit " << limit;
        }
        EXPECT_EQ(park.skipped, ref.noops);
        EXPECT_EQ(park.q.fusedHops(), ref.q.fusedHops());
        EXPECT_EQ(park.q.executed() + park.skipped, ref.q.executed());
        wake_before += ref.wakeBeforeSlot;
        wake_after += ref.wakeAfterSlot;
        fused += park.q.fusedHops();
    }
    // The schedules must actually reach the interesting orders: a
    // wake keyed before a same-tick slot (the slot then does real
    // work), one keyed after it (the slot was a no-op), and fused
    // hops among parked slots.
    EXPECT_GT(wake_before, 0u);
    EXPECT_GT(wake_after, 0u);
    EXPECT_GT(fused, 0u);
}

} // namespace
} // namespace hypersio::sim
