// Unit tests: discrete-event engine (event queue, periodic scheduling,
// deterministic PRNG).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "net/tap.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

// Global allocation counter backing the steady-state no-allocation
// assertion below. Replacing operator new is per-binary, so only this
// test executable pays for the bookkeeping.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace p4s::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&]() { order.push_back(3); });
  q.schedule_at(10, [&]() { order.push_back(1); });
  q.schedule_at(20, [&]() { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, FifoForSimultaneousEvents) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i]() { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// The FIFO-within-timestamp contract, pinned: same-deadline events run
// in SCHEDULING order (global seq), not in any order keyed to when
// earlier deadlines interleaved. The parallel fabric's grant semantics
// lean on this — a driver tick armed a full interval before a mirror
// delivery was armed must win their same-timestamp tie — so this is a
// regression fence, not documentation.
TEST(EventQueue, FifoTieBreakIsSchedulingOrderNotDeadlineOrder) {
  EventQueue q;
  std::vector<std::string> order;
  // Armed first, fires at 100: the "tick" (scheduled long in advance).
  q.schedule_at(100, [&]() { order.push_back("tick"); });
  // Armed later (from an earlier event, as a TAP delivery would be),
  // same deadline: must run after the tick despite the fresher arming.
  q.schedule_at(60, [&]() {
    q.schedule_at(100, [&]() { order.push_back("delivery"); });
  });
  // And a third, armed later still at the same deadline.
  q.schedule_at(70, [&]() {
    q.schedule_at(100, [&]() { order.push_back("late-delivery"); });
  });
  q.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "tick");
  EXPECT_EQ(order[1], "delivery");
  EXPECT_EQ(order[2], "late-delivery");
}

// FIFO order survives run_until() windows: splitting one run into
// horizon-sized steps (as MonitoringSystem::run_until and the parallel
// grant pump do) must not reorder same-timestamp events scheduled
// across the window boundaries.
TEST(EventQueue, FifoWithinTimestampAcrossRunUntilWindows) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(50, [&]() { order.push_back(0); });
  q.run_until(10);  // clock advances into the gap, nothing runs
  EXPECT_TRUE(order.empty());
  q.schedule_at(50, [&]() { order.push_back(1); });
  q.run_until(30);
  q.schedule_at(50, [&]() { order.push_back(2); });
  // The horizon is inclusive: events at exactly t run in run_until(t).
  q.run_until(50);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), 50u);
}

// run_until() advances the clock to the horizon even with nothing to
// execute — the parallel shards replay boundary frames by advancing an
// (empty) queue to each frame's delivery time, so a lagging clock would
// skew every P4 ingress timestamp and pcap record.
TEST(EventQueue, RunUntilAdvancesClockThroughEmptyWindows) {
  EventQueue q;
  q.run_until(1000);
  EXPECT_EQ(q.now(), 1000u);
  q.run_until(1000);  // idempotent at the same horizon
  EXPECT_EQ(q.now(), 1000u);
  bool ran = false;
  q.schedule_at(2000, [&]() { ran = true; });
  q.run_until(1500);
  EXPECT_EQ(q.now(), 1500u);
  EXPECT_FALSE(ran);
  q.run_until(2000);
  EXPECT_TRUE(ran);
}

TEST(EventQueue, SchedulingIntoPastThrows) {
  EventQueue q;
  q.schedule_at(10, []() {});
  q.run();
  EXPECT_THROW(q.schedule_at(5, []() {}), std::invalid_argument);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  Timer t(q, [&]() { ran = true; });
  t.arm(10);
  EXPECT_TRUE(t.armed());
  t.cancel();
  EXPECT_FALSE(t.armed());
  q.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.executed_events(), 0u);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  int runs = 0;
  Timer t(q, [&]() { ++runs; });
  t.arm(1);
  q.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(t.armed());
  t.cancel();  // after fire: no effect
  t.cancel();
  Timer never_armed(q, []() {});
  never_armed.cancel();  // never armed: no effect
  EXPECT_FALSE(never_armed.armed());
  q.run();
  EXPECT_EQ(runs, 1);
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.schedule_at(10, [&]() { fired.push_back(10); });
  q.schedule_at(20, [&]() { fired.push_back(20); });
  q.schedule_at(30, [&]() { fired.push_back(30); });
  q.run_until(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));  // inclusive horizon
  EXPECT_EQ(q.now(), 20u);
  q.run_until(25);
  EXPECT_EQ(q.now(), 25u);  // clock advances even with no events
  q.run();
  EXPECT_EQ(fired.back(), 30u);
}

TEST(EventQueue, EventsScheduledDuringExecutionRun) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&]() {
    order.push_back(1);
    q.schedule_in(5, [&]() { order.push_back(2); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueue, StepExecutesExactlyOne) {
  EventQueue q;
  int runs = 0;
  q.schedule_at(1, [&]() { ++runs; });
  q.schedule_at(2, [&]() { ++runs; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
  EXPECT_EQ(runs, 2);
}

TEST(EventQueue, CountersTrackLiveAndExecuted) {
  EventQueue q;
  Timer t(q, []() {});
  t.arm(1);
  q.schedule_at(2, []() {});
  EXPECT_EQ(q.pending_events(), 2u);
  t.cancel();
  // The cancelled timer's entry occupies the heap until it surfaces.
  EXPECT_EQ(q.pending_events(), 2u);
  q.run();
  EXPECT_EQ(q.executed_events(), 1u);
  EXPECT_EQ(q.pending_events(), 0u);
}

TEST(EventQueue, RunUntilAdvancesToHorizonWhenDrainedEarly) {
  // Regression for the run_until contract: the clock advances to the
  // horizon even when the last event fires well before it (callers treat
  // run_until(t) as "simulate up to t").
  EventQueue q;
  q.schedule_at(3, []() {});
  q.run_until(50);
  EXPECT_EQ(q.now(), 50u);
  q.run_until(50);  // at the horizon already: no-op
  EXPECT_EQ(q.now(), 50u);
  q.run_until(10);  // horizon in the past: clock never goes backwards
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, CancelledEventBeyondHorizonDoesNotAdvanceClock) {
  EventQueue q;
  Timer t(q, []() {});
  t.arm(100);
  t.cancel();
  q.run_until(50);
  // The cancelled entry's (beyond-horizon) time must not leak into the
  // clock.
  EXPECT_EQ(q.now(), 50u);
  EXPECT_EQ(q.executed_events(), 0u);
  q.run();
  EXPECT_EQ(q.now(), 50u);  // dropping it does not advance the clock
  EXPECT_EQ(q.pending_events(), 0u);
}

TEST(EventQueue, TimerDestroyedWithPendingEntry) {
  EventQueue q;
  bool ran = false;
  {
    Timer t(q, [&]() { ran = true; });
    t.arm(5);
  }
  // The timer is gone; its entry must be dropped, not dereferenced.
  EXPECT_EQ(q.pending_events(), 1u);
  q.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.executed_events(), 0u);
  EXPECT_EQ(q.now(), 0u);
}

TEST(EventQueue, StaleEntryDoesNotTouchReusedSourceId) {
  EventQueue q;
  int second_runs = 0;
  {
    Timer stale(q, []() {});
    stale.arm(1);
  }
  // The next timer takes the destroyed one's registry id; the entry left
  // behind (due earlier) must neither fire it nor consume its deadline.
  Timer fresh(q, [&]() { ++second_runs; });
  fresh.arm(2);
  q.run_until(1);
  EXPECT_TRUE(fresh.armed());
  EXPECT_EQ(q.now(), 1u);
  q.run();
  EXPECT_EQ(second_runs, 1);
  EXPECT_EQ(q.executed_events(), 1u);
  EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, RtoStyleCancelRescheduleChurn) {
  // TCP's RTO pattern: every ACK re-arms the timer further out. Only the
  // final arm may fire, and the heap must not grow with the churn count:
  // a later re-arm pushes nothing.
  EventQueue q;
  int fires = 0;
  Timer rto(q, [&fires]() { ++fires; });
  for (int i = 0; i < 10000; ++i) {
    rto.cancel();
    rto.arm(static_cast<SimTime>(100 + i));
  }
  EXPECT_EQ(q.pending_events(), 1u);
  q.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(q.executed_events(), 1u);
  EXPECT_EQ(q.now(), 100u + 9999u);
  EXPECT_EQ(q.pending_events(), 0u);
}

TEST(EventQueue, TimerLaterRearmReKeysWithoutRunningOrAdvancing) {
  EventQueue q;
  std::vector<SimTime> fired;
  Timer t(q, [&]() { fired.push_back(q.now()); });
  t.arm(10);
  t.arm(30);  // later: the entry at 10 stays and is re-keyed there
  EXPECT_EQ(q.pending_events(), 1u);
  EXPECT_TRUE(q.step());  // skips the re-key, runs the event at 30
  EXPECT_EQ(fired, (std::vector<SimTime>{30}));
  EXPECT_EQ(q.executed_events(), 1u);
  // run_until across the stale deadline: re-keying leaves the clock at
  // the horizon, not at the entry's time.
  t.arm(40);
  t.arm(60);
  q.run_until(50);
  EXPECT_EQ(q.now(), 50u);
  EXPECT_EQ(q.executed_events(), 1u);
  EXPECT_TRUE(t.armed());
  q.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{30, 60}));
}

TEST(EventQueue, TimerEarlierRearmPushesAndDropsSuperseded) {
  EventQueue q;
  std::vector<SimTime> fired;
  Timer t(q, [&]() { fired.push_back(q.now()); });
  t.arm(50);
  t.arm(20);  // earlier: a new entry; the one at 50 is superseded
  EXPECT_EQ(q.pending_events(), 2u);
  q.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{20}));
  EXPECT_EQ(q.executed_events(), 1u);  // the superseded entry is uncounted
  EXPECT_EQ(q.now(), 20u);  // ... and never moves the clock
  EXPECT_EQ(q.pending_events(), 0u);
}

TEST(EventQueue, TimerRearmsFromItsOwnCallback) {
  EventQueue q;
  std::vector<SimTime> fired;
  Timer t(q, [&]() {
    fired.push_back(q.now());
    EXPECT_FALSE(t.armed());  // disarmed while its callback runs
    if (fired.size() < 3) t.arm_in(5);
  });
  t.arm(1);
  q.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{1, 6, 11}));
  EXPECT_THROW(t.arm(3), std::invalid_argument);
}

TEST(EventQueue, LaneFiresFifoWithOneHeapEntry) {
  EventQueue q;
  std::vector<int> got;
  Lane<int> lane(q, [&](const int& v) { got.push_back(v); });
  for (int i = 0; i < 100; ++i) lane.push(static_cast<SimTime>(10 + i / 4)) = i;
  EXPECT_EQ(q.pending_events(), 1u);
  q.run_until(12);
  EXPECT_EQ(got.size(), 12u);  // times 10, 11, 12: four each
  q.run();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
  EXPECT_EQ(q.executed_events(), 100u);
  EXPECT_EQ(q.peak_pending_events(), 1u);
}

// Same-timestamp ties across every kind of source: a queue driven through
// lanes and timers must fire exactly the sequence a queue holding one
// entry per event fires, with re-arm and cancel done by scheduling a new
// one-shot and ignoring the old one (the per-event scheduler the lanes
// and timers replace). Times are drawn from a handful of values so ties
// are the common case.
TEST(EventQueue, TiesMatchPerEventSchedulingAcrossLanesAndTimers) {
  struct Run {
    EventQueue q;
    Rng rng{7};
    std::vector<int> log;
    std::vector<SimTime> times;
    bool per_event;
    std::uint64_t next_token = 1;
    // Per-event model: the current arm's token per timer and the last
    // pushed time per lane.
    std::vector<std::uint64_t> token = std::vector<std::uint64_t>(3, 0);
    std::vector<SimTime> lane_tail = std::vector<SimTime>(2, 0);
    std::vector<std::unique_ptr<Lane<int>>> lanes;
    std::vector<std::unique_ptr<Timer>> timers;

    explicit Run(bool per_event_model) : per_event(per_event_model) {
      for (int l = 0; l < 2; ++l) {
        lanes.push_back(std::make_unique<Lane<int>>(
            q, [this](const int& v) { record(v); }));
      }
      for (int t = 0; t < 3; ++t) {
        timers.push_back(std::make_unique<Timer>(q, [this, t]() {
          record(-1 - t);
          act();
        }));
      }
    }

    void record(int value) {
      log.push_back(value);
      times.push_back(q.now());
    }

    void fire_timer(int t, std::uint64_t tok) {
      if (token[static_cast<size_t>(t)] != tok) return;  // cancelled
      token[static_cast<size_t>(t)] = 0;
      record(-1 - t);
      act();
    }

    void arm(int t, SimTime at) {
      if (!per_event) {
        timers[static_cast<size_t>(t)]->arm(at);
        return;
      }
      const std::uint64_t tok = next_token++;
      token[static_cast<size_t>(t)] = tok;
      q.schedule_at(at, [this, t, tok]() { fire_timer(t, tok); });
    }

    void cancel(int t) {
      if (per_event) {
        token[static_cast<size_t>(t)] = 0;
      } else {
        timers[static_cast<size_t>(t)]->cancel();
      }
    }

    void push_lane(int l, SimTime at, int value) {
      SimTime& tail = lane_tail[static_cast<size_t>(l)];
      tail = std::max(tail, at);
      if (per_event) {
        q.schedule_at(tail, [this, value]() { record(value); });
      } else {
        lanes[static_cast<size_t>(l)]->push(tail) = value;
      }
    }

    // A random batch of operations, all at or just after now().
    void act() {
      const int n = static_cast<int>(rng.next_below(4));
      for (int i = 0; i < n; ++i) {
        const SimTime at = q.now() + rng.next_below(3) * 10;
        const int value = static_cast<int>(rng.next_below(1000));
        switch (rng.next_below(5)) {
          case 0:
            q.schedule_at(at, [this, value]() { record(value); });
            break;
          case 1:
            push_lane(static_cast<int>(rng.next_below(2)), at, value);
            break;
          case 2:
            cancel(static_cast<int>(rng.next_below(3)));
            break;
          default:  // arm later, earlier or equal: all from the same draw
            arm(static_cast<int>(rng.next_below(3)), at);
            break;
        }
      }
    }

    void drive() {
      for (SimTime t = 0; t < 2000; t += 5) {
        q.schedule_at(t, [this]() { act(); });
      }
      q.run();
    }
  };
  Run sources(false);
  Run per_event(true);
  per_event.drive();
  sources.drive();
  EXPECT_GT(per_event.log.size(), 500u);
  EXPECT_EQ(sources.log, per_event.log);
  EXPECT_EQ(sources.times, per_event.times);
}

TEST(EventQueue, PeakPendingTracksHighWaterMark) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) q.schedule_at(static_cast<SimTime>(i), []() {});
  EXPECT_EQ(q.peak_pending_events(), 64u);
  q.run();
  q.schedule_at(1000, []() {});
  q.run();
  EXPECT_EQ(q.peak_pending_events(), 64u);  // high-water mark persists
}

TEST(EventQueue, NoPerEventHeapAllocationInSteadyState) {
  // Once the slab, heap and lane rings have grown to the workload's
  // footprint, scheduling and firing events performs zero heap
  // allocation: no per-event control block, small captures stay in
  // std::function's inline storage, and timer re-arms push nothing.
  EventQueue q;
  std::uint64_t fired = 0;
  Lane<std::uint64_t> lane(q, [&fired](const std::uint64_t& v) { fired += v; });
  Timer rto(q, [&fired]() { ++fired; });
  auto round_of = [&](int n) {
    for (int i = 0; i < n; ++i) {
      q.schedule_in(1, [&fired]() { ++fired; });
      lane.push(q.now() + 2) = 1;
      rto.arm_in(static_cast<SimTime>(3 + i));
    }
    q.run();
  };
  // Warm-up: grow the slab/heap/ring past anything the measured phase
  // needs.
  round_of(1024);
  const std::uint64_t before = g_heap_allocs.load();
  for (int round = 0; round < 16; ++round) round_of(512);
  EXPECT_EQ(g_heap_allocs.load(), before);
  EXPECT_EQ(fired, 2u * (1024u + 16u * 512u) + 17u);
}

TEST(EventQueue, NoHeapAllocationPerPacketHop) {
  // host -> OutputPort -> Link -> switch (ingress TAP) -> OutputPort
  // (egress TAP) -> Link -> host: once every ring has grown to the
  // traffic's backlog, a packet's trip allocates nothing.
  struct CountingSink : net::MirrorSink {
    std::uint64_t copies = 0;
    void on_mirrored(const net::Packet&, net::MirrorPoint) override {
      ++copies;
    }
  };
  Simulation sim;
  const net::Ipv4Address a = net::ipv4(10, 0, 0, 1);
  const net::Ipv4Address b = net::ipv4(10, 0, 0, 2);
  net::Host src(sim, "src", a);
  net::Host dst(sim, "dst", b);
  net::LegacySwitch sw("core");
  net::Link up(sim, 1'000'000'000, units::microseconds(50));
  net::Link down(sim, 100'000'000, units::microseconds(50));
  net::OutputPort src_port(sim, 4 << 20, up);
  net::OutputPort sw_port(sim, 4 << 20, down);
  up.set_sink(sw);
  down.set_sink(dst);
  src.attach_uplink(src_port);
  sw.route(b, sw.add_port(sw_port));
  CountingSink monitor;
  net::OpticalTapPair tap(sim, monitor);
  tap.attach(sw, sw_port);
  std::uint64_t received = 0;
  dst.bind(net::Protocol::kUdp, 9, [&received](const net::Packet&) {
    ++received;
  });
  const net::Packet pkt = net::make_udp_packet(a, b, 9, 9, 1000);
  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) src.send(pkt);
    sim.run();
  };
  burst(1024);  // warm-up: grow queues, lanes and the heap
  const std::uint64_t before = g_heap_allocs.load();
  for (int round = 0; round < 16; ++round) burst(256);
  EXPECT_EQ(g_heap_allocs.load(), before);
  EXPECT_EQ(received, 1024u + 16u * 256u);
  EXPECT_EQ(monitor.copies, 2u * received);
}

TEST(Simulation, EveryRepeatsUntilFalse) {
  Simulation sim;
  int ticks = 0;
  sim.every(10, 5, [&]() { return ++ticks < 4; });
  sim.run();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(sim.now(), 25u);  // 10, 15, 20, 25
}

TEST(Simulation, AfterIsRelative) {
  Simulation sim;
  sim.at(100, [&sim]() {
    sim.after(50, []() {});
  });
  sim.run();
  EXPECT_EQ(sim.now(), 150u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_in(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(7);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, UniformityChiSquaredCoarse) {
  Rng rng(9);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++buckets[rng.next_below(10)];
  }
  for (int b : buckets) {
    EXPECT_NEAR(static_cast<double>(b), n / 10.0, n / 10.0 * 0.1);
  }
}

}  // namespace
}  // namespace p4s::sim
