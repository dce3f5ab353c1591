// Tests for the discrete-event simulator.

#include "flooding/event_sim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace lhg::flooding {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_processed(), 3);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CallbacksCanScheduleMore) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, ScheduleInUsesCurrentTime) {
  Simulator sim;
  double observed = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(0.5, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 2.5);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsPastAndInvalid) {
  Simulator sim;
  sim.schedule_at(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(3.0, Simulator::Callback{}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), std::invalid_argument);
}

TEST(Simulator, ManyEventsStayConsistent) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 999; i >= 0; --i) {
    sim.schedule_at(static_cast<double>(i), [&, i] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
      (void)i;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_processed(), 1000);
}

TEST(Simulator, ReopenedTimestampsDrainInInsertionOrder) {
  // Pushes alternating between two timestamps abandon and reopen a
  // bucket per push, so each time is spread over several buckets; a
  // same-time insert made while the first of them drains opens one
  // more.  Execution must still follow insertion order within a time.
  obs::Registry registry;
  const obs::SimObs taps(&registry, nullptr);
  Simulator sim;
  sim.set_obs(&taps);
  std::vector<std::string> order;
  const auto round = [&](double base) {
    sim.schedule_at(base, [&, base] {
      order.push_back("root");
      for (int i = 0; i < 6; ++i) {
        const double t = base + (i % 2 == 0 ? 1.0 : 2.0);
        sim.schedule_at(t, [&, base, i] {
          order.push_back("a" + std::to_string(i));
          if (i == 0) {
            sim.schedule_at(base + 1.0, [&] { order.push_back("extra"); });
          }
        });
      }
    });
    sim.run();
  };
  const std::vector<std::string> expected = {"root", "a0", "a2", "a4",
                                             "extra", "a1", "a3", "a5"};

  // The drained-bucket size histogram, copied out of its snapshot.
  const auto bucket_events = [&registry] {
    const obs::Snapshot snap = registry.snapshot();
    const obs::MetricSample* sample = snap.find("sim.bucket_events");
    return sample == nullptr ? obs::MetricSample{} : *sample;
  };

  round(0.0);
  EXPECT_EQ(order, expected);
  const std::int64_t high_water = sim.slots_created();
  // Eight buckets drained, one event each.
  EXPECT_EQ(bucket_events().count, 8);
  EXPECT_EQ(bucket_events().sum, 8);

  // A second identical round runs on recycled buckets and slots: same
  // order, no new slab slots, and every reused bucket starts empty.
  order.clear();
  round(10.0);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.slots_created(), high_water);
  EXPECT_EQ(bucket_events().count, 16);
  EXPECT_EQ(bucket_events().sum, 16);
  EXPECT_EQ(sim.events_processed(), 16);
  EXPECT_EQ(sim.pending(), 0u);
}

// --- Typed deliver events -------------------------------------------

struct RecordingSink : Simulator::DeliverSink {
  struct Row {
    std::int32_t from, to, link;
    std::int64_t message;
    double time;
  };
  explicit RecordingSink(Simulator& simulator) : sim(&simulator) {}
  void on_deliver(std::int32_t from, std::int32_t to, std::int32_t link,
                  std::int64_t message) override {
    rows.push_back({from, to, link, message, sim->now()});
  }
  Simulator* sim;
  std::vector<Row> rows;
};

TEST(Simulator, DeliverEventsCarryArgumentsVerbatim) {
  Simulator sim;
  RecordingSink sink(sim);
  sim.schedule_deliver_at(2.5, &sink, 3, 4, 17, 0x1234567890abcdef);
  sim.schedule_deliver_in(1.0, &sink, 1, 2, 0, -5);
  sim.run();
  ASSERT_EQ(sink.rows.size(), 2u);
  EXPECT_EQ(sink.rows[0].from, 1);
  EXPECT_EQ(sink.rows[0].to, 2);
  EXPECT_EQ(sink.rows[0].link, 0);
  EXPECT_EQ(sink.rows[0].message, -5);
  EXPECT_DOUBLE_EQ(sink.rows[0].time, 1.0);
  EXPECT_EQ(sink.rows[1].from, 3);
  EXPECT_EQ(sink.rows[1].to, 4);
  EXPECT_EQ(sink.rows[1].link, 17);
  EXPECT_EQ(sink.rows[1].message, 0x1234567890abcdef);
  EXPECT_DOUBLE_EQ(sink.rows[1].time, 2.5);
  EXPECT_EQ(sim.events_processed(), 2);
}

TEST(Simulator, DeliverAndCallbackEventsInterleaveByInsertionOrder) {
  Simulator sim;
  RecordingSink sink(sim);
  std::vector<int> order;
  sim.schedule_deliver_at(1.0, &sink, 0, 1, 0, 100);
  sim.schedule_at(1.0, [&] { order.push_back(static_cast<int>(sink.rows.size())); });
  sim.schedule_deliver_at(1.0, &sink, 1, 2, 1, 200);
  sim.run();
  // Callback ran between the two deliveries (insertion-seq tie-break).
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 1);
  ASSERT_EQ(sink.rows.size(), 2u);
  EXPECT_EQ(sink.rows[0].message, 100);
  EXPECT_EQ(sink.rows[1].message, 200);
}

// --- Slab storage: zero allocations in steady state -----------------

TEST(Simulator, DeliverPathNeverTouchesTheSlab) {
  // A self-sustaining chain: each delivery schedules the next.  The
  // per-message path carries its payload inside the heap item, so no
  // slab slot and no callback heap allocation may ever happen.
  Simulator sim;
  std::int64_t hops = 0;
  struct ChainSink : Simulator::DeliverSink {
    Simulator* sim = nullptr;
    std::int64_t* hops = nullptr;
    void on_deliver(std::int32_t from, std::int32_t to, std::int32_t link,
                    std::int64_t) override {
      if (++*hops < 10000) sim->schedule_deliver_in(1.0, this, from, to, link, *hops);
    }
  } chain;
  chain.sim = &sim;
  chain.hops = &hops;
  sim.schedule_deliver_at(0.0, &chain, 0, 1, 0, 0);
  sim.run();
  EXPECT_EQ(hops, 10000);
  EXPECT_EQ(sim.slots_created(), 0);
  EXPECT_EQ(sim.callback_heap_allocations(), 0);
}

TEST(Simulator, SlabRecyclesCallbackSlotsInSteadyState) {
  // A self-sustaining callback chain: the queue never holds more than a
  // handful of events, so after warm-up the slab must stop growing no
  // matter how many events flow.
  Simulator sim;
  std::int64_t fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10000) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run_until(100.0);  // warm up
  const std::int64_t high_water = sim.slots_created();
  EXPECT_GT(high_water, 0);
  sim.run();
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(sim.slots_created(), high_water)
      << "steady-state callbacks must recycle slab slots, not allocate";
}

TEST(Simulator, SmallCapturesStayInline) {
  Simulator sim;
  // 40 bytes of capture: inside kInlineCallbackCapacity, so no heap.
  std::int64_t a = 1, b = 2, c = 3, d = 4;
  double sum = 0.0;
  double* out = &sum;
  sim.schedule_at(1.0, [a, b, c, d, out] {
    *out = static_cast<double>(a + b + c + d);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 10.0);
  EXPECT_EQ(sim.callback_heap_allocations(), 0);
}

TEST(Simulator, OversizedCapturesFallBackToHeapAndStillRun) {
  Simulator sim;
  struct Big {
    double payload[16];  // 128 bytes: over the inline budget
  };
  Big big{};
  big.payload[7] = 42.0;
  double seen = 0.0;
  sim.schedule_at(1.0, [big, &seen] { seen = big.payload[7]; });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 42.0);
  EXPECT_EQ(sim.callback_heap_allocations(), 1);
}

TEST(Simulator, DestructorReleasesQueuedCallbacks) {
  // A shared_ptr captured by a never-executed callback must still be
  // released at simulator teardown (the destroy path, not the invoke
  // path).
  auto token = std::make_shared<int>(5);
  {
    Simulator sim;
    sim.schedule_at(1.0, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace lhg::flooding
