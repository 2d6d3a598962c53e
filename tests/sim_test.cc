/**
 * @file
 * Unit tests for src/sim: event ordering (against a reference (time,
 * seq) model), callback ownership, queued resources (single and
 * multi-server, occupancy charges), joins, cluster transfers and
 * utilization accounting.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "sim/node.h"
#include "sim/resource.h"

namespace fusion::sim {
namespace {

TEST(SimEngineTest, EventsFireInTimeOrder)
{
    SimEngine engine;
    std::vector<int> order;
    engine.schedule(3.0, [&] { order.push_back(3); });
    engine.schedule(1.0, [&] { order.push_back(1); });
    engine.schedule(2.0, [&] { order.push_back(2); });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(engine.now(), 3.0);
    EXPECT_EQ(engine.eventsProcessed(), 3u);
}

TEST(SimEngineTest, EqualTimesFireInScheduleOrder)
{
    SimEngine engine;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        engine.schedule(1.0, [&order, i] { order.push_back(i); });
    engine.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SimEngineTest, EventsCanScheduleMoreEvents)
{
    SimEngine engine;
    int fired = 0;
    std::function<void()> chain = [&]() {
        ++fired;
        if (fired < 5)
            engine.schedule(1.0, chain);
    };
    engine.schedule(0.0, chain);
    engine.run();
    EXPECT_EQ(fired, 5);
    EXPECT_DOUBLE_EQ(engine.now(), 4.0);
}

TEST(SimEngineTest, RunUntilStopsAtDeadline)
{
    SimEngine engine;
    int fired = 0;
    engine.schedule(1.0, [&] { ++fired; });
    engine.schedule(5.0, [&] { ++fired; });
    engine.runUntil(2.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(engine.now(), 2.0);
    engine.run();
    EXPECT_EQ(fired, 2);
}

// An event that schedules two children from inside its own run, down
// to `depth` levels, and counts every copy made of it.
struct CopyCountingEvent {
    SimEngine *engine;
    int *copies;
    int *fired;
    int depth;

    CopyCountingEvent(SimEngine *e, int *c, int *f, int d)
        : engine(e), copies(c), fired(f), depth(d)
    {
    }
    CopyCountingEvent(const CopyCountingEvent &other)
        : engine(other.engine), copies(other.copies), fired(other.fired),
          depth(other.depth)
    {
        ++*copies;
    }
    CopyCountingEvent(CopyCountingEvent &&) noexcept = default;

    void
    operator()() const
    {
        ++*fired;
        if (depth == 0)
            return;
        engine->schedule(0.5, CopyCountingEvent(engine, copies, fired,
                                                depth - 1));
        engine->schedule(0.0, CopyCountingEvent(engine, copies, fired,
                                                depth - 1));
    }
};

TEST(SimEngineTest, CallbacksAreNeverCopiedAfterScheduling)
{
    SimEngine engine;
    int copies = 0;
    int fired = 0;
    // 64 roots of depth 6: 64 * (2^7 - 1) events. The slab and the heap
    // both grow and slots are reused while callbacks schedule more.
    for (int i = 0; i < 64; ++i)
        engine.scheduleAt(0.25 * (i % 8),
                          CopyCountingEvent(&engine, &copies, &fired, 6));
    engine.run();
    EXPECT_EQ(fired, 64 * 127);
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(engine.eventsProcessed(), uint64_t(64 * 127));
}

TEST(SimEngineTest, RandomNestedSchedulingMatchesReferenceOrder)
{
    // Reference model: the pending set ordered by (time, scheduling
    // order). Every fired event must be its minimum.
    using Key = std::pair<SimTime, uint64_t>;
    const uint64_t kTotal = 10000;
    SimEngine engine;
    Rng rng(20260917);
    std::set<Key> pending;
    uint64_t scheduled = 0;
    uint64_t fired = 0;
    uint64_t mismatches = 0;
    bool deadline_broken = false;
    SimTime deadline = -1.0; // set while runUntil is running

    // Quantized times make ties common; delays of 0 tie with now().
    std::function<void(SimTime)> add = [&](SimTime when) {
        Key key{when, scheduled++};
        pending.insert(key);
        engine.scheduleAt(when, [&, key] {
            ++fired;
            if (pending.empty() || *pending.begin() != key ||
                engine.now() != key.first)
                ++mismatches;
            if (deadline >= 0.0 && key.first > deadline)
                deadline_broken = true;
            pending.erase(key);
            int children = static_cast<int>(rng.uniformInt(0, 2));
            for (int c = 0; c < children && scheduled < kTotal; ++c)
                add(engine.now() + 0.5 * static_cast<double>(
                                          rng.uniformInt(0, 3)));
        });
    };
    for (int i = 0; i < 2000; ++i)
        add(0.5 * static_cast<double>(rng.uniformInt(0, 40)));

    deadline = 10.0;
    engine.runUntil(deadline);
    deadline = -1.0;
    EXPECT_FALSE(deadline_broken);
    EXPECT_DOUBLE_EQ(engine.now(), 10.0);
    EXPECT_GT(fired, 0u);
    // Nothing at or before the deadline is left; everything later is
    // still queued (run() below fires all of it).
    ASSERT_FALSE(pending.empty());
    EXPECT_GT(pending.begin()->first, 10.0);
    EXPECT_EQ(engine.eventsProcessed(), fired);

    // Top up to the full count from outside any event, then drain.
    while (scheduled < kTotal)
        add(engine.now() + 0.5 * static_cast<double>(rng.uniformInt(0, 20)));
    engine.run();
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(fired, kTotal);
    EXPECT_TRUE(pending.empty());
    EXPECT_EQ(engine.eventsProcessed(), kTotal);
    EXPECT_FALSE(engine.step());
}

TEST(SimResourceTest, SingleServerSerializesRequests)
{
    SimEngine engine;
    SimResource resource(engine, "disk", 100.0); // 100 units/s
    std::vector<double> completions;
    // Three 100-unit requests issued together take 1, 2, 3 seconds.
    for (int i = 0; i < 3; ++i)
        resource.acquire(100.0,
                         [&] { completions.push_back(engine.now()); });
    engine.run();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_DOUBLE_EQ(completions[0], 1.0);
    EXPECT_DOUBLE_EQ(completions[1], 2.0);
    EXPECT_DOUBLE_EQ(completions[2], 3.0);
    EXPECT_DOUBLE_EQ(resource.workServed(), 300.0);
    EXPECT_DOUBLE_EQ(resource.busySeconds(), 3.0);
}

TEST(SimResourceTest, MultiServerRunsInParallel)
{
    SimEngine engine;
    SimResource resource(engine, "cpu", 100.0, 3);
    std::vector<double> completions;
    for (int i = 0; i < 3; ++i)
        resource.acquire(100.0,
                         [&] { completions.push_back(engine.now()); });
    engine.run();
    for (double t : completions)
        EXPECT_DOUBLE_EQ(t, 1.0);
    // A fourth request queues behind the earliest-free server.
    resource.acquire(100.0, [&] { completions.push_back(engine.now()); });
    engine.run();
    EXPECT_DOUBLE_EQ(completions.back(), 2.0);
}

TEST(SimResourceTest, ExtraLatencyAdds)
{
    SimEngine engine;
    SimResource resource(engine, "nic", 1000.0);
    double done_at = -1;
    resource.acquire(500.0, 0.25, [&] { done_at = engine.now(); });
    engine.run();
    EXPECT_DOUBLE_EQ(done_at, 0.75);
}

TEST(SimResourceTest, ZeroWorkCompletesImmediately)
{
    SimEngine engine;
    SimResource resource(engine, "nic", 1000.0);
    bool done = false;
    resource.acquire(0.0, [&] { done = true; });
    engine.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(SimResourceTest, UtilizationFraction)
{
    SimEngine engine;
    SimResource resource(engine, "disk", 100.0, 2);
    resource.acquire(100.0, [] {});
    engine.run();
    engine.schedule(1.0, [] {}); // idle second
    engine.run();
    // 1 busy server-second over 2 seconds x 2 servers = 0.25.
    EXPECT_DOUBLE_EQ(resource.utilization(engine.now()), 0.25);
}

TEST(SimResourceTest, ChargeOccupiesSlotWithoutEvent)
{
    SimEngine engine;
    SimResource resource(engine, "cpu", 100.0);
    resource.charge(100.0); // occupies the server for [0, 1]
    EXPECT_FALSE(engine.step()); // and queued no event
    EXPECT_EQ(resource.requestCount(), 1u);
    EXPECT_DOUBLE_EQ(resource.busySeconds(), 1.0);
    EXPECT_DOUBLE_EQ(resource.workServed(), 100.0);

    double done_at = -1;
    resource.acquire(50.0, [&] { done_at = engine.now(); });
    engine.run();
    // The acquire queued behind the charge; only it produced an event.
    EXPECT_DOUBLE_EQ(done_at, 1.5);
    EXPECT_EQ(engine.eventsProcessed(), 1u);
    EXPECT_EQ(resource.requestCount(), 2u);
    EXPECT_DOUBLE_EQ(resource.busySeconds(), 1.5);
    EXPECT_DOUBLE_EQ(resource.workServed(), 150.0);
}

TEST(SimResourceTest, ChargeTimesLikeAnAcquireNobodyWaitsOn)
{
    // The same request stream on two 2-server resources: one books its
    // odd requests with charge(), the other with acquire(..., [] {}).
    // Every completion the two report must agree.
    SimEngine charged_engine, acquired_engine;
    SimResource charged(charged_engine, "cpu", 100.0, 2);
    SimResource acquired(acquired_engine, "cpu", 100.0, 2);
    std::vector<double> charged_done, acquired_done;
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        double work = static_cast<double>(rng.uniformInt(0, 300));
        double gap = 0.25 * static_cast<double>(rng.uniformInt(0, 4));
        if (i % 2 == 1) {
            charged.charge(work);
            acquired.acquire(work, [] {});
        } else {
            charged.acquire(work, [&] {
                charged_done.push_back(charged_engine.now());
            });
            acquired.acquire(work, [&] {
                acquired_done.push_back(acquired_engine.now());
            });
        }
        charged_engine.runUntil(charged_engine.now() + gap);
        acquired_engine.runUntil(acquired_engine.now() + gap);
    }
    charged_engine.run();
    acquired_engine.run();
    EXPECT_EQ(charged_done, acquired_done);
    EXPECT_EQ(charged_done.size(), 100u);
    EXPECT_EQ(charged.requestCount(), acquired.requestCount());
    EXPECT_EQ(charged.busySeconds(), acquired.busySeconds());
    EXPECT_EQ(charged.workServed(), acquired.workServed());
    EXPECT_EQ(charged_engine.eventsProcessed(), 100u);
}

TEST(JoinTest, FiresAfterAllSignals)
{
    bool fired = false;
    auto join = std::make_shared<Join>(3, [&] { fired = true; });
    join->signal();
    join->signal();
    EXPECT_FALSE(fired);
    join->signal();
    EXPECT_TRUE(fired);
}

TEST(JoinTest, ZeroExpectedFiresImmediately)
{
    bool fired = false;
    Join join(0, [&] { fired = true; });
    EXPECT_TRUE(fired);
}

TEST(ClusterTest, TransferTimingAndTraffic)
{
    ClusterConfig config;
    config.numNodes = 3;
    config.node.nicBandwidth = 1000.0; // bytes/s
    config.node.rpcLatency = 0.1;
    Cluster cluster(config);

    double done_at = -1;
    cluster.transfer(cluster.node(0), cluster.node(1), 500,
                     [&] { done_at = cluster.engine().now(); });
    cluster.engine().run();
    // Egress 0.5 s + wire 0.1 s + ingress 0.5 s.
    EXPECT_NEAR(done_at, 1.1, 1e-9);
    EXPECT_EQ(cluster.totalNetworkBytes(), 500u);
    // Three events (egress, wire, ingress); the network-stack CPU of
    // both endpoints is charged as occupancy with no event.
    EXPECT_EQ(cluster.engine().eventsProcessed(), 3u);
    EXPECT_EQ(cluster.node(0).cpu().requestCount(), 1u);
    EXPECT_EQ(cluster.node(1).cpu().requestCount(), 1u);
    EXPECT_GT(cluster.node(0).cpu().busySeconds(), 0.0);
    EXPECT_EQ(cluster.node(0).cpu().busySeconds(),
              cluster.node(1).cpu().busySeconds());
}

TEST(ClusterTest, ConcurrentTransfersShareNics)
{
    ClusterConfig config;
    config.numNodes = 3;
    config.node.nicBandwidth = 1000.0;
    config.node.rpcLatency = 0.0;
    Cluster cluster(config);

    std::vector<double> done;
    // Two transfers out of node 0 contend on its egress NIC.
    cluster.transfer(cluster.node(0), cluster.node(1), 1000,
                     [&] { done.push_back(cluster.engine().now()); });
    cluster.transfer(cluster.node(0), cluster.node(2), 1000,
                     [&] { done.push_back(cluster.engine().now()); });
    cluster.engine().run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_NEAR(done[0], 2.0, 1e-9); // 1s egress queue + 1s ingress
    EXPECT_NEAR(done[1], 3.0, 1e-9);
}

TEST(ClusterTest, ChooseNodesDistinct)
{
    ClusterConfig config;
    config.numNodes = 9;
    Cluster cluster(config);
    for (int trial = 0; trial < 20; ++trial) {
        auto nodes = cluster.chooseNodes(9);
        std::sort(nodes.begin(), nodes.end());
        for (size_t i = 0; i < nodes.size(); ++i)
            EXPECT_EQ(nodes[i], i);
    }
    auto some = cluster.chooseNodes(4);
    std::set<size_t> distinct(some.begin(), some.end());
    EXPECT_EQ(distinct.size(), 4u);
}

TEST(ClusterTest, CoordinatorHashStableAndSkipsDeadNodes)
{
    ClusterConfig config;
    config.numNodes = 5;
    Cluster cluster(config);
    size_t coord = cluster.coordinatorFor("my-object");
    EXPECT_EQ(cluster.coordinatorFor("my-object"), coord);
    cluster.killNode(coord);
    size_t moved = cluster.coordinatorFor("my-object");
    EXPECT_NE(moved, coord);
    EXPECT_TRUE(cluster.node(moved).alive());
    cluster.reviveNode(coord);
    EXPECT_EQ(cluster.coordinatorFor("my-object"), coord);
}

TEST(StorageNodeTest, BlockStorage)
{
    SimEngine engine;
    StorageNode node(engine, 0, NodeConfig{});
    EXPECT_EQ(node.findBlock("a"), nullptr);
    node.putBlock("a", Bytes{1, 2, 3});
    ASSERT_NE(node.findBlock("a"), nullptr);
    EXPECT_EQ(node.findBlock("a")->size(), 3u);
    EXPECT_EQ(node.storedBytes(), 3u);
    node.putBlock("a", Bytes{9}); // overwrite adjusts accounting
    EXPECT_EQ(node.storedBytes(), 1u);
    EXPECT_TRUE(node.dropBlock("a"));
    EXPECT_FALSE(node.dropBlock("a"));
    EXPECT_EQ(node.storedBytes(), 0u);
}


TEST(QueueingTest, StableOpenLoopHasNoQueueing)
{
    // D/D/1 with utilization 0.5: every request starts immediately.
    SimEngine engine;
    SimResource server(engine, "srv", 1.0);
    std::vector<double> latencies;
    for (int i = 0; i < 20; ++i) {
        engine.scheduleAt(static_cast<double>(i), [&, i] {
            double issued = engine.now();
            server.acquire(0.5, [&, issued] {
                latencies.push_back(engine.now() - issued);
            });
        });
    }
    engine.run();
    ASSERT_EQ(latencies.size(), 20u);
    for (double l : latencies)
        EXPECT_DOUBLE_EQ(l, 0.5);
}

TEST(QueueingTest, OverloadedServerQueueGrowsLinearly)
{
    // D/D/1 with utilization 2: the i-th request waits ~i * 0.5s.
    SimEngine engine;
    SimResource server(engine, "srv", 1.0);
    std::vector<double> latencies;
    for (int i = 0; i < 10; ++i) {
        engine.scheduleAt(static_cast<double>(i) * 0.5, [&, i] {
            double issued = engine.now();
            server.acquire(1.0, [&, issued] {
                latencies.push_back(engine.now() - issued);
            });
        });
    }
    engine.run();
    ASSERT_EQ(latencies.size(), 10u);
    for (size_t i = 1; i < latencies.size(); ++i)
        EXPECT_GT(latencies[i], latencies[i - 1]);
    EXPECT_NEAR(latencies.back(), 1.0 + 9 * 0.5, 1e-9);
}

TEST(QueueingTest, MultiServerAbsorbsBursts)
{
    SimEngine engine;
    SimResource pool(engine, "cpu", 1.0, 4);
    std::vector<double> done;
    for (int i = 0; i < 8; ++i)
        pool.acquire(1.0, [&] { done.push_back(engine.now()); });
    engine.run();
    // Two waves of four.
    EXPECT_DOUBLE_EQ(done[3], 1.0);
    EXPECT_DOUBLE_EQ(done[7], 2.0);
}

TEST(ClusterTest, AliveCountTracksFailures)
{
    ClusterConfig config;
    config.numNodes = 4;
    Cluster cluster(config);
    EXPECT_EQ(cluster.aliveNodeCount(), 4u);
    cluster.killNode(1);
    cluster.killNode(2);
    EXPECT_EQ(cluster.aliveNodeCount(), 2u);
    cluster.reviveNode(1);
    EXPECT_EQ(cluster.aliveNodeCount(), 3u);
}

} // namespace
} // namespace fusion::sim
