/**
 * @file
 * The simulated storage cluster: a set of storage nodes plus a client
 * endpoint, message transfer between them (NIC queueing + wire
 * latency), placement helpers, failure injection and byte-accurate
 * network-traffic accounting.
 */
#ifndef FUSION_SIM_CLUSTER_H
#define FUSION_SIM_CLUSTER_H

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine.h"
#include "node.h"

namespace fusion::sim {

class FaultInjector;

/** Cluster shape and per-node parameters. */
struct ClusterConfig {
    size_t numNodes = 9; // storage nodes (paper: 9 + 1 client)
    NodeConfig node;
    uint64_t placementSeed = 0x5eed;
};

/** Simulated cluster. Owns the engine, the nodes and a client node. */
class Cluster
{
  public:
    explicit Cluster(const ClusterConfig &config);

    SimEngine &engine() { return engine_; }
    size_t numNodes() const { return nodes_.size(); }
    StorageNode &node(size_t id) { return *nodes_.at(id); }
    const StorageNode &node(size_t id) const { return *nodes_.at(id); }

    /** The client endpoint (has NICs/CPU but stores no blocks). */
    StorageNode &client() { return *client_; }

    const ClusterConfig &config() const { return config_; }

    /**
     * Picks `count` distinct storage-node ids uniformly at random using
     * the cluster's placement RNG (deterministic per seed).
     */
    std::vector<size_t> chooseNodes(size_t count);

    /** Storage node id a client request for `object_name` routes to
     *  (hash-based coordinator selection, paper §5). Dead nodes are
     *  skipped by linear probing. */
    size_t coordinatorFor(const std::string &object_name) const;

    /**
     * Simulates sending `bytes` from `src` to `dst`: queues on the
     * source's egress NIC, crosses the wire (pure latency, no
     * occupancy), queues on the destination's ingress NIC, then calls
     * `done`. Both endpoints' CPUs are charged network-stack work as
     * occupancy (SimResource::charge). Three events: egress done, wire
     * latency, ingress done. Counts toward total network traffic.
     */
    void transfer(StorageNode &src, StorageNode &dst, uint64_t bytes,
                  std::function<void()> done);

    void killNode(size_t id) { node(id).setAlive(false); }
    void reviveNode(size_t id) { node(id).setAlive(true); }
    size_t aliveNodeCount() const;

    /**
     * The fault injector driving this cluster (nullptr when none).
     * Attached by FaultInjector::arm(); stores use it to predict node
     * health at future simulated times when scheduling read retries.
     */
    FaultInjector *faultInjector() const { return faultInjector_; }
    void attachFaultInjector(FaultInjector *injector)
    {
        faultInjector_ = injector;
    }

    /**
     * Observer of applied fault-schedule events. Arguments: simulated
     * seconds, static_cast<int>(FaultKind), node id, slow factor.
     * Primitive arguments keep this header free of fault.h (which
     * includes cluster.h). Listeners run on the driver thread, in
     * registration order, after the event has been applied.
     */
    using FaultEventListener =
        std::function<void(double, int, size_t, double)>;

    /** Registers a listener; returns an id for removeFaultListener. */
    size_t addFaultListener(FaultEventListener listener)
    {
        faultListeners_.emplace_back(++nextFaultListenerId_,
                                     std::move(listener));
        return nextFaultListenerId_;
    }

    void removeFaultListener(size_t id)
    {
        for (auto it = faultListeners_.begin();
             it != faultListeners_.end(); ++it) {
            if (it->first == id) {
                faultListeners_.erase(it);
                return;
            }
        }
    }

    /** Called by FaultInjector::apply after stamping the event. */
    void notifyFaultEvent(double seconds, int kind, size_t node,
                          double slow_factor) const
    {
        for (const auto &[id, listener] : faultListeners_)
            listener(seconds, kind, node, slow_factor);
    }

    uint64_t totalNetworkBytes() const { return totalNetworkBytes_; }
    void resetTrafficStats() { totalNetworkBytes_ = 0; }

    /** Mean CPU utilization across storage nodes over [0, now]. */
    double meanStorageCpuUtilization() const;

  private:
    ClusterConfig config_;
    SimEngine engine_;
    std::vector<std::unique_ptr<StorageNode>> nodes_;
    std::unique_ptr<StorageNode> client_;
    Rng placementRng_;
    uint64_t totalNetworkBytes_ = 0;
    FaultInjector *faultInjector_ = nullptr;
    std::vector<std::pair<size_t, FaultEventListener>> faultListeners_;
    size_t nextFaultListenerId_ = 0;
};

} // namespace fusion::sim

#endif // FUSION_SIM_CLUSTER_H
