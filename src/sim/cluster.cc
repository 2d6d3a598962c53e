#include "cluster.h"

#include <numeric>

namespace fusion::sim {

Cluster::Cluster(const ClusterConfig &config)
    : config_(config), placementRng_(config.placementSeed)
{
    FUSION_CHECK_MSG(config.numNodes >= 1, "cluster needs storage nodes");
    nodes_.reserve(config.numNodes);
    for (size_t i = 0; i < config.numNodes; ++i)
        nodes_.push_back(
            std::make_unique<StorageNode>(engine_, i, config.node));
    client_ = std::make_unique<StorageNode>(engine_, config.numNodes,
                                            config.node);
}

std::vector<size_t>
Cluster::chooseNodes(size_t count)
{
    FUSION_CHECK_MSG(count <= nodes_.size(),
                     "placement wants more nodes than the cluster has");
    std::vector<size_t> ids(nodes_.size());
    std::iota(ids.begin(), ids.end(), 0);
    placementRng_.shuffle(ids);
    ids.resize(count);
    return ids;
}

size_t
Cluster::coordinatorFor(const std::string &object_name) const
{
    // FNV-1a over the object name; stable across runs.
    uint64_t h = 1469598103934665603ULL;
    for (char c : object_name) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ULL;
    }
    for (size_t probe = 0; probe < nodes_.size(); ++probe) {
        size_t id = (h + probe) % nodes_.size();
        if (nodes_[id]->alive())
            return id;
    }
    return h % nodes_.size(); // all dead: caller will fail the request
}

void
Cluster::transfer(StorageNode &src, StorageNode &dst, uint64_t bytes,
                  std::function<void()> done)
{
    totalNetworkBytes_ += bytes;

    // Network-stack CPU: both endpoints burn cores proportionally to
    // the bytes they push/pull. Charged as occupancy (it contends with
    // decode work) without serializing the transfer itself, and with
    // no completion event: nothing waits on it.
    double stack_work =
        static_cast<double>(bytes) * config_.node.networkCpuFactor;
    if (stack_work > 0.0) {
        src.cpu().charge(stack_work);
        dst.cpu().charge(stack_work);
    }

    double wire_latency = config_.node.rpcLatency;
    SimResource &in = dst.nicIn();
    SimEngine &engine = engine_;
    src.nicOut().acquire(
        static_cast<double>(bytes),
        [&engine, &in, bytes, wire_latency, done = std::move(done)]() mutable {
            engine.schedule(wire_latency, [&in, bytes,
                                           done = std::move(done)]() mutable {
                in.acquire(static_cast<double>(bytes), std::move(done));
            });
        });
}

size_t
Cluster::aliveNodeCount() const
{
    size_t count = 0;
    for (const auto &node : nodes_)
        count += node->alive() ? 1 : 0;
    return count;
}

double
Cluster::meanStorageCpuUtilization() const
{
    if (nodes_.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &node : nodes_)
        total += node->cpu().utilization(engine_.now());
    return total / static_cast<double>(nodes_.size());
}

} // namespace fusion::sim
