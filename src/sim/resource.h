/**
 * @file
 * Queued rate-limited resources: the building block for disks, NIC
 * directions and CPU pools. A resource has `slots` parallel servers,
 * each serving work at `rate` units/second; requests are dispatched to
 * the earliest-free server (G/G/c queueing). Busy time and served
 * volume are tracked for the utilization and traffic figures.
 */
#ifndef FUSION_SIM_RESOURCE_H
#define FUSION_SIM_RESOURCE_H

#include <algorithm>
#include <string>
#include <vector>

#include "engine.h"

namespace fusion::sim {

/** A c-server FIFO queueing resource with a fixed service rate. */
class SimResource
{
  public:
    /**
     * @param engine owning simulation engine
     * @param name   diagnostic label, e.g. "node3.nicOut"
     * @param rate   service rate in work units (bytes) per second
     * @param slots  number of parallel servers (>= 1)
     */
    SimResource(SimEngine &engine, std::string name, double rate,
                size_t slots = 1);

    /**
     * Enqueues `work` units plus a fixed `extra_latency`, then invokes
     * `done` when service completes. Zero-work requests still pay the
     * extra latency.
     */
    void acquire(double work, double extra_latency,
                 std::function<void()> done);

    /** acquire() with no extra latency. */
    void
    acquire(double work, std::function<void()> done)
    {
        acquire(work, 0.0, std::move(done));
    }

    /**
     * Occupancy-only request: books `work` units on the earliest-free
     * server and counts them in the statistics exactly as acquire()
     * does, but schedules no completion event. Later requests still
     * queue behind it, so contention is unchanged; use it for work
     * nobody waits on (the network-stack CPU of a transfer).
     */
    void charge(double work);

    const std::string &name() const { return name_; }
    double rate() const { return rate_; }

    /**
     * Scales the effective service rate of future requests (fault
     * injection: a "slow" node serves at rate * scale, scale < 1).
     * In-flight requests keep the rate they were admitted with.
     */
    void
    setRateScale(double scale)
    {
        FUSION_CHECK_MSG(scale > 0.0, "rate scale must be positive");
        rateScale_ = scale;
    }
    double rateScale() const { return rateScale_; }

    uint64_t requestCount() const { return requests_; }
    double workServed() const { return workServed_; }
    double busySeconds() const { return busySeconds_; }

    /** Mean fraction of server capacity in use over [0, elapsed]. */
    double
    utilization(SimTime elapsed) const
    {
        if (elapsed <= 0.0)
            return 0.0;
        return busySeconds_ / (elapsed * static_cast<double>(slotFree_.size()));
    }

    void
    resetStats()
    {
        requests_ = 0;
        workServed_ = 0.0;
        busySeconds_ = 0.0;
    }

  private:
    /** Books a request on the earliest-free server; returns its end. */
    SimTime book(double work, double extra_latency);

    SimEngine &engine_;
    std::string name_;
    double rate_;
    double rateScale_ = 1.0;
    std::vector<SimTime> slotFree_; // next-free time per server
    uint64_t requests_ = 0;
    double workServed_ = 0.0;
    double busySeconds_ = 0.0;
};

/**
 * Completion barrier: runs a callback after `expected` signals. Create
 * via std::make_shared and capture in each branch's completion.
 */
class Join
{
  public:
    Join(size_t expected, std::function<void()> done)
        : remaining_(expected), done_(std::move(done))
    {
        if (remaining_ == 0) {
            auto fn = std::move(done_);
            fn();
        }
    }

    void
    signal()
    {
        FUSION_CHECK(remaining_ > 0);
        if (--remaining_ == 0) {
            auto fn = std::move(done_);
            fn();
        }
    }

  private:
    size_t remaining_;
    std::function<void()> done_;
};

} // namespace fusion::sim

#endif // FUSION_SIM_RESOURCE_H
