/**
 * @file
 * Discrete-event simulation engine. Fusion's evaluation metrics are
 * ratios of time spent moving bytes through disks, NICs and CPUs; a
 * deterministic DES reproduces the paper's latency shapes (including
 * the p50/p99 gap created by queueing) without a physical cluster.
 */
#ifndef FUSION_SIM_ENGINE_H
#define FUSION_SIM_ENGINE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"

namespace fusion::sim {

/** Simulated time in seconds since simulation start. */
using SimTime = double;

/**
 * A time-ordered event queue with a current-time cursor. Events
 * scheduled at equal times fire in scheduling order (stable): the
 * queue orders by (time, seq), seq being the scheduling count.
 *
 * Storage: callbacks live in a slab of reusable slots and a binary
 * min-heap orders small (time, seq, slot) keys, so sifting never moves
 * a callback. A callback is moved into its slot once when scheduled
 * and moved out once before it runs; it is never copied.
 */
class SimEngine
{
  public:
    using Callback = std::function<void()>;

    SimTime now() const { return now_; }

    /** Schedules `fn` to run `delay` seconds from now (delay >= 0). */
    void
    schedule(SimTime delay, Callback fn)
    {
        scheduleAt(now_ + delay, std::move(fn));
    }

    /** Schedules `fn` at an absolute time >= now(). */
    void scheduleAt(SimTime when, Callback fn);

    /**
     * Processes the single earliest event and advances the clock to
     * it. Returns false (and leaves the clock alone) when the queue is
     * empty. Incremental drivers — the shared-scan scheduler's
     * awaitAny — interleave steps with their own completion checks.
     */
    bool step();

    /** Runs events until the queue is empty. */
    void run();

    /** Runs events with time <= `until`; later events stay queued. */
    void runUntil(SimTime until);

    uint64_t eventsProcessed() const { return eventsProcessed_; }

  private:
    struct Key {
        SimTime time;
        uint64_t seq;
        uint32_t slot; // index into slab_
    };

    /** Heap order: true when `a` fires after `b`. */
    static bool
    later(const Key &a, const Key &b)
    {
        if (a.time != b.time)
            return a.time > b.time;
        return a.seq > b.seq;
    }

    /** Pops the earliest event, advances the clock and runs it. */
    void popAndRun();

    std::vector<Key> heap_;
    std::vector<Callback> slab_;
    std::vector<uint32_t> freeSlots_;
    SimTime now_ = 0.0;
    uint64_t nextSeq_ = 0;
    uint64_t eventsProcessed_ = 0;
};

} // namespace fusion::sim

#endif // FUSION_SIM_ENGINE_H
