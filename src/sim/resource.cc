#include "resource.h"

namespace fusion::sim {

SimResource::SimResource(SimEngine &engine, std::string name, double rate,
                         size_t slots)
    : engine_(engine), name_(std::move(name)), rate_(rate)
{
    FUSION_CHECK_MSG(rate > 0.0, "resource rate must be positive");
    FUSION_CHECK_MSG(slots >= 1, "resource needs at least one server");
    slotFree_.assign(slots, 0.0);
}

SimTime
SimResource::book(double work, double extra_latency)
{
    FUSION_CHECK(work >= 0.0 && extra_latency >= 0.0);

    // Dispatch to the earliest-free server.
    auto slot = std::min_element(slotFree_.begin(), slotFree_.end());
    SimTime start = std::max(engine_.now(), *slot);
    double service = work / (rate_ * rateScale_) + extra_latency;
    SimTime end = start + service;
    *slot = end;

    ++requests_;
    workServed_ += work;
    busySeconds_ += service;
    return end;
}

void
SimResource::acquire(double work, double extra_latency,
                     std::function<void()> done)
{
    engine_.scheduleAt(book(work, extra_latency), std::move(done));
}

void
SimResource::charge(double work)
{
    book(work, 0.0);
}

} // namespace fusion::sim
