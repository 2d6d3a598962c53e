#include "engine.h"

#include <algorithm>

namespace fusion::sim {

void
SimEngine::scheduleAt(SimTime when, Callback fn)
{
    FUSION_CHECK_MSG(when >= now_, "cannot schedule an event in the past");
    uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<uint32_t>(slab_.size());
        slab_.push_back(std::move(fn));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slab_[slot] = std::move(fn);
    }
    heap_.push_back(Key{when, nextSeq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

void
SimEngine::popAndRun()
{
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Key key = heap_.back();
    heap_.pop_back();
    // Move the callback out and free its slot first: it may schedule
    // more events, which can reuse the slot or grow the slab.
    Callback fn = std::move(slab_[key.slot]);
    freeSlots_.push_back(key.slot);
    now_ = key.time;
    ++eventsProcessed_;
    fn();
}

bool
SimEngine::step()
{
    if (heap_.empty())
        return false;
    popAndRun();
    return true;
}

void
SimEngine::run()
{
    while (!heap_.empty())
        popAndRun();
}

void
SimEngine::runUntil(SimTime until)
{
    while (!heap_.empty() && heap_.front().time <= until)
        popAndRun();
    if (now_ < until)
        now_ = until;
}

} // namespace fusion::sim
