#include "speed_probe.h"

#include "common/walltime.h"
#include "metric_math.h"

namespace fusionbench {

namespace {

/** 4 MiB of 8-byte words: twice a core's L2. */
constexpr size_t kWords = size_t{1} << 19;
constexpr size_t kSteps = size_t{1} << 17;

} // namespace

SpeedProbe::SpeedProbe() : buf_(kWords, 0) {}

uint64_t
SpeedProbe::runNs()
{
    uint64_t t0 = fusion::walltime::monotonicNanos();
    uint64_t x = state_;
    for (size_t i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buf_[x & (kWords - 1)] += x;
        if ((x & 7) == 0)
            buf_[(x >> 3) & (kWords - 1)] ^= i;
    }
    // Fold the buffer into the state so the stores stay observable.
    state_ = (x ^ buf_[x & (kWords - 1)]) | 1;
    return fusion::walltime::monotonicNanos() - t0;
}

double
SpeedProbe::warmNs()
{
    runNs();
    return static_cast<double>(runNs());
}

double
SpeedProbe::medianNs(int n)
{
    std::vector<double> times;
    for (int i = 0; i < n; ++i)
        times.push_back(warmNs());
    return median(std::move(times));
}

} // namespace fusionbench
