/**
 * @file
 * A fixed host kernel that measures how fast the machine currently runs
 * this process. On a shared host the speed a process gets drifts by a
 * quarter or more within seconds (other tenants contend for caches,
 * memory bandwidth and core frequency); that drift is not the program's
 * cost. The benchmark runs the probe between measured blocks and
 * expresses host times at the probe's nominal speed: a time t measured
 * while the probe took p nanoseconds counts as t * kNominalNs / p.
 *
 * The kernel is the benchmark's own code (random read-modify-writes
 * over a buffer larger than a core's L2, with a dependent xorshift
 * chain), so changes to the library never change what it measures.
 */
#ifndef FUSIONBENCH_SPEED_PROBE_H
#define FUSIONBENCH_SPEED_PROBE_H

#include <cstdint>
#include <vector>

namespace fusionbench {

class SpeedProbe
{
  public:
    /** The speed normalized host times are expressed at: a round
     *  figure near a warm probe run's host time between measured blocks
     *  on a 4-core Xeon VM (Sapphire Rapids class, 2 MB L2 per core). */
    static constexpr double kNominalNs = 1.0e6;

    SpeedProbe();

    /** Host nanoseconds of a run that follows an untimed one, so the
     *  buffer is back in cache whatever the program did before. */
    double warmNs();

    /** Median of `n` warmNs() readings. */
    double medianNs(int n);

  private:
    /** Runs the kernel once; returns its host nanoseconds. */
    uint64_t runNs();

    std::vector<uint64_t> buf_;
    uint64_t state_ = 88172645463325252ULL;
};

} // namespace fusionbench

#endif // FUSIONBENCH_SPEED_PROBE_H
