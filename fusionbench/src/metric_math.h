/**
 * @file
 * The benchmark's metric arithmetic, kept free of store dependencies so
 * tests/metric_math_test.cc can pin it down: percentiles under the
 * "at least ten samples beyond" rule (failed operations count as
 * infinite latency), ratios with a zero base, self time of a span
 * minus the union of its children, the cross-round host-time estimate,
 * and the metric-name alphabet.
 */
#ifndef FUSIONBENCH_METRIC_MATH_H
#define FUSIONBENCH_METRIC_MATH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fusionbench {

/** Samples at or beyond a percentile's rank a report needs (the
 *  choosing-metrics rule: a tail percentile is reported only when at
 *  least this many samples lie beyond it). */
inline constexpr size_t kTailSupport = 10;

/**
 * Nearest-rank percentile (p in (0, 100]) of `samples`. Failed
 * operations enter as +infinity, so a failure inside the tail makes the
 * percentile infinite rather than silently dropping out. 0 when empty.
 */
double percentile(std::vector<double> samples, double p);

/** True when at least kTailSupport of `n` samples rank strictly above
 *  the nearest-rank position of percentile p. */
bool percentileSupported(size_t n, double p);

/** The highest of {99.9, 99, 95, 90, 50} that `n` samples support, or
 *  0 when none is. */
double highestSupportedPercentile(size_t n);

/** num / den, or 0 when den is 0 (an idle layer reports 0, not NaN). */
double ratio(double num, double den);

/** Median of `samples` (the mean of the middle two for an even count);
 *  0 when empty. */
double median(std::vector<double> samples);

/**
 * Host time of one measurement window from several rounds that replay
 * the same work: `rounds[r][b]` is round r's host time for block b of
 * the window. Returns the sum over blocks of each block's median across
 * rounds, so a stretch of host contention that slows one round's block
 * drops out while every block's work, costly ones included, still
 * counts. Rounds must have equal block counts; 0 when there are none.
 */
double blockwiseMedianSum(const std::vector<std::vector<double>> &rounds);

/** A metric or workload name: 1-64 characters of [A-Za-z0-9_.-],
 *  starting with a letter or digit. */
bool validName(const std::string &name);

/** A half-open host-time interval [begin, end) in nanoseconds. */
struct Interval {
    uint64_t begin = 0;
    uint64_t end = 0;
};

/** Length of the union of `children`, each clipped to `parent`. */
uint64_t coveredLength(std::vector<Interval> children, Interval parent);

/** parent length minus coveredLength(children, parent). */
uint64_t selfLength(const std::vector<Interval> &children, Interval parent);

} // namespace fusionbench

#endif // FUSIONBENCH_METRIC_MATH_H
