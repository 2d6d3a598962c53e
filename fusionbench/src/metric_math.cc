#include "metric_math.h"

#include <algorithm>
#include <cmath>

namespace fusionbench {

namespace {

/** 1-based nearest rank of percentile p among n samples. */
size_t
nearestRank(size_t n, double p)
{
    // The relative slack keeps p = 99.9 of 10000 at rank 9990, not the
    // 9991 a rounding error in p / 100 * n would give.
    double x = p / 100.0 * static_cast<double>(n);
    double rank = std::ceil(x - 1e-9 * std::max(1.0, x));
    return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    size_t rank = nearestRank(samples.size(), p);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

bool
percentileSupported(size_t n, double p)
{
    if (n == 0)
        return false;
    return n - nearestRank(n, p) >= kTailSupport;
}

double
highestSupportedPercentile(size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 50.0})
        if (percentileSupported(n, p))
            return p;
    return 0.0;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
    double hi = samples[mid];
    if (samples.size() % 2 == 1)
        return hi;
    double lo = *std::max_element(samples.begin(), samples.begin() + mid);
    return (lo + hi) / 2.0;
}

double
blockwiseMedianSum(const std::vector<std::vector<double>> &rounds)
{
    if (rounds.empty())
        return 0.0;
    double total = 0.0;
    for (size_t b = 0; b < rounds.front().size(); ++b) {
        std::vector<double> block;
        for (const std::vector<double> &r : rounds)
            block.push_back(r.at(b));
        total += median(std::move(block));
    }
    return total;
}

bool
validName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

uint64_t
coveredLength(std::vector<Interval> children, Interval parent)
{
    for (Interval &c : children) {
        c.begin = std::clamp(c.begin, parent.begin, parent.end);
        c.end = std::clamp(c.end, parent.begin, parent.end);
    }
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.begin < b.begin;
              });
    uint64_t covered = 0;
    uint64_t reach = parent.begin; // end of the union so far
    for (const Interval &c : children) {
        uint64_t from = std::max(c.begin, reach);
        if (c.end > from) {
            covered += c.end - from;
            reach = c.end;
        }
    }
    return covered;
}

uint64_t
selfLength(const std::vector<Interval> &children, Interval parent)
{
    uint64_t length = parent.end > parent.begin ? parent.end - parent.begin
                                                : 0;
    return length - coveredLength(children, parent);
}

} // namespace fusionbench
