/**
 * @file
 * The four benchmark workloads and the run that measures one of them.
 *
 *   scan_mix       closed loop, 8 clients: Table 4 Q1-Q4 over lineitem
 *                  and taxi copies with per-query seeded literals; the
 *                  hot-chunk cache is off.
 *   hot_skew       open loop, Poisson arrivals through the shared-scan
 *                  scheduler, Zipf(0.99) over templates x copies, cache
 *                  at 10% of the working set.
 *   ingest_query   closed loop, 8 clients on the lineitem copies, plus a
 *                  seeded appendAsync stream on the same objects
 *                  with background compaction at its default policy.
 *   degraded_scan  the scan_mix generator under a fixed fault schedule
 *                  (one node crashed, one flapping and slowed), no
 *                  warm-up.
 *
 * A run is a series of rounds that replay the same seeded work, each on
 * a fresh store: set up, warm up, a timed phase until the measurement
 * window (the first windowOps completions, fixed per workload) is full,
 * drain, check. The simulated metrics cover the window, so they measure
 * the same work on every host, and every round must reproduce them.
 * The host-time metrics are rescaled to the speed probe's nominal speed
 * and combined across rounds block by block (see README.md). At least
 * three rounds run, more until the untraced windows total --seconds of
 * host time. In a traced run the second round is traced, so the
 * per-layer breakdown and the tracing overhead come from the same run.
 */
#ifndef FUSIONBENCH_WORKLOADS_H
#define FUSIONBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fusionbench {

struct Metric {
    double value = 0.0;
    std::string unit;
};

struct RunOptions {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct RunReport {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    /** Run environment and workload properties, one "key: value" each. */
    std::vector<std::string> info;
    /** First mismatches found by the correctness check. */
    std::vector<std::string> errors;
    /** Host spans of the traced round (empty when untraced). */
    std::string hostTraceJson;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Runs one workload end to end; see the file comment. */
RunReport runWorkload(const RunOptions &options);

} // namespace fusionbench

#endif // FUSIONBENCH_WORKLOADS_H
