/**
 * @file
 * fusionbench: the repository's end-to-end benchmark for FusionStore.
 *
 *   fusionbench --workload NAME --seed N --seconds S --trace 0|1
 *               [--trace-out PATH]
 *
 * Prints the run environment, workload properties and every metric by
 * name and unit, then, as the last line of standard output, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
 * when any query result or append fails the correctness check, 2 on bad
 * arguments and 3 when the build is unoptimised. --trace-out writes the
 * traced round's host spans as Chrome trace JSON.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "metric_math.h"
#include "obs/trace.h"
#include "workloads.h"

#ifndef FUSIONBENCH_BUILD_TYPE
#define FUSIONBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace fusionbench;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "fusionbench: %s\nusage: fusionbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
                 why);
    return 2;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    std::string trace_out;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != value.c_str() && *end == '\0' &&
                           options.seconds > 0.0;
        } else if (arg == "--trace") {
            have_trace = value == "0" || value == "1";
            options.trace = value == "1";
        } else if (arg == "--trace-out") {
            trace_out = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are required");
    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == options.workload;
    if (!known || !validName(options.workload))
        return usage(("unknown workload " + options.workload).c_str());
    if (!kOptimized) {
        std::fprintf(stderr, "fusionbench: refusing a timed run from an "
                             "unoptimised build (%s)\n",
                     FUSIONBENCH_BUILD_TYPE);
        return 3;
    }

    std::printf("fusionbench workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("build_type: %s (optimized)\n", FUSIONBENCH_BUILD_TYPE);
    std::fflush(stdout);

    RunReport report = runWorkload(options);

    for (const std::string &line : report.info)
        std::printf("%s\n", line.c_str());
    const auto &metrics = options.trace ? report.perLayer : report.endToEnd;
    for (const auto &[name, m] : metrics) {
        if (!validName(name)) {
            std::fprintf(stderr, "fusionbench: bad metric name %s\n",
                         name.c_str());
            return 2;
        }
        std::printf("  %-40s %16.6f %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    }
    for (const std::string &e : report.errors)
        std::fprintf(stderr, "fusionbench: %s\n", e.c_str());
    if (!trace_out.empty() && !report.hostTraceJson.empty() &&
        !fusion::obs::writeTextFile(trace_out, report.hostTraceJson))
        std::fprintf(stderr, "fusionbench: cannot write %s\n",
                     trace_out.c_str());

    std::string json = "{\"correct\": ";
    json += report.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        json += first ? "" : ", ";
        json += "\"" + name + "\": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return report.correct ? 0 : 1;
}
