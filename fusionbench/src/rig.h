/**
 * @file
 * Benchmark set-up: generates the Table 4 datasets (TPC-H lineitem and
 * NYC-taxi at the Fig 15 rig sizes), stores four copies of each in one
 * FusionStore on a nine-node simulated cluster, and scales node service
 * rates so the small generated files behave like the paper's 10 GB
 * objects. This is the work setup_s times.
 */
#ifndef FUSIONBENCH_RIG_H
#define FUSIONBENCH_RIG_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "format/writer.h"
#include "host_trace.h"
#include "sim/cluster.h"
#include "store/fusion_store.h"

namespace fusionbench {

/** Copies of each dataset stored, as in the Fig 15 rigs. */
inline constexpr size_t kCopies = 4;

/** One generated dataset and the names of its stored copies. */
struct Dataset {
    std::string name; // "lineitem" or "taxi"
    fusion::format::Table table;
    fusion::format::WrittenFile file;
    std::vector<std::string> objects;
    /** Sorted values of the Table 4 filter column (l_shipdate or
     *  pickup_time), from which seeded literals are drawn. */
    std::vector<int64_t> sortedFilterValues;

    /** Value at quantile q in [0, 1] of the filter column. */
    int64_t filterQuantile(double q) const;
};

/**
 * FusionStore with a host span around each compaction fold. The
 * background Compactor calls compactObjectNow() from inside simulation
 * events, so this override is the one place the benchmark can time it.
 */
class BenchStore : public fusion::store::FusionStore
{
  public:
    BenchStore(fusion::sim::Cluster &cluster,
               const fusion::store::StoreOptions &options,
               HostTracer &tracer)
        : FusionStore(cluster, options), tracer_(tracer)
    {
    }

    fusion::Status compactObjectNow(const std::string &object,
                                    uint64_t seal_seq) override;

  private:
    HostTracer &tracer_;
};

struct RigConfig {
    /** Dataset generator seed. Fixed, as in the figure rigs: --seed
     *  varies the request streams, not the data they read. */
    uint64_t seed = 42;
    bool withTaxi = true;
    /** Hot-chunk cache size as a share of workingSetBytes(); 0 = off. */
    double cacheShareOfWorkingSet = 0.0;
};

struct Rig {
    Dataset lineitem;
    Dataset taxi; // empty when !withTaxi
    std::unique_ptr<fusion::sim::Cluster> cluster;
    std::unique_ptr<BenchStore> store;
    /** Stored bytes of every chunk the Table 4 templates read, over all
     *  copies: the working set the hot-chunk cache is sized against. */
    uint64_t workingSetBytes = 0;
    uint64_t cacheBytes = 0;
    double putHostSeconds = 0.0; // host time inside put()
    uint64_t putBytes = 0;
    double overheadVsOptimal = 0.0; // fac, from StoreStats after the puts
};

/** Builds datasets, cluster and store; aborts on any put failure. */
std::unique_ptr<Rig> buildRig(const RigConfig &config, HostTracer &tracer);

} // namespace fusionbench

#endif // FUSIONBENCH_RIG_H
