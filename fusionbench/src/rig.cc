#include "rig.h"

#include <algorithm>

#include "common/walltime.h"
#include "workload/lineitem.h"
#include "workload/taxi.h"

namespace fusionbench {

using namespace fusion;

namespace {

constexpr size_t kLineitemRows = 60000;
constexpr size_t kTaxiRows = 64000;
/** The paper's lineitem object size; node rates are divided by
 *  paper / actual bytes so per-byte costs keep the paper's ratios. */
constexpr double kPaperLineitemBytes = 10e9;

/** Columns the Table 4 templates read, per dataset. */
const std::vector<size_t> kLineitemColumns = {
    workload::kQuantity, workload::kExtendedPrice, workload::kDiscount,
    workload::kTax,      workload::kReturnFlag,    workload::kLineStatus,
    workload::kShipDate};
const std::vector<size_t> kTaxiColumns = {
    workload::kPickupTime, workload::kPickupDate, workload::kFareAmount};

Dataset
makeDataset(const std::string &name, format::Table table,
            Result<format::WrittenFile> file, size_t filter_column)
{
    FUSION_CHECK_MSG(file.isOk(), file.status().toString());
    Dataset d;
    d.name = name;
    d.table = std::move(table);
    d.file = std::move(file.value());
    const format::ColumnData &col = d.table.column(filter_column);
    if (col.type() == format::PhysicalType::kInt32)
        d.sortedFilterValues.assign(col.int32s().begin(), col.int32s().end());
    else
        d.sortedFilterValues = col.int64s();
    std::sort(d.sortedFilterValues.begin(), d.sortedFilterValues.end());
    for (size_t c = 0; c < kCopies; ++c)
        d.objects.push_back(name + "_" + std::to_string(c));
    return d;
}

uint64_t
columnBytes(const Dataset &d, const std::vector<size_t> &columns)
{
    uint64_t bytes = 0;
    for (const auto &rg : d.file.metadata.rowGroups)
        for (size_t c : columns)
            bytes += rg.chunks.at(c).storedSize;
    return bytes * d.objects.size();
}

} // namespace

int64_t
Dataset::filterQuantile(double q) const
{
    q = std::clamp(q, 0.0, 1.0);
    size_t rank = static_cast<size_t>(
        q * static_cast<double>(sortedFilterValues.size() - 1));
    return sortedFilterValues[rank];
}

Status
BenchStore::compactObjectNow(const std::string &object, uint64_t seal_seq)
{
    HostTracer::Scope span(tracer_, "lifecycle.compact");
    return FusionStore::compactObjectNow(object, seal_seq);
}

std::unique_ptr<Rig>
buildRig(const RigConfig &config, HostTracer &tracer)
{
    auto rig = std::make_unique<Rig>();
    rig->lineitem = makeDataset(
        "lineitem", workload::makeLineitemTable(kLineitemRows, config.seed),
        workload::buildLineitemFile(kLineitemRows, config.seed),
        workload::kShipDate);
    rig->workingSetBytes = columnBytes(rig->lineitem, kLineitemColumns);
    if (config.withTaxi) {
        rig->taxi = makeDataset(
            "taxi", workload::makeTaxiTable(kTaxiRows, config.seed + 1),
            workload::buildTaxiFile(kTaxiRows, config.seed + 1),
            workload::kPickupTime);
        rig->workingSetBytes += columnBytes(rig->taxi, kTaxiColumns);
    }

    const uint64_t file_bytes = rig->lineitem.file.bytes.size();
    const double scale = kPaperLineitemBytes / static_cast<double>(file_bytes);
    sim::ClusterConfig cluster_config;
    cluster_config.numNodes = 9;
    cluster_config.node.diskBandwidth /= scale;
    cluster_config.node.nicBandwidth /= scale;
    cluster_config.node.cpuRate /= scale;
    rig->cluster = std::make_unique<sim::Cluster>(cluster_config);

    store::StoreOptions options;
    options.fixedBlockSize = std::max<uint64_t>(file_bytes / 25, 64 << 10);
    rig->cacheBytes = static_cast<uint64_t>(
        config.cacheShareOfWorkingSet *
        static_cast<double>(rig->workingSetBytes));
    // Set explicitly: the default reads FUSION_CACHE_BYTES.
    options.cacheBytes = rig->cacheBytes;
    rig->store = std::make_unique<BenchStore>(*rig->cluster, options, tracer);

    for (Dataset *d : {&rig->lineitem, &rig->taxi}) {
        for (const std::string &object : d->objects) {
            HostTracer::Scope span(tracer, "store.put");
            double t0 = walltime::monotonicSeconds();
            auto put = rig->store->put(object, d->file.bytes);
            rig->putHostSeconds += walltime::monotonicSeconds() - t0;
            FUSION_CHECK_MSG(put.isOk(), put.status().toString());
            rig->putBytes += d->file.bytes.size();
        }
    }
    rig->overheadVsOptimal = rig->store->stats().overheadVsOptimal;
    return rig;
}

} // namespace fusionbench
