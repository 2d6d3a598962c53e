/**
 * @file
 * Extended store integration tests: differential random-query fuzzing
 * (baseline vs Fusion vs a direct in-memory reference evaluator),
 * RS(14,10) end-to-end, the fixed-layout fallback query path, queries
 * during failures of specific roles (chunk owner, coordinator), and
 * pushdown accounting invariants.
 */
#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "query/eval.h"
#include "store/baseline_store.h"
#include "store/fusion_store.h"
#include "workload/lineitem.h"
#include "workload/queries.h"

namespace fusion::store {
namespace {

using query::AggregateKind;
using query::CompareOp;

/** Reference evaluation of a query against the in-memory table. */
query::QueryResult
referenceEvaluate(const format::Table &table, const query::Query &q)
{
    query::Bitmap rows(table.numRows(), true);
    for (const auto &pred : q.filters) {
        size_t col = table.schema().columnIndex(pred.column).value();
        auto bitmap =
            query::evalPredicate(table.column(col), pred.op, pred.literal);
        FUSION_CHECK(bitmap.isOk());
        rows.intersect(bitmap.value());
    }

    query::QueryResult result;
    result.rowsMatched = rows.count();
    for (const auto &proj : q.projections) {
        query::ProjectionResult out;
        if (proj.aggregate != AggregateKind::kNone) {
            out.isAggregate = true;
            if (proj.isCountStar()) {
                out.aggregateValue = static_cast<double>(rows.count());
            } else {
                size_t col =
                    table.schema().columnIndex(proj.column).value();
                auto selected = query::selectRows(table.column(col), rows);
                out.aggregateValue =
                    query::computeAggregate(proj.aggregate, selected)
                        .valueOr(0.0);
            }
        } else {
            size_t col = table.schema().columnIndex(proj.column).value();
            out.values = query::selectRows(table.column(col), rows);
        }
        result.columns.push_back(std::move(out));
    }
    return result;
}

/** Draws a random (valid) query over the lineitem schema. */
query::Query
randomQuery(Rng &rng, const format::Table &table, const std::string &name)
{
    const format::Schema &schema = table.schema();
    query::Query q;
    q.table = name;

    size_t num_projections = 1 + rng.pickIndex(3);
    for (size_t i = 0; i < num_projections; ++i) {
        size_t col = rng.pickIndex(schema.numColumns());
        query::Projection proj;
        proj.column = schema.column(col).name;
        bool numeric =
            schema.column(col).physical != format::PhysicalType::kString;
        if (numeric && rng.chance(0.3)) {
            AggregateKind kinds[] = {AggregateKind::kSum,
                                     AggregateKind::kAvg,
                                     AggregateKind::kMin,
                                     AggregateKind::kMax};
            proj.aggregate = kinds[rng.pickIndex(4)];
        }
        q.projections.push_back(std::move(proj));
    }
    if (rng.chance(0.2))
        q.projections.push_back({"", AggregateKind::kCount});

    size_t num_filters = rng.pickIndex(3); // 0..2
    for (size_t i = 0; i < num_filters; ++i) {
        size_t col = rng.pickIndex(schema.numColumns());
        query::Predicate pred;
        pred.column = schema.column(col).name;
        CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe, CompareOp::kEq, CompareOp::kNe};
        pred.op = ops[rng.pickIndex(6)];
        // Literal drawn from the data so matches are plausible.
        size_t row = rng.pickIndex(table.numRows());
        pred.literal = table.column(col).valueAt(row);
        q.filters.push_back(std::move(pred));
    }
    return q;
}

void
expectSameResult(const query::QueryResult &a, const query::QueryResult &b,
                 const std::string &context)
{
    ASSERT_EQ(a.rowsMatched, b.rowsMatched) << context;
    ASSERT_EQ(a.columns.size(), b.columns.size()) << context;
    for (size_t c = 0; c < a.columns.size(); ++c) {
        EXPECT_EQ(a.columns[c].isAggregate, b.columns[c].isAggregate)
            << context;
        if (a.columns[c].isAggregate) {
            EXPECT_NEAR(a.columns[c].aggregateValue,
                        b.columns[c].aggregateValue,
                        1e-6 * (1.0 + std::abs(a.columns[c].aggregateValue)))
                << context;
        } else {
            EXPECT_TRUE(a.columns[c].values == b.columns[c].values)
                << context;
        }
    }
}

TEST(DifferentialFuzzTest, RandomQueriesAgreeAcrossEnginesAndReference)
{
    const size_t rows = 3000;
    format::Table table = workload::makeLineitemTable(rows, 77);
    auto file = workload::buildLineitemFile(rows, 77);
    ASSERT_TRUE(file.isOk());

    sim::ClusterConfig config;
    sim::Cluster baseline_cluster(config), fusion_cluster(config);
    StoreOptions options;
    options.fixedBlockSize = 16 << 10; // force plenty of splits
    BaselineStore baseline(baseline_cluster, options);
    FusionStore fusion(fusion_cluster, options);
    ASSERT_TRUE(baseline.put("lineitem", file.value().bytes).isOk());
    ASSERT_TRUE(fusion.put("lineitem", file.value().bytes).isOk());

    Rng rng(2025);
    for (int trial = 0; trial < 60; ++trial) {
        query::Query q = randomQuery(rng, table, "lineitem");
        std::string context =
            "trial " + std::to_string(trial) + ": " + q.toString();
        query::QueryResult expect = referenceEvaluate(table, q);
        auto b = baseline.query(q);
        auto f = fusion.query(q);
        ASSERT_TRUE(b.isOk()) << context << " " << b.status().toString();
        ASSERT_TRUE(f.isOk()) << context << " " << f.status().toString();
        expectSameResult(expect, b.value().result, "baseline " + context);
        expectSameResult(expect, f.value().result, "fusion " + context);
    }
}

TEST(Rs1410Test, EndToEndWideCode)
{
    // RS(14,10) needs a 14-node cluster (paper's other config).
    sim::ClusterConfig config;
    config.numNodes = 14;
    sim::Cluster cluster(config);
    StoreOptions options;
    options.n = 14;
    options.k = 10;
    FusionStore store(cluster, options);

    auto file = workload::buildLineitemFile(5000, 3);
    ASSERT_TRUE(file.isOk());
    auto put = store.put("lineitem", file.value().bytes);
    ASSERT_TRUE(put.isOk());
    EXPECT_EQ(put.value().layoutKind, fac::LayoutKind::kFac);

    // RS(14,10) tolerates 4 failures.
    for (size_t node : {0, 3, 7, 12})
        cluster.killNode(node);
    auto back = store.get("lineitem");
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), file.value().bytes);
    auto outcome = store.querySql(
        "SELECT COUNT(*) FROM lineitem WHERE l_quantity <= 10");
    ASSERT_TRUE(outcome.isOk());
    EXPECT_GT(outcome.value().result.rowsMatched, 0u);

    cluster.killNode(13); // fifth failure
    EXPECT_FALSE(store.get("lineitem").isOk());
}

TEST(FallbackLayoutTest, QueriesWorkOnFixedFallback)
{
    // Force the fallback by making the threshold impossible.
    sim::ClusterConfig config;
    sim::Cluster cluster(config);
    StoreOptions options;
    options.overheadThreshold = 0.0;
    options.fixedBlockSize = 8 << 10;
    FusionStore store(cluster, options);

    auto file = workload::buildLineitemFile(4000, 5);
    ASSERT_TRUE(file.isOk());
    auto put = store.put("lineitem", file.value().bytes);
    ASSERT_TRUE(put.isOk());
    ASSERT_EQ(put.value().layoutKind, fac::LayoutKind::kFixed);
    EXPECT_GT(put.value().splitFraction, 0.0);

    // Queries on split chunks use the coordinator fetch path.
    auto outcome = store.querySql(
        "SELECT l_comment FROM lineitem WHERE l_extendedprice < 5000");
    ASSERT_TRUE(outcome.isOk());
    EXPECT_GT(outcome.value().filterChunkFetches +
                  outcome.value().filterChunkPushdowns,
              0u);
    // Some chunks must have been split and fetched.
    EXPECT_GT(outcome.value().projectionFetches, 0u);

    format::Table table = workload::makeLineitemTable(4000, 5);
    query::QueryResult expect = referenceEvaluate(
        table,
        query::parseQuery(
            "SELECT l_comment FROM lineitem WHERE l_extendedprice < 5000")
            .value());
    expectSameResult(expect, outcome.value().result, "fallback");
}

TEST(FailureRoleTest, ChunkOwnerFailureFallsBackToDegradedFetch)
{
    sim::ClusterConfig config;
    sim::Cluster cluster(config);
    FusionStore store(cluster, StoreOptions{});
    auto file = workload::buildLineitemFile(4000, 9);
    ASSERT_TRUE(file.isOk());
    ASSERT_TRUE(store.put("lineitem", file.value().bytes).isOk());

    // Find the node owning the first comment chunk and kill it.
    const ObjectManifest &m = *store.manifest("lineitem").value();
    uint32_t chunk_id = m.chunkIdFor(0, workload::kComment);
    size_t owner = m.nodesForChunk(chunk_id)[0];
    cluster.killNode(owner);

    auto outcome = store.querySql(
        "SELECT l_comment FROM lineitem WHERE l_orderkey <= 200");
    ASSERT_TRUE(outcome.isOk()) << outcome.status().toString();
    // The dead owner's chunks take the degraded fetch path.
    EXPECT_GT(outcome.value().filterChunkFetches +
                  outcome.value().projectionFetches,
              0u);
}

TEST(FailureRoleTest, CoordinatorFailureMovesCoordinator)
{
    sim::ClusterConfig config;
    sim::Cluster cluster(config);
    FusionStore store(cluster, StoreOptions{});
    auto file = workload::buildLineitemFile(3000, 13);
    ASSERT_TRUE(file.isOk());
    ASSERT_TRUE(store.put("obj", file.value().bytes).isOk());

    size_t coordinator = cluster.coordinatorFor("obj");
    cluster.killNode(coordinator);
    auto outcome = store.querySql(
        "SELECT COUNT(*) FROM obj WHERE l_quantity <= 5");
    ASSERT_TRUE(outcome.isOk());
    EXPECT_GT(outcome.value().result.rowsMatched, 0u);
}

TEST(AccountingInvariantsTest, CountersAndBytesConsistent)
{
    sim::ClusterConfig config;
    sim::Cluster cluster(config);
    FusionStore store(cluster, StoreOptions{});
    auto file = workload::buildLineitemFile(4000, 21);
    ASSERT_TRUE(file.isOk());
    ASSERT_TRUE(store.put("lineitem", file.value().bytes).isOk());

    uint64_t before = cluster.totalNetworkBytes();
    auto outcome = store.querySql(
        "SELECT l_partkey FROM lineitem WHERE l_suppkey <= 500");
    ASSERT_TRUE(outcome.isOk());
    const QueryOutcome &o = outcome.value();
    // Query-attributed traffic cannot exceed total cluster traffic.
    EXPECT_LE(o.networkBytes, cluster.totalNetworkBytes() - before);
    EXPECT_EQ(o.rowGroupsScanned + o.rowGroupsSkipped, 10u);
    EXPECT_GT(o.latencySeconds, 0.0);
    EXPECT_GT(o.diskSeconds, 0.0);
    EXPECT_GT(o.cpuSeconds, 0.0);
    // Result size matches rowsMatched.
    EXPECT_EQ(o.result.columns[0].values.size(), o.result.rowsMatched);
}

TEST(AccountingInvariantsTest, SkippedRowGroupsMoveNoChunkBytes)
{
    sim::ClusterConfig config;
    sim::Cluster cluster(config);
    FusionStore store(cluster, StoreOptions{});
    auto file = workload::buildLineitemFile(4000, 23);
    ASSERT_TRUE(file.isOk());
    ASSERT_TRUE(store.put("lineitem", file.value().bytes).isOk());

    // No row matches: every row group is skipped via zone maps.
    auto outcome = store.querySql(
        "SELECT l_comment FROM lineitem WHERE l_quantity > 50");
    ASSERT_TRUE(outcome.isOk());
    EXPECT_EQ(outcome.value().result.rowsMatched, 0u);
    EXPECT_EQ(outcome.value().rowGroupsSkipped, 10u);
    // Only the client request/reply rides the network.
    EXPECT_LT(outcome.value().networkBytes, 2048u);
}

TEST(ConcurrencyTest, ParallelQueriesAllCompleteWithSameResults)
{
    sim::ClusterConfig config;
    sim::Cluster cluster(config);
    FusionStore store(cluster, StoreOptions{});
    auto file = workload::buildLineitemFile(4000, 31);
    ASSERT_TRUE(file.isOk());
    ASSERT_TRUE(store.put("lineitem", file.value().bytes).isOk());

    auto q = query::parseQuery(
        "SELECT AVG(l_extendedprice) FROM lineitem WHERE l_quantity <= 25");
    ASSERT_TRUE(q.isOk());

    std::vector<QueryOutcome> outcomes;
    for (int i = 0; i < 20; ++i) {
        store.queryAsync(q.value(), [&](Result<QueryOutcome> o) {
            ASSERT_TRUE(o.isOk());
            outcomes.push_back(std::move(o.value()));
        });
    }
    cluster.engine().run();
    ASSERT_EQ(outcomes.size(), 20u);
    for (const auto &o : outcomes) {
        EXPECT_DOUBLE_EQ(o.result.columns[0].aggregateValue,
                         outcomes[0].result.columns[0].aggregateValue);
        // Later arrivals queue behind earlier ones.
        EXPECT_GE(o.latencySeconds, outcomes[0].latencySeconds - 1e-12);
    }
}


TEST(ObjectManagementTest, ListDeleteAndStats)
{
    sim::ClusterConfig config;
    sim::Cluster cluster(config);
    FusionStore store(cluster, StoreOptions{});
    auto file_a = workload::buildLineitemFile(2000, 1);
    auto file_b = workload::buildLineitemFile(3000, 2);
    ASSERT_TRUE(file_a.isOk());
    ASSERT_TRUE(file_b.isOk());
    ASSERT_TRUE(store.put("b-object", file_b.value().bytes).isOk());
    ASSERT_TRUE(store.put("a-object", file_a.value().bytes).isOk());

    EXPECT_EQ(store.listObjects(),
              (std::vector<std::string>{"a-object", "b-object"}));

    auto stats = store.stats();
    EXPECT_EQ(stats.objectCount, 2u);
    EXPECT_EQ(stats.logicalBytes,
              file_a.value().bytes.size() + file_b.value().bytes.size());
    EXPECT_GT(stats.storedBytes, stats.logicalBytes); // parity on top
    EXPECT_GE(stats.maxNodeBytes, stats.minNodeBytes);
    EXPECT_LT(stats.overheadVsOptimal, 0.05);

    // Node accounting matches the store's view.
    uint64_t on_nodes = 0;
    for (size_t i = 0; i < cluster.numNodes(); ++i)
        on_nodes += cluster.node(i).storedBytes();
    EXPECT_EQ(on_nodes, stats.storedBytes);

    // Delete removes blocks and the manifest.
    ASSERT_TRUE(store.deleteObject("a-object").isOk());
    EXPECT_FALSE(store.contains("a-object"));
    EXPECT_EQ(store.deleteObject("a-object").code(),
              StatusCode::kNotFound);
    on_nodes = 0;
    for (size_t i = 0; i < cluster.numNodes(); ++i)
        on_nodes += cluster.node(i).storedBytes();
    EXPECT_EQ(on_nodes, store.stats().storedBytes);
    EXPECT_EQ(store.stats().objectCount, 1u);

    // The remaining object is still fully readable.
    auto back = store.get("b-object");
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(back.value(), file_b.value().bytes);
}

TEST(ObjectManagementTest, DeleteEverythingLeavesNodesEmpty)
{
    sim::ClusterConfig config;
    sim::Cluster cluster(config);
    FusionStore store(cluster, StoreOptions{});
    auto file = workload::buildLineitemFile(1500, 3);
    ASSERT_TRUE(file.isOk());
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(store
                        .put("obj" + std::to_string(i),
                             file.value().bytes)
                        .isOk());
    for (const auto &name : store.listObjects())
        ASSERT_TRUE(store.deleteObject(name).isOk());
    EXPECT_TRUE(store.listObjects().empty());
    for (size_t i = 0; i < cluster.numNodes(); ++i)
        EXPECT_EQ(cluster.node(i).storedBytes(), 0u) << "node " << i;
}


TEST(PutAsyncTest, SimulatedWritePathCompletesAndQueues)
{
    sim::ClusterConfig config;
    sim::Cluster cluster(config);
    FusionStore store(cluster, StoreOptions{});
    auto file = workload::buildLineitemFile(3000, 41);
    ASSERT_TRUE(file.isOk());

    std::vector<PutResult> results;
    store.putAsync("a", file.value().bytes,
                   [&](Result<PutResult> r) {
                       ASSERT_TRUE(r.isOk());
                       results.push_back(std::move(r.value()));
                   });
    store.putAsync("b", file.value().bytes,
                   [&](Result<PutResult> r) {
                       ASSERT_TRUE(r.isOk());
                       results.push_back(std::move(r.value()));
                   });
    cluster.engine().run();
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_GT(r.simulatedPutSeconds, 0.0);
        EXPECT_EQ(r.objectBytes, file.value().bytes.size());
    }
    // Two concurrent puts through the same client NIC: the second
    // completes later than a lone put would.
    EXPECT_GT(std::max(results[0].simulatedPutSeconds,
                       results[1].simulatedPutSeconds),
              std::min(results[0].simulatedPutSeconds,
                       results[1].simulatedPutSeconds));
    // Both objects are fully readable afterwards.
    for (const char *name : {"a", "b"}) {
        auto back = store.get(name);
        ASSERT_TRUE(back.isOk());
        EXPECT_EQ(back.value(), file.value().bytes);
    }
    EXPECT_FALSE(store.contains("missing"));

    // appendAsync takes its timing from the same DES fan-out: two
    // concurrent appends queue behind each other on the client NIC.
    format::Table rows = workload::makeLineitemTable(200, 43);
    std::vector<AppendResult> appends;
    for (int i = 0; i < 2; ++i)
        store.appendAsync("a", rows, [&](Result<AppendResult> r) {
            ASSERT_TRUE(r.isOk());
            appends.push_back(r.value());
        });
    cluster.engine().run();
    ASSERT_EQ(appends.size(), 2u);
    for (const auto &r : appends)
        EXPECT_GT(r.simulatedAppendSeconds, 0.0);
    EXPECT_GT(std::max(appends[0].simulatedAppendSeconds,
                       appends[1].simulatedAppendSeconds),
              std::min(appends[0].simulatedAppendSeconds,
                       appends[1].simulatedAppendSeconds));

    // The synchronous forms run in one simulated instant; only the DES
    // measures write time.
    auto put = store.put("c", file.value().bytes);
    ASSERT_TRUE(put.isOk());
    EXPECT_EQ(put.value().simulatedPutSeconds, 0.0);
    auto appended = store.append("c", rows);
    ASSERT_TRUE(appended.isOk());
    EXPECT_EQ(appended.value().simulatedAppendSeconds, 0.0);
    bool error_seen = false;
    store.putAsync("bad", Bytes{}, [&](Result<PutResult> r) {
        error_seen = !r.isOk();
    });
    cluster.engine().run();
    EXPECT_TRUE(error_seen);
}

} // namespace
} // namespace fusion::store
