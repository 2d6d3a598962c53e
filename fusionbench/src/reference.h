/**
 * @file
 * The benchmark's correctness oracle. Every query result the store
 * returns is folded into a compact digest inside the timed phase (so
 * thousands of results need not be kept); after the phase the digest
 * is compared against a naive row-at-a-time evaluation of the same
 * query over the generated source table plus every append the store
 * had accepted when the query was planned. The naive evaluator shares
 * no code with the store's data plane.
 */
#ifndef FUSIONBENCH_REFERENCE_H
#define FUSIONBENCH_REFERENCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "format/column.h"
#include "query/ast.h"

namespace fusionbench {

/** One projection of a result, reduced to what the check compares. */
struct ColumnDigest {
    bool isAggregate = false;
    double aggregate = 0.0;
    uint64_t count = 0; // selected values
    uint64_t hash = 0;  // FNV-1a over the values in row order
};

struct ResultDigest {
    uint64_t rowsMatched = 0;
    std::vector<ColumnDigest> columns;
};

/** Digest of a store-returned result. */
ResultDigest digestOf(const fusion::query::QueryResult &result);

/**
 * Naive evaluation of `q` over `parts` read as one table (the base
 * table first, then appended batches in append order). Aggregates are
 * summed in row order in long double.
 */
ResultDigest referenceDigest(
    const std::vector<const fusion::format::Table *> &parts,
    const fusion::query::Query &q);

/** True when `got` matches `want`; otherwise false with a reason.
 *  Aggregates match within a relative 1e-9 (summation order differs
 *  between the store's row groups and the naive loop). */
bool sameResult(const ResultDigest &got, const ResultDigest &want,
                std::string *why);

} // namespace fusionbench

#endif // FUSIONBENCH_REFERENCE_H
