#include "reference.h"

#include <algorithm>
#include <cmath>

namespace fusionbench {

using fusion::format::ColumnData;
using fusion::format::PhysicalType;
using fusion::format::Table;
using fusion::query::AggregateKind;
using fusion::query::CompareOp;
using fusion::query::Query;

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void
hashBytes(uint64_t &h, const void *data, size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

template <typename T>
void
hashValue(uint64_t &h, const T &v)
{
    hashBytes(h, &v, sizeof(v));
}

void
hashValue(uint64_t &h, const std::string &v)
{
    uint64_t size = v.size();
    hashBytes(h, &size, sizeof(size));
    hashBytes(h, v.data(), v.size());
}

template <typename T>
int
threeWay(const T &a, const T &b)
{
    return a < b ? -1 : (b < a ? 1 : 0);
}

/** Clears match[r] for every value failing `value op literal`; the
 *  operator is dispatched once per predicate, not per row. */
template <typename T, typename L>
void
filterRows(const std::vector<T> &values, const L &literal, CompareOp op,
           std::vector<char> &match)
{
    auto each = [&](auto keep) {
        for (size_t r = 0; r < values.size(); ++r)
            match[r] &= keep(threeWay<L>(values[r], literal)) ? 1 : 0;
    };
    switch (op) {
      case CompareOp::kLt: each([](int c) { return c < 0; }); break;
      case CompareOp::kLe: each([](int c) { return c <= 0; }); break;
      case CompareOp::kGt: each([](int c) { return c > 0; }); break;
      case CompareOp::kGe: each([](int c) { return c >= 0; }); break;
      case CompareOp::kEq: each([](int c) { return c == 0; }); break;
      case CompareOp::kNe: each([](int c) { return c != 0; }); break;
    }
}

/** Rows of one part passing every predicate, one flag per row. */
std::vector<char>
matchRows(const Table &t, const Query &q)
{
    std::vector<char> match(t.numRows(), 1);
    for (const auto &pred : q.filters) {
        const ColumnData &c =
            t.column(t.schema().columnIndex(pred.column).value());
        switch (c.type()) {
          case PhysicalType::kInt32:
            filterRows(c.int32s(), pred.literal.numeric(), pred.op, match);
            break;
          case PhysicalType::kInt64:
            filterRows(c.int64s(), pred.literal.numeric(), pred.op, match);
            break;
          case PhysicalType::kDouble:
            filterRows(c.doubles(), pred.literal.numeric(), pred.op, match);
            break;
          case PhysicalType::kString:
            filterRows(c.strings(), pred.literal.asString(), pred.op, match);
            break;
        }
    }
    return match;
}

double
numericAt(const ColumnData &c, size_t r)
{
    switch (c.type()) {
      case PhysicalType::kInt32: return c.int32s()[r];
      case PhysicalType::kInt64: return static_cast<double>(c.int64s()[r]);
      case PhysicalType::kDouble: return c.doubles()[r];
      case PhysicalType::kString: break;
    }
    return 0.0;
}

void
hashAt(uint64_t &h, const ColumnData &c, size_t r)
{
    switch (c.type()) {
      case PhysicalType::kInt32: hashValue(h, c.int32s()[r]); break;
      case PhysicalType::kInt64: hashValue(h, c.int64s()[r]); break;
      case PhysicalType::kDouble: hashValue(h, c.doubles()[r]); break;
      case PhysicalType::kString: hashValue(h, c.strings()[r]); break;
    }
}

/** Running state of one projection over the selected rows. */
struct Accumulator {
    ColumnDigest digest;
    long double sum = 0.0L;
    double min = 0.0;
    double max = 0.0;
};

} // namespace

ResultDigest
digestOf(const fusion::query::QueryResult &result)
{
    ResultDigest out;
    out.rowsMatched = result.rowsMatched;
    for (const auto &col : result.columns) {
        ColumnDigest d;
        d.isAggregate = col.isAggregate;
        d.aggregate = col.aggregateValue;
        d.hash = kFnvOffset;
        if (!col.isAggregate) {
            d.count = col.values.size();
            for (size_t r = 0; r < col.values.size(); ++r)
                hashAt(d.hash, col.values, r);
        }
        out.columns.push_back(d);
    }
    return out;
}

ResultDigest
referenceDigest(const std::vector<const Table *> &parts, const Query &q)
{
    ResultDigest out;
    std::vector<Accumulator> acc(q.projections.size());
    for (auto &a : acc)
        a.digest.hash = kFnvOffset;
    for (const Table *part : parts) {
        const auto &schema = part->schema();
        const std::vector<char> match = matchRows(*part, q);
        std::vector<size_t> proj_cols;
        for (const auto &proj : q.projections)
            proj_cols.push_back(proj.isCountStar()
                                    ? 0
                                    : schema.columnIndex(proj.column).value());
        const size_t rows = part->numRows();
        for (size_t r = 0; r < rows; ++r) {
            if (!match[r])
                continue;
            ++out.rowsMatched;
            for (size_t i = 0; i < q.projections.size(); ++i) {
                const auto &proj = q.projections[i];
                Accumulator &a = acc[i];
                const ColumnData &c = part->column(proj_cols[i]);
                if (proj.aggregate == AggregateKind::kNone) {
                    hashAt(a.digest.hash, c, r);
                    ++a.digest.count;
                    continue;
                }
                if (proj.aggregate == AggregateKind::kCount) {
                    ++a.digest.count;
                    continue;
                }
                double v = numericAt(c, r);
                if (a.digest.count == 0 || v < a.min)
                    a.min = v;
                if (a.digest.count == 0 || v > a.max)
                    a.max = v;
                a.sum += v;
                ++a.digest.count;
            }
        }
    }
    for (size_t i = 0; i < q.projections.size(); ++i) {
        Accumulator &a = acc[i];
        const AggregateKind kind = q.projections[i].aggregate;
        if (kind != AggregateKind::kNone) {
            a.digest.isAggregate = true;
            double n = static_cast<double>(a.digest.count);
            switch (kind) {
              case AggregateKind::kCount: a.digest.aggregate = n; break;
              case AggregateKind::kSum:
                a.digest.aggregate = static_cast<double>(a.sum);
                break;
              case AggregateKind::kAvg:
                a.digest.aggregate =
                    n == 0 ? 0.0 : static_cast<double>(a.sum) / n;
                break;
              case AggregateKind::kMin: a.digest.aggregate = a.min; break;
              case AggregateKind::kMax: a.digest.aggregate = a.max; break;
              case AggregateKind::kNone: break;
            }
            a.digest.count = 0;
            a.digest.hash = kFnvOffset;
        }
        out.columns.push_back(a.digest);
    }
    return out;
}

bool
sameResult(const ResultDigest &got, const ResultDigest &want,
           std::string *why)
{
    auto fail = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    if (got.rowsMatched != want.rowsMatched)
        return fail("rows matched " + std::to_string(got.rowsMatched) +
                    " != " + std::to_string(want.rowsMatched));
    if (got.columns.size() != want.columns.size())
        return fail("column count differs");
    for (size_t i = 0; i < got.columns.size(); ++i) {
        const ColumnDigest &g = got.columns[i];
        const ColumnDigest &w = want.columns[i];
        if (g.isAggregate != w.isAggregate)
            return fail("column " + std::to_string(i) + " kind differs");
        if (w.isAggregate) {
            double tol = 1e-9 * std::max(1.0, std::fabs(w.aggregate));
            if (!(std::fabs(g.aggregate - w.aggregate) <= tol))
                return fail("column " + std::to_string(i) + " aggregate " +
                            std::to_string(g.aggregate) +
                            " != " + std::to_string(w.aggregate));
        } else if (g.count != w.count || g.hash != w.hash) {
            return fail("column " + std::to_string(i) + " values differ (" +
                        std::to_string(g.count) + " vs " +
                        std::to_string(w.count) + " rows)");
        }
    }
    return true;
}

} // namespace fusionbench
