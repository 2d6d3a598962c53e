#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/walltime.h"
#include "host_trace.h"
#include "metric_math.h"
#include "query/parser.h"
#include "reference.h"
#include "rig.h"
#include "sched/scheduler.h"
#include "sim/fault.h"
#include "speed_probe.h"
#include "workload/lineitem.h"

namespace fusionbench {

using namespace fusion;

namespace {

constexpr size_t kClients = 8;
/** Shared thread-pool size (decode/encode fan-out), set explicitly so
 *  FUSION_THREADS cannot change it. */
constexpr size_t kThreads = 2;
/** Rig builds in the first round; later rounds build once each, and
 *  setup_s is the median over every build of the run. */
constexpr size_t kSetupReps = 5;
/**
 * Rounds of a run: each builds a fresh rig and replays the same seeded
 * warm-up and measurement window. A run makes at least kMinRounds and
 * adds rounds until the untraced windows total --seconds of host time.
 */
constexpr size_t kMinRounds = 3;
constexpr size_t kMaxRounds = 12;
/** Blocks per measurement window: host time is compared block by block
 *  across rounds (see blockwiseMedianSum), and the speed probe runs at
 *  every block boundary. */
constexpr size_t kBlocks = 20;
/** Probe runs around each rig build; their median sets its speed. */
constexpr int kSetupProbes = 5;
/** Engine events per step of the drive loop. */
constexpr size_t kEventsPerStep = 64;

constexpr double kZipfTheta = 0.99;
/** Literal variants per template in the hot_skew item set. */
constexpr size_t kHotVariants = 4;
constexpr double kHotVariantScale[kHotVariants] = {0.5, 0.8, 1.25, 2.0};
constexpr double kHotCacheShare = 0.10;
/**
 * hot_skew offered load, queries per simulated second: about 53% of the
 * mix's overload throughput (the ~38 queries per simulated second a run
 * offered far more than it can serve completes). At 26 (70%) p99 swung
 * by a factor of two between seeds; at 20 the knee is near but the
 * backlog does not grow and seeds agree within the bounds.
 */
constexpr double kHotSkewRate = 20.0;

/**
 * ingest_query append stream: batches per simulated second, round-robin
 * over the lineitem copies with gaps jittered uniformly in [0.5, 1.5] of
 * the mean. (Poisson gaps let the number of compaction folds inside the
 * measurement window swing by a third between seeds.)
 */
constexpr double kAppendRate = 0.1;
constexpr size_t kAppendRows = 500;

/** degraded_scan fault schedule (9 nodes, RS(9,6) tolerates 3). */
constexpr size_t kCrashedNode = 2;
constexpr size_t kFlappingNode = 5;
constexpr double kFlapSlowFactor = 4.0;
constexpr double kFlapPeriod = 1.0;
constexpr double kFlapDowntime = 0.2;
/** Flapping covers 50000 simulated seconds, several times what a
 *  60-second run simulates. */
constexpr size_t kFlapCycles = 50000;

constexpr double kInf = std::numeric_limits<double>::infinity();

enum Template : int { kQ1 = 0, kQ2, kQ3, kQ4 };

/** Table 4 selectivities: share of rows below the literal (Q2: at or
 *  above it; its other two predicates are fixed). */
constexpr double kSelectivity[] = {0.014, 0.22, 0.375, 0.063};

struct Spec {
    const char *name;
    bool openLoop;
    bool appends;
    bool faults;
    /**
     * Queries issued before the timed phase, so memo and cache state is
     * past its first fill (degraded_scan has none on purpose). hot_skew
     * needs far more: its chunk-cache hit ratio keeps falling for
     * thousands of queries, and a window that starts early in that
     * decline reads a different point of it on every seed (over ten
     * seeds, p50 spread 0.11 after 400 queries, 0.02 after 8000).
     */
    size_t warmupQueries;
    bool taxi;
    double cacheShare;
    /**
     * Completed operations (queries and appends) in the measurement
     * window: every end-to-end metric covers the timed phase's first
     * windowOps completions, the same work on every host. (Memo hit
     * rates climb as texts repeat, and the simulated time a host-time
     * budget covers grows with host speed, so metrics over "whatever
     * fit in the budget" would move when only host code got faster.)
     * A multiple of kBlocks, sized to take 4-8 host seconds on a
     * 4-core Xeon VM while the seed-to-seed spread of each simulated
     * metric stays under a third of its bound; ingest_query's window
     * still spans compaction folds.
     */
    uint64_t windowOps;
};

const Spec kSpecs[] = {
    {"scan_mix", false, false, false, 400, true, 0.0, 8000},
    {"hot_skew", true, false, false, 8000, true, kHotCacheShare, 12000},
    {"ingest_query", false, true, false, 400, false, 0.0, 3000},
    {"degraded_scan", false, false, true, 0, true, 0.0, 7200},
};

std::string
sqlFor(Template t, const std::string &object, int64_t literal)
{
    const std::string lit = std::to_string(literal);
    switch (t) {
      case kQ1:
        return "SELECT l_quantity, l_extendedprice, l_discount, l_tax, "
               "l_returnflag, l_linestatus FROM " +
               object + " WHERE l_shipdate < " + lit;
      case kQ2:
        return "SELECT l_extendedprice, l_discount FROM " + object +
               " WHERE l_shipdate >= " + lit +
               " AND l_discount >= 0.05 AND l_quantity < 24";
      case kQ3:
        return "SELECT COUNT(*) FROM " + object + " WHERE pickup_time < " +
               lit;
      case kQ4:
        return "SELECT pickup_date, AVG(fare_amount) FROM " + object +
               " WHERE pickup_time < " + lit;
    }
    return "";
}

/** Literal giving `selectivity` for template t on dataset d. */
int64_t
literalFor(Template t, const Dataset &d, double selectivity)
{
    return t == kQ2 ? d.filterQuantile(1.0 - selectivity)
                    : d.filterQuantile(selectivity);
}

/** Nesting level of the store's simulated-time spans; -1 = ignored. */
int
simSpanLevel(const std::string &name)
{
    if (name == "filter_stage" || name == "projection_stage")
        return 1;
    if (name == "chunk_fetch" || name == "filter_pushdown" ||
        name == "projection_pushdown" || name == "delta_fetch" ||
        name == "sched_wait")
        return 2;
    if (name == "reconstruct" || name == "cache_lookup" ||
        name == "degraded_read")
        return 3;
    return -1;
}

/** Stages reported as span.<name>.self_ms_per_query. */
const char *const kStageSpans[] = {
    "filter_stage", "projection_stage", "chunk_fetch",
    "filter_pushdown", "projection_pushdown", "delta_fetch",
    "cache_lookup", "sched_wait", "reconstruct", "degraded_read"};

/** Layer spans whose self time the traced run attributes. */
const char *const kLayerSpans[] = {
    "query.parse", "store.queryAsync", "sched.submit", "sched.await",
    "sim.run", "lifecycle.appendAsync", "lifecycle.compact"};

uint64_t
toNs(double seconds)
{
    return static_cast<uint64_t>(std::llround(seconds * 1e9));
}

/**
 * Self time per stage name of the store's simulated-time spans, in
 * seconds. Spans carry no parent link, so a span's children are the
 * deeper-level spans whose interval lies inside it; with concurrent
 * queries that can include another query's tasks, so stage self times
 * are lower bounds.
 */
std::map<std::string, double>
simStageSelfSeconds(const std::vector<obs::TraceSpan> &spans)
{
    struct S {
        int level;
        uint64_t begin, end;
        const char *name;
    };
    std::vector<S> list;
    for (const auto &s : spans) {
        int level = simSpanLevel(s.name);
        if (level < 0 || s.endSeconds < s.beginSeconds)
            continue;
        list.push_back({level, toNs(s.beginSeconds), toNs(s.endSeconds),
                        s.name});
    }
    std::sort(list.begin(), list.end(),
              [](const S &a, const S &b) { return a.begin < b.begin; });
    std::map<std::string, double> out;
    for (const char *name : kStageSpans)
        out[name] = 0.0;
    for (size_t i = 0; i < list.size(); ++i) {
        const S &p = list[i];
        std::vector<Interval> children;
        // Children start at or after p.begin; scan back over equal
        // begins, then forward until past p.end.
        size_t j = i;
        while (j > 0 && list[j - 1].begin == p.begin)
            --j;
        for (; j < list.size() && list[j].begin <= p.end; ++j) {
            const S &c = list[j];
            if (j != i && c.level > p.level && c.end <= p.end)
                children.push_back({c.begin, c.end});
        }
        if (out.count(p.name) == 0)
            continue;
        out[p.name] += static_cast<double>(
                           selfLength(children, {p.begin, p.end})) /
                       1e9;
    }
    return out;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** One query as issued, its outcome digest, and what to check it
 *  against. */
struct QueryRecord {
    std::string sql;
    query::Query query;
    const Dataset *dataset = nullptr;
    size_t copy = 0;
    size_t visibleAppends = 0; // appends in the object's log at plan time
    int item = -1;             // hot_skew Zipf item
    bool windowed = false;     // completed inside the measurement window
    bool done = false;
    bool ok = false;
    std::string error;
    ResultDigest digest;
};

struct AppendRecord {
    size_t copy = 0;
    format::Table rows;
    bool done = false;
    bool ok = false;
    std::string error;
};

/** Counts over the measurement window's completed operations. */
struct Tally {
    std::vector<double> latencies; // seconds; failures are +inf
    std::vector<double> appendLatencies;
    uint64_t rowsScanned = 0, rowsMatched = 0;
    uint64_t rgScanned = 0, rgSkipped = 0;
    uint64_t filterPush = 0, filterFetch = 0, filterCached = 0;
    uint64_t projPush = 0, projFetch = 0, projCached = 0;
    uint64_t deltaSegments = 0;
};

/** Store counters and resource busy time at one instant. */
struct Snapshot {
    obs::MetricsSnapshot metrics;
    uint64_t events = 0;
    double simSeconds = 0.0;
    std::vector<double> busy; // per node: disk, nicIn, nicOut, cpu
};

/** What one round hands to the run: its report, plus the host times
 *  the run combines across rounds. Host times exclude the speed probe's
 *  own runs. */
struct Round {
    bool traced = false;
    RunReport report;
    std::vector<double> setupSeconds;     // one per rig build
    std::vector<double> setupNormSeconds; // the same at nominal speed
    std::vector<double> blockSeconds;     // kBlocks of the window
    double windowSeconds = 0.0;           // their sum
    double probeNs = 0.0; // median probe time over the window's blocks
};

/**
 * One round: builds the rig, warms up, runs the timed phase until the
 * measurement window is full, drains, and checks every result. Every
 * round of a run replays the same seeded work, so their simulated
 * figures are identical and their host times differ only by noise.
 */
class Run
{
  public:
    Run(const RunOptions &options, const Spec &spec, bool traced,
        size_t setupReps, SpeedProbe &probe)
        : opts_(options), spec_(spec), traced_(traced),
          setupReps_(setupReps), probe_(probe),
          queryRng_(options.seed * 3 + 1),
          arrivalRng_(options.seed * 5 + 2), appendRng_(options.seed * 7 + 3)
    {
    }

    Round execute();

  private:
    sim::SimEngine &engine() { return rig_->cluster->engine(); }
    store::ObjectStore &store() { return *rig_->store; }

    void setup(Round &round);
    void drive(bool timed);
    void startSources();
    bool mayIssue();
    void issueQuery();
    void arrive();
    void scheduleArrival();
    void scheduleAppend();
    void appendNow();
    size_t newQueryRecord();
    void recordOutcome(size_t rec, const store::QueryOutcome *outcome,
                       const Status &status, double latency,
                       double completedAt);
    bool countTimedOp(double completedAt);
    bool windowFull() const { return timedOps_ >= spec_.windowOps; }
    double storageOverhead();
    void tick();
    Snapshot snapshot();
    void check(RunReport &report);
    void report(RunReport &report, const Snapshot &before);

    RunOptions opts_;
    const Spec &spec_;
    const bool traced_;
    const size_t setupReps_;
    SpeedProbe &probe_;
    HostTracer tracer_;
    std::unique_ptr<Rig> rig_;
    std::unique_ptr<sched::SharedScanScheduler> sched_;
    std::unique_ptr<sim::FaultInjector> faults_;
    std::unique_ptr<ZipfSampler> zipf_;
    Rng queryRng_, arrivalRng_, appendRng_;
    double offeredRate_ = 0.0;

    std::vector<QueryRecord> queries_;
    std::vector<AppendRecord> appends_;
    /** Per lineitem copy: accepted appends in log order. */
    std::vector<std::vector<size_t>> logByCopy_;

    bool timedPhase_ = false;
    bool stopIssuing_ = false;
    size_t warmupIssued_ = 0;
    double phaseStartSim_ = 0.0;
    Tally tally_;
    /** Open "bench.window" span of a traced round (0 when none). */
    uint32_t windowSpan_ = 0;
    /** Engine events the traced window processed. */
    uint64_t phaseBeginEvents_ = 0, windowEvents_ = 0;
    uint64_t timedOps_ = 0;
    uint64_t phaseBeginNs_ = 0;
    /** Host time at the end of each kBlocks-th of the window, and the
     *  probe time spent in the timed phase by then. */
    std::vector<uint64_t> blockEndNs_, blockProbeNs_;
    /** The probe is due at the next tick; its runs and their total. */
    bool probeDue_ = false;
    std::vector<double> probeRunsNs_;
    uint64_t probeSpentNs_ = 0;
    /** At the window's last completion: host time, simulated time,
     *  store counters, peak RSS and storage overhead. */
    uint64_t windowEndNs_ = 0;
    double windowEndSim_ = 0.0;
    Snapshot windowSnap_;
    double rssMb_ = 0.0;
    double storageOverhead_ = 0.0;
};

void
Run::setup(Round &round)
{
    RunReport &report = round.report;
    RigConfig config;
    config.withTaxi = spec_.taxi;
    config.cacheShareOfWorkingSet = spec_.cacheShare;
    // Each build's time is rescaled by the probe speed around it.
    double probe_before = probe_.medianNs(kSetupProbes);
    for (size_t rep = 0; rep < setupReps_; ++rep) {
        rig_.reset();
        tracer_.setEnabled(traced_ && rep + 1 == setupReps_);
        double t0 = walltime::monotonicSeconds();
        rig_ = buildRig(config, tracer_);
        double secs = walltime::monotonicSeconds() - t0;
        tracer_.setEnabled(false);
        double probe_after = probe_.medianNs(kSetupProbes);
        round.setupSeconds.push_back(secs);
        round.setupNormSeconds.push_back(
            secs * SpeedProbe::kNominalNs /
            ((probe_before + probe_after) / 2.0));
        probe_before = probe_after;
    }
    logByCopy_.assign(rig_->lineitem.objects.size(), {});

    if (spec_.openLoop) {
        sched_ = std::make_unique<sched::SharedScanScheduler>(store());
        zipf_ = std::make_unique<ZipfSampler>(4 * kHotVariants * kCopies,
                                              kZipfTheta);
        offeredRate_ = kHotSkewRate;
    }
    if (spec_.faults) {
        sim::FaultSchedule schedule;
        schedule.crashAt(0.0, kCrashedNode);
        schedule.slowAt(0.0, kFlappingNode, kFlapSlowFactor);
        schedule.flap(kFlappingNode, kFlapPeriod, kFlapPeriod, kFlapDowntime,
                      kFlapCycles);
        report.info.push_back("fault_schedule: crash node " +
                              std::to_string(kCrashedNode) +
                              " at 0 s; node " +
                              std::to_string(kFlappingNode) + " slowed x" +
                              std::to_string(kFlapSlowFactor) +
                              " at 0 s and down " +
                              std::to_string(kFlapDowntime) + " s of every " +
                              std::to_string(kFlapPeriod) + " s");
        faults_ = std::make_unique<sim::FaultInjector>(*rig_->cluster,
                                                       schedule);
        faults_->arm();
        // Apply the t=0 crash and slowdown before the first query plans.
        engine().runUntil(0.0);
    } else {
        report.info.push_back("fault_schedule: none");
    }
}

bool
Run::mayIssue()
{
    if (stopIssuing_)
        return false;
    if (!timedPhase_ && ++warmupIssued_ >= spec_.warmupQueries)
        stopIssuing_ = true;
    return true;
}

size_t
Run::newQueryRecord()
{
    HostTracer::Scope gen(tracer_, "bench.gen", queries_.size() + 1);
    QueryRecord rec;
    if (spec_.openLoop) {
        // Item rank r -> template r % 4, copy (r / 4) % 4, literal
        // variant r / 16: the hottest items span every template.
        size_t r = zipf_->sample(queryRng_) - 1;
        rec.item = static_cast<int>(r);
        Template t = static_cast<Template>(r % 4);
        rec.copy = (r / 4) % kCopies;
        rec.dataset = t <= kQ2 ? &rig_->lineitem : &rig_->taxi;
        double sel = kSelectivity[t] * kHotVariantScale[r / (4 * kCopies)];
        rec.sql = sqlFor(t, rec.dataset->objects[rec.copy],
                         literalFor(t, *rec.dataset, sel));
    } else {
        Template t = spec_.taxi ? static_cast<Template>(queryRng_.pickIndex(4))
                                : static_cast<Template>(queryRng_.pickIndex(2));
        rec.copy = queryRng_.pickIndex(kCopies);
        rec.dataset = t <= kQ2 ? &rig_->lineitem : &rig_->taxi;
        // Selectivity drawn log-uniformly in [0.5x, 2x] of Table 4's.
        double sel = kSelectivity[t] *
                     std::exp2(queryRng_.uniformReal(-1.0, 1.0));
        rec.sql = sqlFor(t, rec.dataset->objects[rec.copy],
                         literalFor(t, *rec.dataset, sel));
    }
    if (rec.dataset == &rig_->lineitem)
        rec.visibleAppends = logByCopy_[rec.copy].size();
    queries_.push_back(std::move(rec));
    return queries_.size() - 1;
}

/** Folds one completed query into its record and, inside the
 *  measurement window, the tally; `outcome` is null when the query
 *  failed with `status`. */
void
Run::recordOutcome(size_t rec, const store::QueryOutcome *outcome,
                   const Status &status, double latency, double completedAt)
{
    HostTracer::Scope span(tracer_, "bench.record", rec + 1);
    QueryRecord &q = queries_[rec];
    q.done = true;
    q.ok = outcome != nullptr;
    if (q.ok)
        q.digest = digestOf(outcome->result);
    else
        q.error = status.toString();
    q.windowed = countTimedOp(completedAt);
    if (!q.windowed)
        return;
    if (!q.ok) {
        tally_.latencies.push_back(kInf);
        return;
    }
    const store::QueryOutcome &o = *outcome;
    tally_.latencies.push_back(latency);
    tally_.rowsScanned += o.result.rowsScanned;
    tally_.rowsMatched += o.result.rowsMatched;
    tally_.rgScanned += o.rowGroupsScanned;
    tally_.rgSkipped += o.rowGroupsSkipped;
    tally_.filterPush += o.filterChunkPushdowns;
    tally_.filterFetch += o.filterChunkFetches;
    tally_.filterCached += o.filterChunkCached;
    tally_.projPush += o.projectionPushdowns;
    tally_.projFetch += o.projectionFetches;
    tally_.projCached += o.projectionCachedLocal;
    tally_.deltaSegments += o.deltaSegmentsScanned;
}

/** Closed loop: one client's next query; its completion issues the
 *  client's following one. */
void
Run::issueQuery()
{
    if (!mayIssue())
        return;
    size_t rec = newQueryRecord();
    QueryRecord &q = queries_[rec];
    {
        HostTracer::Scope span(tracer_, "query.parse", rec + 1);
        auto parsed = query::parseQuery(q.sql);
        FUSION_CHECK_MSG(parsed.isOk(), parsed.status().toString());
        q.query = std::move(parsed.value());
    }
    HostTracer::Scope span(tracer_, "store.queryAsync", rec + 1);
    store().queryAsync(q.query, [this, rec](Result<store::QueryOutcome> r) {
        if (r.isOk())
            recordOutcome(rec, &r.value(), r.status(),
                          r.value().latencySeconds, engine().now());
        else
            recordOutcome(rec, nullptr, r.status(), kInf, engine().now());
        issueQuery();
    });
}

/** Open loop: one Poisson arrival submits through the scheduler and
 *  schedules the next. */
void
Run::arrive()
{
    if (!mayIssue())
        return;
    size_t rec = newQueryRecord();
    QueryRecord &q = queries_[rec];
    {
        HostTracer::Scope span(tracer_, "query.parse", rec + 1);
        auto parsed = query::parseQuery(q.sql);
        FUSION_CHECK_MSG(parsed.isOk(), parsed.status().toString());
        q.query = std::move(parsed.value());
    }
    {
        HostTracer::Scope span(tracer_, "sched.submit", rec + 1);
        sched_->submit(q.query, rec);
    }
    scheduleArrival();
}

void
Run::scheduleArrival()
{
    double gap = -std::log(1.0 - arrivalRng_.uniform()) / offeredRate_;
    engine().schedule(gap, [this]() { arrive(); });
}

void
Run::scheduleAppend()
{
    double gap = appendRng_.uniformReal(0.5, 1.5) / kAppendRate;
    engine().schedule(gap, [this]() { appendNow(); });
}

void
Run::appendNow()
{
    if (stopIssuing_)
        return;
    size_t idx = appends_.size();
    {
        HostTracer::Scope gen(tracer_, "bench.gen");
        AppendRecord a;
        a.copy = idx % kCopies;
        a.rows = workload::makeLineitemTable(kAppendRows, appendRng_.next());
        appends_.push_back(std::move(a));
    }
    AppendRecord &a = appends_[idx];
    const double issued = engine().now();
    {
        HostTracer::Scope span(tracer_, "lifecycle.appendAsync");
        store().appendAsync(
            rig_->lineitem.objects[a.copy], a.rows,
            [this, idx, issued](Result<store::AppendResult> r) {
                AppendRecord &done = appends_[idx];
                done.done = true;
                done.ok = r.isOk();
                if (!done.ok)
                    done.error = r.status().toString();
                if (countTimedOp(engine().now()))
                    tally_.appendLatencies.push_back(
                        done.ok ? engine().now() - issued : kInf);
            });
    }
    // append() runs synchronously inside appendAsync: unless it already
    // failed, the batch is in the log before any later query plans.
    if (!(a.done && !a.ok))
        logByCopy_[a.copy].push_back(idx);
    scheduleAppend();
}

void
Run::startSources()
{
    stopIssuing_ = false;
    warmupIssued_ = 0;
    if (spec_.openLoop) {
        scheduleArrival();
    } else {
        for (size_t c = 0; c < kClients; ++c)
            issueQuery();
    }
    if (spec_.appends)
        scheduleAppend();
}

/**
 * Counts one completed operation of the timed phase; true when it is one
 * of the first windowOps, i.e. inside the measurement window. Closes the
 * window at the last one: completions arrive in simulated-time order, so
 * the window and everything taken at its end depend on the seed alone
 * (host time and peak RSS apart).
 */
bool
Run::countTimedOp(double completedAt)
{
    if (!timedPhase_ || windowFull())
        return false;
    ++timedOps_;
    if (timedOps_ % (spec_.windowOps / kBlocks) == 0) {
        blockEndNs_.push_back(walltime::monotonicNanos());
        blockProbeNs_.push_back(probeSpentNs_);
        probeDue_ = true;
    }
    if (timedOps_ == spec_.windowOps) {
        windowEndNs_ = blockEndNs_.back();
        windowEndSim_ = completedAt;
        windowSnap_ = snapshot();
        rssMb_ = peakRssMb();
        storageOverhead_ = storageOverhead();
    }
    return true;
}

/** Stored / logical bytes of every object, delta-log replicas included. */
double
Run::storageOverhead()
{
    store::ObjectStore::StoreStats st = store().stats();
    double stored = static_cast<double>(st.storedBytes);
    double logical = static_cast<double>(st.logicalBytes);
    for (const Dataset *d : {&rig_->lineitem, &rig_->taxi})
        for (const std::string &obj : d->objects)
            if (const lifecycle::DeltaLog *log = store().deltaLog(obj))
                for (const auto &seg : log->segments()) {
                    logical += static_cast<double>(seg.bytes);
                    stored += static_cast<double>(seg.bytes) *
                              static_cast<double>(seg.replicaNodes.size());
                }
    return ratio(stored, logical);
}

/** Runs the speed probe after each block of the window, and ends the
 *  timed phase once the window is full: sources stop issuing and a
 *  traced round stops tracing. Runs between loop steps, never inside
 *  a span. */
void
Run::tick()
{
    if (probeDue_) {
        probeDue_ = false;
        uint64_t t0 = walltime::monotonicNanos();
        {
            HostTracer::Scope span(tracer_, "bench.probe");
            probeRunsNs_.push_back(probe_.warmNs());
        }
        probeSpentNs_ += walltime::monotonicNanos() - t0;
    }
    if (!timedPhase_ || stopIssuing_ || !windowFull())
        return;
    stopIssuing_ = true;
    if (windowSpan_ != 0) {
        tracer_.end(windowSpan_);
        windowSpan_ = 0;
        tracer_.setEnabled(false);
        store().obs().tracer.setEnabled(false);
        windowEvents_ = engine().eventsProcessed() - phaseBeginEvents_;
    }
}

/**
 * Runs one phase to completion: sources issue until the warm-up budget
 * or the end of the timed phase (see tick()), then everything in flight
 * drains.
 */
void
Run::drive(bool timed)
{
    timedPhase_ = timed;
    if (timed) {
        phaseStartSim_ = engine().now();
        phaseBeginEvents_ = engine().eventsProcessed();
        if (traced_) {
            tracer_.setEnabled(true);
            store().obs().tracer.setEnabled(true);
            windowSpan_ = tracer_.begin("bench.window");
        }
        phaseBeginNs_ = walltime::monotonicNanos();
    }
    startSources();
    while (true) {
        tick();
        if (sched_) {
            sched::QueryHandle *h = nullptr;
            {
                HostTracer::Scope span(tracer_, "sched.await");
                h = sched_->awaitAny();
            }
            if (h != nullptr) {
                size_t rec = h->tag;
                if (h->status().isOk())
                    recordOutcome(rec, &h->outcome(), h->status(),
                                  h->sojournSeconds(),
                                  h->completionSeconds());
                else
                    recordOutcome(rec, nullptr, h->status(), kInf,
                                  h->completionSeconds());
                continue;
            }
        }
        bool progressed = false;
        {
            HostTracer::Scope span(tracer_, "sim.run");
            for (size_t k = 0; k < kEventsPerStep && engine().step(); ++k)
                progressed = true;
        }
        if (!progressed)
            break;
    }
    tick();
    timedPhase_ = false;
}

Snapshot
Run::snapshot()
{
    Snapshot s;
    s.metrics = store().obs().metrics.snapshot();
    s.events = engine().eventsProcessed();
    s.simSeconds = engine().now();
    for (size_t n = 0; n < rig_->cluster->numNodes(); ++n) {
        sim::StorageNode &node = rig_->cluster->node(n);
        for (sim::SimResource *r :
             {&node.disk(), &node.nicIn(), &node.nicOut(), &node.cpu()})
            s.busy.push_back(r->busySeconds());
    }
    return s;
}

Round
Run::execute()
{
    Round round;
    round.traced = traced_;
    RunReport &report = round.report;
    auto stamp = [&](const char *what, double since) {
        double now = walltime::monotonicSeconds();
        report.info.push_back(std::string(what) + "_host_s: " +
                              std::to_string(now - since));
        return now;
    };
    double t = walltime::monotonicSeconds();
    setup(round);
    t = stamp("setup", t);
    if (spec_.warmupQueries > 0)
        drive(false);
    t = stamp("warmup", t);
    Snapshot before = snapshot();
    drive(true);
    t = stamp("timed", t);
    check(report);
    stamp("check", t);
    this->report(report, before);
    if (windowFull()) {
        uint64_t from = phaseBeginNs_, probed = 0;
        for (size_t b = 0; b < blockEndNs_.size(); ++b) {
            uint64_t ns = blockEndNs_[b] - from - (blockProbeNs_[b] - probed);
            round.blockSeconds.push_back(static_cast<double>(ns) / 1e9);
            round.windowSeconds += round.blockSeconds.back();
            from = blockEndNs_[b];
            probed = blockProbeNs_[b];
        }
        round.probeNs = median(probeRunsNs_);
    }
    return round;
}

/** Compares every result against the naive evaluator and verifies no
 *  acknowledged append was lost. Runs after the timed phase. */
void
Run::check(RunReport &report)
{
    auto fail = [&](const std::string &what) {
        ++report.failed;
        report.correct = false;
        if (report.errors.size() < 10)
            report.errors.push_back(what);
    };
    if (!windowFull())
        fail("the timed phase ended before its " +
             std::to_string(spec_.windowOps) +
             "-operation measurement window was full");
    else if (tally_.latencies.empty())
        fail("no query completed in the measurement window");
    // One naive evaluation per distinct (text, visible appends), fanned
    // out over the shared pool; the comparisons stay serial and ordered.
    std::map<std::pair<std::string, size_t>, size_t> slot;
    std::vector<const QueryRecord *> distinct;
    for (const QueryRecord &q : queries_)
        if (q.done && q.ok &&
            slot.emplace(std::make_pair(q.sql, q.visibleAppends),
                         distinct.size())
                .second)
            distinct.push_back(&q);
    std::vector<ResultDigest> expected(distinct.size());
    ThreadPool::shared().parallelFor(0, distinct.size(), [&](size_t i) {
        const QueryRecord &q = *distinct[i];
        std::vector<const format::Table *> parts = {&q.dataset->table};
        if (q.dataset == &rig_->lineitem)
            for (size_t k = 0; k < q.visibleAppends; ++k)
                parts.push_back(&appends_[logByCopy_[q.copy][k]].rows);
        expected[i] = referenceDigest(parts, q.query);
    });
    for (const QueryRecord &q : queries_) {
        ++report.attempted;
        if (!q.done) {
            fail("query never completed: " + q.sql);
            continue;
        }
        if (!q.ok) {
            fail("query failed: " + q.sql + ": " + q.error);
            continue;
        }
        std::string why;
        const ResultDigest &want =
            expected[slot.at(std::make_pair(q.sql, q.visibleAppends))];
        if (!sameResult(q.digest, want, &why))
            fail("wrong result for " + q.sql + ": " + why);
    }
    for (const AppendRecord &a : appends_) {
        ++report.attempted;
        if (!a.done)
            fail("append never acknowledged");
        else if (!a.ok)
            fail("append failed: " + a.error);
    }
    // Every acknowledged append must still be readable after the run
    // (and after any compaction folds).
    if (spec_.appends) {
        for (size_t c = 0; c < rig_->lineitem.objects.size(); ++c) {
            uint64_t expect = rig_->lineitem.table.numRows();
            for (size_t idx : logByCopy_[c])
                if (appends_[idx].ok)
                    expect += appends_[idx].rows.numRows();
            auto r = store().querySql("SELECT COUNT(*) FROM " +
                                      rig_->lineitem.objects[c]);
            if (!r.isOk() || r.value().result.rowsMatched != expect)
                fail("lost appends on " + rig_->lineitem.objects[c]);
        }
    }
}

/** Store counters and simulated time cover the measurement window
 *  (phase start to its last completion); host self times and sim-time
 *  stages cover a traced round's window. The run adds setup_s,
 *  host_ops_per_s and obs.trace_overhead_frac, which span rounds. */
void
Run::report(RunReport &report, const Snapshot &before)
{
    const Snapshot &after = windowSnap_;
    auto counter = [&](const std::string &name) {
        auto get = [&](const Snapshot &s) -> double {
            auto it = s.metrics.values.find(name);
            if (it == s.metrics.values.end())
                return 0.0;
            return it->second.kind == obs::SnapshotValue::Kind::kCounter
                       ? static_cast<double>(it->second.count)
                       : it->second.number;
        };
        return get(after) - get(before);
    };
    auto hitRatio = [&](const std::string &prefix) {
        double hit = counter(prefix + ".hit");
        return ratio(hit, hit + counter(prefix + ".miss"));
    };

    const double queries = static_cast<double>(tally_.latencies.size());
    const double sim_elapsed = windowEndSim_ - phaseStartSim_;
    auto perQuery = [&](double v) { return ratio(v, queries); };

    const double window_host_s =
        windowFull() ? static_cast<double>(windowEndNs_ - phaseBeginNs_ -
                                           blockProbeNs_.back()) /
                           1e9
                     : 0.0;

    const double wire = counter("wire.filter.request_bytes") +
                        counter("wire.filter.reply_bytes") +
                        counter("wire.projection.request_bytes") +
                        counter("wire.projection.reply_bytes");

    auto &e2e = report.endToEnd;
    e2e["sim_query_p50_ms"] = {percentile(tally_.latencies, 50) * 1e3, "ms"};
    e2e["sim_query_p99_ms"] = {percentile(tally_.latencies, 99) * 1e3, "ms"};
    e2e["sim_qps"] = {ratio(queries, sim_elapsed), "1/s"};
    e2e["wire_bytes_per_query"] = {perQuery(wire), "B"};
    e2e["storage_overhead"] = {storageOverhead_, "ratio"};
    e2e["peak_rss_mb"] = {rssMb_, "MB"};

    // ---- workload properties and environment ----
    std::set<std::string> texts;
    std::map<int, uint64_t> items;
    for (const QueryRecord &q : queries_) {
        if (!q.windowed)
            continue;
        texts.insert(q.sql);
        if (q.item >= 0)
            ++items[q.item];
    }
    std::vector<uint64_t> item_counts;
    for (const auto &[item, n] : items)
        item_counts.push_back(n);
    std::sort(item_counts.rbegin(), item_counts.rend());
    uint64_t top10 = 0;
    for (size_t i = 0; i < item_counts.size() && i < 10; ++i)
        top10 += item_counts[i];

    auto &pl = report.perLayer;
    pl["workload.distinct_text_frac"] = {
        ratio(static_cast<double>(texts.size()), queries), "fraction"};
    pl["workload.working_set_mb"] = {
        static_cast<double>(rig_->workingSetBytes) / 1e6, "MB"};
    pl["workload.cache_mb"] = {static_cast<double>(rig_->cacheBytes) / 1e6,
                               "MB"};
    pl["workload.zipf_top10_share"] = {
        ratio(static_cast<double>(top10), queries), "fraction"};
    pl["workload.append_kb_per_sim_s"] = {
        ratio(counter("append.segment_bytes") / 1e3, sim_elapsed), "kB/s"};
    pl["workload.offered_qps"] = {offeredRate_, "1/s"};

    // ---- sample counts and secondary end-to-end figures ----
    pl["sim_query.samples"] = {queries, "count"};
    pl["sim_query.tail_percentile"] = {
        highestSupportedPercentile(tally_.latencies.size()), "pct"};
    pl["sim_append.samples"] = {
        static_cast<double>(tally_.appendLatencies.size()), "count"};
    pl["sim_append_p50_ms"] = {percentile(tally_.appendLatencies, 50) * 1e3,
                               "ms"};
    pl["sim_append_p99_ms"] = {percentile(tally_.appendLatencies, 99) * 1e3,
                               "ms"};
    // Errors, wrong results and lost appends over every operation the
    // run attempted (check() has already run).
    pl["failed_frac"] = {ratio(static_cast<double>(report.failed),
                               static_cast<double>(report.attempted)),
                         "fraction"};

    // ---- store plan + data plane, Cost Equation, decode ----
    pl["store.memo_plan_hit_ratio"] = {hitRatio("cache.plan"), "ratio"};
    pl["store.memo_bitmap_hit_ratio"] = {hitRatio("cache.bitmap"), "ratio"};
    pl["store.memo_decode_hit_ratio"] = {hitRatio("cache.decode"), "ratio"};
    pl["store.rows_scanned_per_row_matched"] = {
        ratio(static_cast<double>(tally_.rowsScanned),
              static_cast<double>(tally_.rowsMatched)),
        "ratio"};
    pl["store.row_groups_skipped_frac"] = {
        ratio(static_cast<double>(tally_.rgSkipped),
              static_cast<double>(tally_.rgScanned + tally_.rgSkipped)),
        "fraction"};
    pl["store.filter_pushdown_frac"] = {
        ratio(static_cast<double>(tally_.filterPush),
              static_cast<double>(tally_.filterPush + tally_.filterFetch +
                                  tally_.filterCached)),
        "fraction"};
    pl["store.projection_pushdown_frac"] = {
        ratio(static_cast<double>(tally_.projPush),
              static_cast<double>(tally_.projPush + tally_.projFetch +
                                  tally_.projCached)),
        "fraction"};
    pl["wire.filter_bytes_per_query"] = {
        perQuery(counter("wire.filter.request_bytes") +
                 counter("wire.filter.reply_bytes")),
        "B"};
    pl["wire.projection_bytes_per_query"] = {
        perQuery(counter("wire.projection.request_bytes") +
                 counter("wire.projection.reply_bytes")),
        "B"};
    pl["wire.client_reply_bytes_per_query"] = {
        perQuery(counter("wire.client.reply_bytes")), "B"};
    pl["format.chunks_decoded_per_query"] = {
        perQuery(counter("cache.decode.miss")), "count"};

    // ---- sim DES and resources ----
    pl["sim.events_per_query"] = {
        perQuery(static_cast<double>(after.events - before.events)),
        "count"};
    double disk = 0.0, net = 0.0, cpu = 0.0, bottleneck = 0.0;
    const double cores =
        static_cast<double>(rig_->cluster->config().node.cpuCores);
    for (size_t i = 0; i < after.busy.size(); ++i) {
        double busy = after.busy[i] - before.busy[i];
        switch (i % 4) {
          case 0: disk += busy; break;
          case 1:
          case 2: net += busy; break;
          case 3: cpu += busy; break;
        }
        double slots = i % 4 == 3 ? cores : 1.0;
        bottleneck = std::max(bottleneck, ratio(busy, slots * sim_elapsed));
    }
    pl["sim.disk_busy_ms_per_query"] = {perQuery(disk) * 1e3, "ms"};
    pl["sim.net_busy_ms_per_query"] = {perQuery(net) * 1e3, "ms"};
    pl["sim.cpu_busy_ms_per_query"] = {perQuery(cpu) * 1e3, "ms"};
    pl["sim.bottleneck_util"] = {bottleneck, "fraction"};

    // ---- cache ----
    {
        double hits = counter("cache.chunk.hits");
        pl["cache.chunk_hit_ratio"] = {
            ratio(hits, hits + counter("cache.chunk.misses")), "ratio"};
        pl["cache.evictions_per_query"] = {
            perQuery(counter("cache.chunk.evictions")), "count"};
        double verdicts = static_cast<double>(
            tally_.filterPush + tally_.filterFetch + tally_.filterCached +
            tally_.projPush + tally_.projFetch + tally_.projCached);
        pl["cache.local_verdict_frac"] = {
            ratio(static_cast<double>(tally_.filterCached + tally_.projCached),
                  verdicts),
            "fraction"};
    }

    // ---- sched ----
    {
        double planned = counter("sched.tasks_planned");
        pl["sched.dedup_rate"] = {
            ratio(planned - counter("sched.tasks_issued"), planned), "ratio"};
        pl["sched.fetch_conversions_per_query"] = {
            perQuery(counter("sched.fetch_conversions")), "count"};
        pl["sched.load_sheds_per_query"] = {
            perQuery(counter("sched.load_sheds")), "count"};
        pl["sched.joined_inflight_frac"] = {
            ratio(counter("sched.joined_inflight"), planned), "fraction"};
        double wait_p99 = 0.0;
        auto it = after.metrics.values.find("sched.queue_wait_seconds");
        if (it != after.metrics.values.end()) {
            obs::MetricsSnapshot delta = after.metrics.diff(before.metrics);
            wait_p99 = obs::histogramPercentile(
                delta.values.at("sched.queue_wait_seconds"), 99);
        }
        pl["sched.queue_wait_p99_ms"] = {wait_p99 * 1e3, "ms"};
    }

    // ---- lifecycle ----
    pl["lifecycle.compactions"] = {counter("compaction.runs"), "count"};
    pl["lifecycle.compaction_aborts"] = {counter("compaction.aborts"),
                                         "count"};
    pl["lifecycle.write_amp"] = {ratio(counter("compaction.bytes_out"),
                                       counter("append.segment_bytes")),
                                 "ratio"};
    pl["lifecycle.delta_segments_per_query"] = {
        perQuery(static_cast<double>(tally_.deltaSegments)), "count"};
    pl["lifecycle.hot_colocated_chunks"] = {
        counter("compaction.hot_colocated_chunks"), "count"};

    // ---- fac / ec put ----
    pl["store.put_ms_per_mb"] = {
        ratio(rig_->putHostSeconds * 1e3,
              static_cast<double>(rig_->putBytes) / 1e6),
        "ms/MB"};
    pl["fac.overhead_vs_optimal"] = {rig_->overheadVsOptimal, "ratio"};

    // ---- fault path ----
    pl["fault.read_retries_per_query"] = {
        perQuery(counter("fault.read_retries")), "count"};
    pl["fault.parity_reconstructions"] = {
        counter("fault.parity_reconstructions"), "count"};
    pl["fault.degraded_chunk_reads_per_query"] = {
        perQuery(counter("fault.degraded_chunk_reads")), "count"};
    pl["fault.backoff_ms_per_query"] = {
        perQuery(counter("fault.backoff_seconds")) * 1e3, "ms"};
    pl["fault.pushdown_fallbacks_per_query"] = {
        perQuery(counter("fault.pushdown_fallbacks")), "count"};

    // ---- traced round: host self time per layer, sim-time stages ----
    std::map<std::string, HostTracer::NameStats> host = tracer_.nameStats();
    auto selfNs = [&](const char *name) {
        auto it = host.find(name);
        return it == host.end() ? 0.0
                                : static_cast<double>(it->second.selfNs);
    };
    auto perCall = [&](const char *name, double unit_ns) {
        auto it = host.find(name);
        if (it == host.end())
            return 0.0;
        return ratio(static_cast<double>(it->second.selfNs) / unit_ns,
                     static_cast<double>(it->second.calls));
    };
    pl["query.parse_us"] = {perCall("query.parse", 1e3), "us"};
    pl["store.plan_us"] = {
        perCall(sched_ ? "sched.submit" : "store.queryAsync", 1e3), "us"};
    pl["sched.submit_us"] = {perCall("sched.submit", 1e3), "us"};
    pl["sim.dispatch_ns_per_event"] = {
        ratio(selfNs("sim.run") + selfNs("sched.await"),
              static_cast<double>(windowEvents_)),
        "ns"};
    pl["lifecycle.append_us"] = {perCall("lifecycle.appendAsync", 1e3),
                                 "us"};
    pl["lifecycle.compact_ms"] = {perCall("lifecycle.compact", 1e6), "ms"};
    {
        double total = 0.0, attributed = 0.0;
        auto it = host.find("bench.window");
        if (it != host.end())
            total = static_cast<double>(it->second.totalNs);
        for (const auto &[name, stats] : host)
            if (name != "bench.window" && name != "store.put")
                attributed += static_cast<double>(stats.selfNs);
        pl["host.attributed_frac"] = {ratio(attributed, total), "fraction"};
        double layers = 0.0;
        for (const char *name : kLayerSpans)
            layers += selfNs(name);
        pl["host.layer_frac"] = {ratio(layers, total), "fraction"};
    }

    // Sim-time stages over the traced window's queries.
    {
        std::map<std::string, double> stages =
            simStageSelfSeconds(store().obs().tracer.spans());
        for (const auto &[name, secs] : stages)
            pl["span." + name + ".self_ms_per_query"] = {
                perQuery(secs * 1e3), "ms"};
    }
    if (traced_)
        report.hostTraceJson = tracer_.toChromeJson();

    report.info.push_back("seed: " + std::to_string(opts_.seed));
    report.info.push_back("threads: " + std::to_string(kThreads));
    report.info.push_back("cache_bytes: " + std::to_string(rig_->cacheBytes));
    report.info.push_back("loop: " +
                          std::string(spec_.openLoop
                                          ? "open, Poisson " +
                                                std::to_string(offeredRate_) +
                                                " queries/sim-s"
                                          : "closed, " +
                                                std::to_string(kClients) +
                                                " clients"));
    report.info.push_back("window_ops: " + std::to_string(spec_.windowOps));
    report.info.push_back("window_host_s: " + std::to_string(window_host_s));
    report.info.push_back("window_queries: " +
                          std::to_string(tally_.latencies.size()));
    report.info.push_back("sim_elapsed_s: " + std::to_string(sim_elapsed));
}

/** End-to-end metrics that depend on the seed alone: every round of a
 *  run must reproduce them bit for bit. */
const char *const kSimMetrics[] = {"sim_query_p50_ms", "sim_query_p99_ms",
                                   "sim_qps", "wire_bytes_per_query",
                                   "storage_overhead"};

std::string
joined(const std::vector<double> &values)
{
    std::string out;
    for (double v : values) {
        if (!out.empty())
            out += ' ';
        out += std::to_string(v);
    }
    return out;
}

/**
 * One report from a run's rounds. The simulated metrics, store counters
 * and peak RSS come from the first round, which the others must match.
 * Host times are taken at the speed probe's nominal speed: setup_s is
 * the median over every rig build; host_ops_per_s divides the window's
 * operations by blockwiseMedianSum over the untraced rounds, each
 * round's blocks rescaled by its median probe time. A traced run's
 * per-layer metrics come from its traced round.
 */
RunReport
combineRounds(const Spec &spec, const std::vector<Round> &rounds)
{
    RunReport out = rounds.front().report;
    out.errors.clear();
    out.attempted = out.failed = 0;
    std::vector<double> setups, raw_setups, windows, probes;
    std::vector<std::vector<double>> untraced_blocks, raw_blocks;
    auto normalized = [](const Round &round) {
        std::vector<double> blocks = round.blockSeconds;
        for (double &b : blocks)
            b *= ratio(SpeedProbe::kNominalNs, round.probeNs);
        return blocks;
    };
    const Round *traced = nullptr;
    for (size_t r = 0; r < rounds.size(); ++r) {
        const Round &round = rounds[r];
        RunReport rep = round.report;
        for (const char *name : kSimMetrics) {
            double want = out.endToEnd.at(name).value;
            double got = rep.endToEnd.at(name).value;
            if (std::memcmp(&want, &got, sizeof want) != 0) {
                rep.correct = false;
                ++rep.failed;
                rep.errors.push_back("round " + std::to_string(r) + " gave " +
                                     name + " = " + std::to_string(got) +
                                     ", round 0 " + std::to_string(want));
            }
        }
        out.correct = out.correct && rep.correct;
        out.attempted += rep.attempted;
        out.failed += rep.failed;
        for (const std::string &e : rep.errors)
            if (out.errors.size() < 10)
                out.errors.push_back(e);
        setups.insert(setups.end(), round.setupNormSeconds.begin(),
                      round.setupNormSeconds.end());
        raw_setups.insert(raw_setups.end(), round.setupSeconds.begin(),
                          round.setupSeconds.end());
        windows.push_back(round.windowSeconds);
        probes.push_back(round.probeNs / 1e6);
        if (round.traced) {
            traced = &round;
        } else if (round.blockSeconds.size() == kBlocks) {
            untraced_blocks.push_back(normalized(round));
            raw_blocks.push_back(round.blockSeconds);
        }
    }

    const double ops = static_cast<double>(spec.windowOps);
    const double window_s = blockwiseMedianSum(untraced_blocks);
    out.endToEnd["setup_s"] = {median(setups), "s"};
    out.endToEnd["host_ops_per_s"] = {ratio(ops, window_s), "1/s"};
    if (traced != nullptr) {
        out.perLayer = traced->report.perLayer;
        out.hostTraceJson = traced->report.hostTraceJson;
    }
    double traced_s = 0.0;
    if (traced != nullptr)
        for (double b : normalized(*traced))
            traced_s += b;
    out.perLayer["obs.trace_overhead_frac"] = {
        traced != nullptr ? 1.0 - ratio(window_s, traced_s) : 0.0,
        "fraction"};
    out.perLayer["failed_frac"] = {ratio(static_cast<double>(out.failed),
                                         static_cast<double>(out.attempted)),
                                   "fraction"};

    out.info.push_back(
        "rounds: " + std::to_string(rounds.size()) +
        (traced != nullptr ? " (round 1 traced)" : ""));
    out.info.push_back("round_window_host_s: " + joined(windows));
    out.info.push_back("round_probe_ms: " + joined(probes) + " (nominal " +
                       std::to_string(SpeedProbe::kNominalNs / 1e6) + ")");
    out.info.push_back("window_s_at_nominal_speed: " +
                       std::to_string(window_s));
    out.info.push_back(
        "raw_host_ops_per_s: " +
        std::to_string(ratio(ops, blockwiseMedianSum(raw_blocks))));
    out.info.push_back("setup_builds_s: " + joined(raw_setups));
    out.info.push_back("raw_setup_s: " + std::to_string(median(raw_setups)));
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Spec &s : kSpecs)
            out.push_back(s.name);
        return out;
    }();
    return names;
}

RunReport
runWorkload(const RunOptions &options)
{
    for (const Spec &spec : kSpecs) {
        if (options.workload != spec.name)
            continue;
        ThreadPool::setSharedThreads(kThreads);
        SpeedProbe probe;
        std::vector<Round> rounds;
        double untraced_s = 0.0;
        while (rounds.size() < kMaxRounds &&
               (rounds.size() < kMinRounds || untraced_s < options.seconds)) {
            const bool traced = options.trace && rounds.size() == 1;
            Run run(options, spec, traced,
                    rounds.empty() ? kSetupReps : size_t{1}, probe);
            rounds.push_back(run.execute());
            if (!rounds.back().report.correct)
                break;
            if (!traced)
                untraced_s += rounds.back().windowSeconds;
        }
        return combineRounds(spec, rounds);
    }
    FUSION_CHECK_MSG(false, "unknown workload " + options.workload);
    return {};
}

} // namespace fusionbench
