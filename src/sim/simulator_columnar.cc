/**
 * @file
 * Sequential columnar simulator engine + engine dispatch.
 *
 * Byte-identical to simulateLegacy(): the same round-robin quantum
 * scheduler, the same CoreModel call sequence, the same SyncState
 * machine. What changes is the data plumbing — fetch is driven from the
 * ColumnarTrace columns (runs of micro-ops between sync events execute
 * without per-record sync tests), and cache/coherence state lives on the
 * flat-table SimHierarchy instead of the unordered_map-backed legacy
 * hierarchy. tests/test_sim_parallel.cc pins the identity on the whole
 * workload suite.
 */

#include <algorithm>

#include "common/assert.hh"
#include "common/parallel.hh"
#include "sim/sim_hierarchy.hh"
#include "sim/sim_internal.hh"
#include "sim/simulator.hh"
#include "sim/sync_state.hh"

namespace rppm {

namespace {

/**
 * Binds a SimHierarchy to one core for the CoreModel memory interface.
 * A concrete (non-virtual) type: the engine instantiates CoreModelT on
 * it so every data access and instruction fetch is a direct call.
 */
class SimMemoryAdapter
{
  public:
    SimMemoryAdapter(SimHierarchy &hier, uint32_t core)
        : hier_(hier), core_(core)
    {}

    AccessResult
    dataAccess(uint64_t addr, bool is_write, double now)
    {
        return hier_.dataAccess(core_, addr, is_write, now);
    }

    uint32_t
    instrFetch(uint64_t pc)
    {
        return hier_.instrFetch(core_, pc);
    }

  private:
    SimHierarchy &hier_;
    uint32_t core_;
};

/** Statically-dispatched core model used by this engine. */
using ColumnarCore = CoreModelT<SimMemoryAdapter, sim_detail::BranchAdapter>;

SimResult
simulateColumnarSequential(const ColumnarTrace &trace,
                           const MulticoreConfig &cfg,
                           const SimOptions &opts)
{
    const uint32_t num_threads =
        static_cast<uint32_t>(trace.numThreads());

    const MulticoreConfig hier_cfg =
        sim_detail::expandedHierConfig(cfg, num_threads);
    SimHierarchy hierarchy(hier_cfg);

    std::vector<double> scale(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t)
        scale[t] = cfg.threadTimeScale(t);

    struct Cursor
    {
        ColumnCursor cur;
        bool done = false;
        double activeStart = 0.0;
    };
    std::vector<Cursor> cursors;
    cursors.reserve(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t)
        cursors.push_back({ColumnCursor(trace.threads[t]), false, 0.0});

    std::vector<std::unique_ptr<SimMemoryAdapter>> mems;
    std::vector<std::unique_ptr<TournamentPredictor>> preds;
    std::vector<std::unique_ptr<sim_detail::BranchAdapter>> branch_adapters;
    std::vector<std::unique_ptr<ColumnarCore>> cores;
    for (uint32_t t = 0; t < num_threads; ++t) {
        const CoreConfig &tc = cfg.threadCore(t);
        mems.push_back(std::make_unique<SimMemoryAdapter>(hierarchy, t));
        preds.push_back(std::make_unique<TournamentPredictor>(tc.branch));
        branch_adapters.push_back(
            std::make_unique<sim_detail::BranchAdapter>(*preds[t]));
        cores.push_back(std::make_unique<ColumnarCore>(tc, *mems[t],
                                                       *branch_adapters[t]));
    }

    SyncState sync(num_threads, trace.validateAndBarrierPopulations());

    SimResult result;
    result.workload = trace.name;
    result.config = cfg.name;
    result.threads.resize(num_threads);

    auto close_activity = [&](uint32_t tid, double at) {
        if (at > cursors[tid].activeStart)
            result.threads[tid].activity.push_back(
                {cursors[tid].activeStart, at});
    };

    auto handle_releases = [&](const SyncOutcome &out) {
        for (const auto &[tid, when] : out.released) {
            cores[tid]->idleUntil(when / scale[tid]);
            cursors[tid].activeStart = when;
        }
    };

    // The same round-robin quantum scheduler as simulateLegacy(); runs
    // of micro-ops between sync events execute as one batch with no
    // per-record sync test.
    uint32_t live = num_threads;
    uint32_t cursor = 0;
    while (live > 0) {
        uint32_t pick = UINT32_MAX;
        for (uint32_t i = 0; i < num_threads; ++i) {
            const uint32_t t = (cursor + i) % num_threads;
            if (!cursors[t].done && !sync.blocked(t)) {
                pick = t;
                break;
            }
        }
        RPPM_REQUIRE(pick != UINT32_MAX,
                     "deadlock: no runnable thread (malformed trace)");
        cursor = (pick + 1) % num_threads;

        Cursor &cur = cursors[pick];
        uint32_t executed = 0;
        while (!cur.cur.atEnd() && executed < opts.quantum) {
            if (cur.cur.atSync()) {
                const SyncType type = cur.cur.syncType();
                const uint32_t arg = cur.cur.syncArg();
                cur.cur.advance();
                ++executed;
                if (type == SyncType::CondMarker)
                    continue;
                cores[pick]->syncOverhead(opts.syncOpCost);
                const double now = cores[pick]->now() * scale[pick];
                close_activity(pick, now);
                cur.activeStart = now;
                TraceRecord rec;
                rec.sync = type;
                rec.syncArg = arg;
                const SyncOutcome out = sync.apply(pick, rec, now);
                handle_releases(out);
                if (out.blocks)
                    break;
                continue;
            }
            const size_t run_end =
                std::min(cur.cur.nextSyncPos(),
                         cur.cur.index() + (opts.quantum - executed));
            executed += static_cast<uint32_t>(run_end - cur.cur.index());
            sim_detail::executeRange(cur.cur, *cores[pick], run_end,
                                     [](size_t) {});
        }

        if (cur.cur.atEnd() && !cur.done && !sync.blocked(pick)) {
            cur.done = true;
            --live;
            const double now = cores[pick]->now() * scale[pick];
            close_activity(pick, now);
            result.threads[pick].finishTime = now;
            handle_releases(sync.finish(pick, now));
        }
    }

    sim_detail::finalizeResult(
        result, cfg, num_threads,
        [&](uint32_t t) -> ColumnarCore & { return *cores[t]; },
        [&](uint32_t t) { return preds[t]->stats(); },
        [&](uint32_t t) { return hierarchy.coreStats(t); });
    return result;
}

} // namespace

SimResult
simulate(const ColumnarTrace &trace, const MulticoreConfig &cfg,
         const SimOptions &opts)
{
    trace.validateColumnConsistency();
    cfg.validate();
    RPPM_REQUIRE(opts.quantum > 0, "scheduler quantum must be positive");
    const unsigned jobs = resolveJobs(opts.jobs);
    // The parallel engine shards cache replay by line, which requires
    // the hierarchy to be time-free: bus queueing (memBusCycles > 0)
    // couples access latency to global time, so those configs stay on
    // the sequential engine. Single-threaded traces have nothing to
    // overlap either.
    if (jobs > 1 && trace.numThreads() > 1 && cfg.memBusCycles == 0)
        return sim_detail::simulateParallelImpl(trace, cfg, opts, jobs);
    return simulateColumnarSequential(trace, cfg, opts);
}

} // namespace rppm
