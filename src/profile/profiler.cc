/**
 * @file
 * Fused single-pass profiler over the columnar trace.
 *
 * One sweep over the columns feeds every model component simultaneously:
 * ILP (dependence distances, sampled micro-traces), MLP (load gaps,
 * load-on-load chains), branch entropy, memory/StatStack reuse-distance
 * distributions, and the synchronization profile. Structural validation
 * and barrier populations come from the sparse sync columns
 * (ColumnarTrace::validateAndBarrierPopulations), so nothing walks the
 * full record stream more than once.
 *
 * The functional replay (round-robin quanta, functional synchronization,
 * write-invalidation detection) is semantically identical to the
 * reference implementation in profiler_legacy.cc — tests assert the two
 * produce bit-identical profiles. The per-record statistics loop itself
 * lives in profile/stat_sweep.hh, shared with the multi-worker
 * streaming engine; this engine instantiates it with a *live* reuse-distance
 * provider that probes the global LineTable in replay order, fusing
 * reuse-distance resolution into the same pass.
 */

#include "profile/profiler.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hh"
#include "profile/reuse_tables.hh"
#include "profile/stat_sweep.hh"
#include "sim/sync_state.hh"
#include "trace/columnar.hh"

namespace rppm {

namespace {

// LineTable / SeqTable / InstrLineMap — the open-addressing state tables
// this sweep runs on — live in profile/reuse_tables.hh, shared with the
// streaming engine (profiler_stream.cc).

/** Per-thread profiling cursor and scratch state. */
struct ThreadState
{
    size_t next = 0; ///< next record index
    bool done = false;
    /** Shared-sweep cursor (column indices, sampling windows, op ring). */
    SweepState sweep;
    uint64_t localDataSeq = 0; ///< this thread's data access counter
    InstrLineMap instrLast;    ///< pc line -> seq
};

} // namespace

WorkloadProfile
profileWorkloadFused(const ColumnarTrace &trace, const ProfilerOptions &opts)
{
    const uint32_t num_threads = static_cast<uint32_t>(trace.numThreads());

    WorkloadProfile profile;
    profile.name = trace.name;
    profile.numThreads = num_threads;
    profile.threads.resize(num_threads);
    // The replay below indexes the sparse columns blindly, so a
    // hand-assembled trace must be internally consistent (cheap: only
    // the 1-byte op column is scanned densely).
    trace.validateColumnConsistency();
    // Fused pre-pass: validation + barrier sizing from the sync columns.
    profile.barrierPopulation = trace.validateAndBarrierPopulations();

    // Functional synchronization replay: "time" is the global record
    // step counter, only used to order wakeups.
    SyncState sync(num_threads, profile.barrierPopulation);

    std::vector<ThreadState> state(num_threads);
    for (uint32_t t = 0; t < num_threads; ++t) {
        profile.threads[t].epochs.emplace_back();
    }

    uint64_t total_mem_ops = 0;
    for (const ThreadColumns &cols : trace.threads)
        total_mem_ops += cols.addr.size();
    LineTable lines(num_threads, total_mem_ops);
    uint64_t global_seq = 0;
    uint64_t step = 0;

    auto close_epoch = [&](uint32_t tid, SyncType type, uint32_t arg) {
        ThreadProfile &tp = profile.threads[tid];
        tp.epochs.back().endType = type;
        tp.epochs.back().endArg = arg;
        tp.epochs.emplace_back();
        SweepState &ts = state[tid].sweep;
        ts.opsInEpoch = 0;
        ts.nextMicroTraceAt = 0;
        ts.microTraceRemaining = 0;
    };

    auto process_sync = [&](uint32_t tid, SyncType type,
                            uint32_t arg) -> bool {
        // Returns true when the thread blocks. Sync counts and condvar
        // classification are order-independent aggregates over the sync
        // columns, computed once at the end (classifySyncProfile).
        if (type == SyncType::CondMarker) {
            // Source marker: does not delineate an epoch.
            return false;
        }

        TraceRecord rec;
        rec.sync = type;
        rec.syncArg = arg;
        const SyncOutcome out =
            sync.apply(tid, rec, static_cast<double>(step));
        close_epoch(tid, type, arg);
        return out.blocks;
    };

    // Round-robin functional replay. Micro-op runs between sync events
    // are processed without per-record sync checks: the sparse syncPos
    // column bounds each run up front.
    uint32_t live = num_threads;
    uint32_t cursor = 0;
    while (live > 0) {
        // Find the next runnable thread in round-robin order.
        uint32_t pick = UINT32_MAX;
        for (uint32_t i = 0; i < num_threads; ++i) {
            const uint32_t t = (cursor + i) % num_threads;
            if (!state[t].done && !sync.blocked(t)) {
                pick = t;
                break;
            }
        }
        RPPM_REQUIRE(pick != UINT32_MAX,
                     "deadlock during profiling (malformed trace)");
        cursor = (pick + 1) % num_threads;

        ThreadState &ts = state[pick];
        const ThreadColumns &cols = trace.threads[pick];
        const size_t num_records = cols.numRecords();

        // Live reuse-distance provider: resolves local and global reuse
        // against the global LineTable at the access's position in the
        // interleaved replay — the "fused" in the engine's name.
        auto live_rd = [&](size_t memIdx,
                           bool is_store) -> std::pair<uint64_t, uint64_t> {
            const uint64_t line = cols.addr[memIdx] / opts.lineBytes;
            ++global_seq;
            ++ts.localDataSeq;

            uint64_t local_rd = LogHistogram::kInfinity;
            uint64_t global_rd = LogHistogram::kInfinity;

            const size_t s = lines.slot(line);
            LineTable::Meta &meta = lines.meta(s);
            LineTable::PerThread &mine = lines.perThread(s, pick);

            // Global (interleaved) reuse distance: accesses by anyone
            // since the line was last touched by anyone.
            if (meta.lastGlobalSeq != 0)
                global_rd = global_seq - meta.lastGlobalSeq - 1;

            // Per-thread reuse distance with write-invalidation: if any
            // other thread wrote the line since our last access, the
            // reuse is broken — record an infinite distance (coherence
            // miss), as in the paper's StatStack extension.
            if (mine.count != 0) {
                const bool invalidated = opts.detectInvalidation &&
                    meta.lastWriteSeq > mine.seq &&
                    meta.lastWriter != pick;
                if (!invalidated)
                    local_rd = ts.localDataSeq - mine.count - 1;
            }

            mine.count = ts.localDataSeq;
            mine.seq = global_seq;
            meta.lastGlobalSeq = global_seq;
            if (is_store) {
                meta.lastWriteSeq = global_seq;
                meta.lastWriter = pick;
            }
            return {local_rd, global_rd};
        };

        uint32_t executed = 0;
        while (ts.next < num_records && executed < opts.quantum) {
            const size_t next_sync =
                ts.sweep.syncIdx < cols.syncPos.size() ?
                static_cast<size_t>(cols.syncPos[ts.sweep.syncIdx]) :
                num_records;
            if (ts.next == next_sync) {
                const SyncType type = cols.syncType[ts.sweep.syncIdx];
                const uint32_t arg = cols.syncArg[ts.sweep.syncIdx];
                ++ts.sweep.syncIdx;
                ++ts.next;
                ++step;
                ++executed;
                if (process_sync(pick, type, arg))
                    break;
                continue;
            }
            // Run of pure micro-ops: bounded by the quantum budget and
            // the next sync event. The epoch reference is stable across
            // the run (epochs only change at sync events), and the step
            // counter is only consumed at sync events, so it can advance
            // in bulk.
            const size_t run_end = std::min(
                next_sync,
                ts.next + (opts.quantum - executed));
            const size_t run = run_end - ts.next;
            EpochProfile &ep = profile.threads[pick].epochs.back();
            sweepRun(cols, opts, ts.sweep, ts.instrLast, live_rd,
                     coldFirstTouch, ep, ts.next, run_end);
            ts.next = run_end;
            step += run;
            executed += static_cast<uint32_t>(run);
        }
        if (ts.next >= num_records && !ts.done) {
            ts.done = true;
            --live;
            sync.finish(pick, static_cast<double>(step));
        }
    }

    std::vector<SyncView> sync_views;
    sync_views.reserve(num_threads);
    for (const ThreadColumns &cols : trace.threads)
        sync_views.push_back(syncView(cols));
    classifySyncProfile(profile, sync_views);

    return profile;
}

WorkloadProfile
profileWorkload(const ColumnarTrace &trace, const ProfilerOptions &opts)
{
    // Engine selection is pure policy — the fused and streaming engines
    // produce bit-identical profiles, so neither jobs nor streamChunkRecords
    // enters the ProfileCache key (study/profile_cache.cc). One worker
    // over a resident trace keeps the single-threaded fused sweep (no
    // replay pass, no scatter); anything else — more workers, or an
    // explicit chunk size — runs the chunked multi-worker engine.
    if (opts.jobs == 1 && opts.streamChunkRecords == 0)
        return profileWorkloadFused(trace, opts);
    return profileWorkloadStreaming(trace, opts);
}

WorkloadProfile
profileWorkload(const WorkloadTrace &trace, const ProfilerOptions &opts)
{
    return profileWorkload(ColumnarTrace::fromWorkload(trace), opts);
}

} // namespace rppm
