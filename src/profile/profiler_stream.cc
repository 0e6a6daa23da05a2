/**
 * @file
 * The multi-worker profiler: chunked, pipelined, and bit-identical to
 * the fused sweep, with peak memory bounded by the chunk size, not the
 * trace size.
 *
 * The fused sweep (profiler.cc) is inherently sequential: the
 * multi-threaded StatStack extension orders every memory access of
 * every thread on one global sequence counter, and coherence
 * invalidation compares per-line write timestamps across threads. This
 * engine reproduces exactly the same profile — the same bits, for every
 * job count and chunk size — by splitting the sweep into phases whose
 * parallel grains are independent by construction, run over chunks of
 * streamChunkRecords records per thread (at most two in flight):
 *
 *  A+B. Replay   (main thread) The pausable replay of the round-robin
 *                quantum scheduler over the sparse sync columns
 *                (profile/schedule_replay.hh), advanced until every live
 *                thread reaches the next chunk target. It pauses only
 *                between quantum slices, so chunk edges are run edges,
 *                and it yields the exact global sequence number of every
 *                run's first access. Its memory oracle is a rolling scan
 *                of the op column, which also yields the sparse
 *                addr/taken offsets of each chunk edge.
 *  C. Emit       (one task per thread) (line, gseq, ordinal) access
 *                entries, bucketed by line-hash shard.
 *  D. Resolve    (one task per shard) Merge the shard's per-thread lists
 *                by gseq — the order the fused sweep touched these lines
 *                — through a persistent shard LineTable, resolving the
 *                interleaved and per-thread reuse distances and the
 *                coherence rule ("another thread wrote the line since my
 *                last access" => infinite distance). Absolute gseqs and
 *                ordinals make the per-chunk merges a partition of the
 *                whole-trace merge; results scatter into per-thread
 *                slots indexed by ordinal, each written exactly once.
 *  E. Sweep      (one task per segment) The shared statistics sweep
 *                (profile/stat_sweep.hh) over the resolved distances.
 *                Each thread's chunk splits into up to 4 x jobs
 *                segments: a cursor dry-run from the thread's carried
 *                SweepState pins each segment's entry state, segments
 *                sweep concurrently, and each thread stitches them in
 *                record order, carrying cursor and instruction-line map
 *                into the next chunk.
 *  F. Classify   (once, at the end) Sync counts and condvar classes.
 *
 * Consecutive chunks overlap on one shared work deque
 * (common/parallel.hh): the main thread replays chunk k+1 while workers
 * bucket chunk k, and chunk k+1's emit tasks queue ahead of chunk k's
 * resolve tasks, so workers flow across the C/D boundary.
 *
 * Sources: an in-memory ColumnarTrace (windows are pointer slices into
 * its columns) or an RPPMTRC file read through the chunked reader
 * (trace/trace_stream.hh), which keeps only the sparse sync columns
 * resident and maps each chunk's column slices on demand — so traces
 * far larger than the address-space budget profile where the
 * whole-file loaders cannot even map their input (CI stream-smoke).
 * tests/test_profile_streaming asserts byte-identity with the fused
 * engine on the whole suite across chunk sizes and job counts.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hh"
#include "common/hash.hh"
#include "common/parallel.hh"
#include "profile/profiler.hh"
#include "profile/reuse_tables.hh"
#include "profile/schedule_replay.hh"
#include "profile/stat_sweep.hh"
#include "trace/columnar.hh"
#include "trace/trace_stream.hh"

namespace rppm {

namespace {

/**
 * Where chunk data comes from. The driver below only ever sees absolute
 * record/ordinal ranges and TraceChunk windows, so the pipeline is
 * identical for resident and out-of-core traces.
 */
class StreamSource
{
  public:
    virtual ~StreamSource() = default;

    virtual const std::string &name() const = 0;
    virtual uint32_t numThreads() const = 0;
    virtual uint64_t numRecords(uint32_t t) const = 0;
    /** Declared sparse column lengths (cross-checked against the scan). */
    virtual uint64_t numMems(uint32_t t) const = 0;
    virtual uint64_t numBranches(uint32_t t) const = 0;
    virtual SyncView sync(uint32_t t) const = 0;

    /** Structural validation + barrier populations (throws
     *  std::invalid_argument, same as the resident loaders). */
    virtual std::unordered_map<uint32_t, uint32_t> validateAndBarriers()
        const = 0;

    /**
     * Count memory and branch records in records [lo, hi) of thread
     * @p t, adding into @p mems / @p branches. Called with ascending,
     * non-overlapping ranges per thread (the replayer's runs), so a
     * rolling window suffices. File sources validate op classes here —
     * the one walk that sees every record.
     */
    virtual void countRange(uint32_t t, size_t lo, size_t hi,
                            uint64_t &mems, uint64_t &branches) = 0;

    /** Materialize one chunk's column windows (see TraceChunk). */
    virtual TraceChunk fetch(uint32_t t, size_t recLo, size_t recHi,
                             uint64_t memLo, uint64_t memHi, uint64_t brLo,
                             uint64_t brHi) = 0;
};

/** Resident source: chunks are pointer slices into the trace columns. */
class MemorySource final : public StreamSource
{
  public:
    explicit MemorySource(const ColumnarTrace &trace) : trace_(trace) {}

    const std::string &name() const override { return trace_.name; }

    uint32_t
    numThreads() const override
    {
        return static_cast<uint32_t>(trace_.numThreads());
    }

    uint64_t
    numRecords(uint32_t t) const override
    {
        return trace_.threads[t].numRecords();
    }

    uint64_t
    numMems(uint32_t t) const override
    {
        return trace_.threads[t].addr.size();
    }

    uint64_t
    numBranches(uint32_t t) const override
    {
        return trace_.threads[t].taken.size();
    }

    SyncView
    sync(uint32_t t) const override
    {
        return syncView(trace_.threads[t]);
    }

    std::unordered_map<uint32_t, uint32_t>
    validateAndBarriers() const override
    {
        trace_.validateColumnConsistency();
        return trace_.validateAndBarrierPopulations();
    }

    void
    countRange(uint32_t t, size_t lo, size_t hi, uint64_t &mems,
               uint64_t &branches) override
    {
        // Branch-free: the op column is mixed enough that a
        // data-dependent branch here mispredicts constantly.
        const OpClass *op = trace_.threads[t].op.data();
        uint64_t m = 0;
        uint64_t b = 0;
        for (size_t i = lo; i < hi; ++i) {
            m += isMemory(op[i]);
            b += op[i] == OpClass::Branch;
        }
        mems += m;
        branches += b;
    }

    TraceChunk
    fetch(uint32_t t, size_t recLo, size_t recHi, uint64_t memLo,
          uint64_t memHi, uint64_t brLo, uint64_t brHi) override
    {
        const ThreadColumns &cols = trace_.threads[t];
        TraceChunk chunk;
        chunk.recLo = recLo;
        chunk.recHi = recHi;
        chunk.memLo = memLo;
        chunk.memHi = memHi;
        chunk.brLo = brLo;
        chunk.brHi = brHi;
        if (recLo < recHi) {
            chunk.op = cols.op.data() + recLo;
            chunk.pc = cols.pc.data() + recLo;
            chunk.dep1 = cols.dep1.data() + recLo;
            chunk.dep2 = cols.dep2.data() + recLo;
        }
        if (memLo < memHi)
            chunk.addr = cols.addr.data() + memLo;
        if (brLo < brHi)
            chunk.taken = cols.taken.data() + brLo;
        return chunk;
    }

  private:
    const ColumnarTrace &trace_;
};

/** Out-of-core source over an indexed RPPMTRC file. Resident state is
 *  the layout and the sparse sync columns; everything else arrives in
 *  mapped windows and leaves with them. */
class FileSource final : public StreamSource
{
  public:
    explicit FileSource(const std::string &path)
        : file_(path), layout_(indexTraceFile(file_)),
          sync_(loadSyncColumns(file_, layout_)), reader_(file_, layout_)
    {
        scanners_.reserve(layout_.threads.size());
        for (const ThreadLayout &th : layout_.threads)
            scanners_.emplace_back(file_, th);
    }

    const std::string &name() const override { return layout_.name; }

    uint32_t
    numThreads() const override
    {
        return static_cast<uint32_t>(layout_.threads.size());
    }

    uint64_t
    numRecords(uint32_t t) const override
    {
        return layout_.threads[t].records;
    }

    uint64_t
    numMems(uint32_t t) const override
    {
        return layout_.threads[t].addr.count;
    }

    uint64_t
    numBranches(uint32_t t) const override
    {
        return layout_.threads[t].taken.count;
    }

    SyncView
    sync(uint32_t t) const override
    {
        const ResidentSync &s = sync_[t];
        return SyncView{s.pos.data(), s.type.data(), s.arg.data(),
                        s.pos.size(),
                        static_cast<size_t>(layout_.threads[t].records)};
    }

    std::unordered_map<uint32_t, uint32_t>
    validateAndBarriers() const override
    {
        std::vector<SyncSpan> spans;
        spans.reserve(sync_.size());
        for (size_t t = 0; t < sync_.size(); ++t) {
            spans.push_back(SyncSpan{sync_[t].type.data(),
                                     sync_[t].arg.data(),
                                     sync_[t].pos.size(),
                                     layout_.threads[t].records});
        }
        return validateSyncAndBarrierPopulations(spans);
    }

    void
    countRange(uint32_t t, size_t lo, size_t hi, uint64_t &mems,
               uint64_t &branches) override
    {
        OpColumnScanner &scan = scanners_[t];
        for (size_t i = lo; i < hi; ++i) {
            const OpClass op = scan.at(i);
            RPPM_REQUIRE(static_cast<uint8_t>(op) <
                             static_cast<uint8_t>(OpClass::NumClasses),
                         "op class out of range");
            if (isMemory(op))
                ++mems;
            else if (op == OpClass::Branch)
                ++branches;
        }
    }

    TraceChunk
    fetch(uint32_t t, size_t recLo, size_t recHi, uint64_t memLo,
          uint64_t memHi, uint64_t brLo, uint64_t brHi) override
    {
        TraceChunk chunk =
            reader_.read(t, recLo, recHi, memLo, memHi, brLo, brHi);
        // The resident loaders validate branch outcomes trace-wide; do
        // the same incrementally, on the slice just mapped.
        for (uint64_t b = brLo; b < brHi; ++b) {
            RPPM_REQUIRE(chunk.taken[b - brLo] <= 1,
                         "branch outcome out of range");
        }
        return chunk;
    }

  private:
    FdFile file_;
    TraceFileLayout layout_;
    std::vector<ResidentSync> sync_;
    TraceChunkReader reader_;
    std::vector<OpColumnScanner> scanners_;
};

/** One scheduled run inside a chunk (records [start, end) of one
 *  thread); its mems get gseqBase+1.. and sparse ordinals memBase.. */
struct Run
{
    uint64_t start;
    uint64_t end;
    uint64_t gseqBase;
    uint64_t memBase;
};

/** One memory access routed to a line-hash shard. The ordinal is
 *  absolute, so shard state carries across chunks verbatim. */
struct AccessEntry
{
    uint64_t line;
    uint64_t gseq;    ///< global sequence number (from the schedule)
    uint32_t ordinal; ///< index into the thread's sparse addr column
    uint32_t isStore;
};

/** The two reuse distances phase D resolves for one access. */
struct AccessRd
{
    uint64_t local;
    uint64_t global;
};

/** Records below which a thread's chunk is not worth splitting: the
 *  boundary dry-run and stitch are O(range) and O(touched lines), so
 *  tiny segments would be all overhead. */
constexpr size_t kMinSegmentRecords = 4096;

/** One thread's slice of one in-flight chunk. */
struct ThreadChunk
{
    size_t recLo = 0, recHi = 0;
    uint64_t memLo = 0, memHi = 0;
    uint64_t brLo = 0, brHi = 0;
    std::vector<Run> runs;
    TraceChunk data;
    /** Phase-C output: per-shard access entries. */
    std::vector<std::vector<AccessEntry>> buckets;
    /** Phase-D output, indexed ordinal - memLo. Left uninitialized:
     *  phase D writes every slot exactly once. */
    std::unique_ptr<AccessRd[]> rd;
    /** Phase-E output, one per segment in record order. */
    std::vector<SegmentSweep> sweeps;
};

/** Absolute-index view of a thread chunk's column windows. */
WindowCols
windowCols(const ThreadChunk &tc)
{
    return WindowCols{{tc.data.op, tc.recLo},
                      {tc.data.pc, tc.recLo},
                      {tc.data.dep1, tc.recLo},
                      {tc.data.dep2, tc.recLo},
                      {tc.data.taken, static_cast<size_t>(tc.brLo)}};
}

WorkloadProfile
streamProfile(StreamSource &src, const ProfilerOptions &opts)
{
    const uint32_t num_threads = src.numThreads();
    const uint64_t chunk_records = opts.streamChunkRecords > 0 ?
        opts.streamChunkRecords :
        kDefaultStreamChunkRecords;

    WorkloadProfile profile;
    profile.name = src.name();
    profile.numThreads = num_threads;
    profile.threads.resize(num_threads);
    profile.barrierPopulation = src.validateAndBarriers();

    std::vector<SyncView> sync_views;
    sync_views.reserve(num_threads);
    uint64_t total_mems = 0;
    for (uint32_t t = 0; t < num_threads; ++t) {
        sync_views.push_back(src.sync(t));
        RPPM_REQUIRE(src.numMems(t) < UINT32_MAX,
                     "trace thread exceeds 2^32 memory accesses");
        total_mems += src.numMems(t);
    }

    WorkDeque deque(opts.jobs);

    // Shards partition the line space by the *high* bits of the same
    // mix64 hash the LineTable probes with its low bits, so shard
    // assignment and in-shard probing stay uncorrelated. The shard count
    // is pure execution policy — every count yields the same profile.
    // The per-shard LineTables are *persistent*, carrying line state
    // across chunks so the per-chunk resolves compose to the whole-trace
    // merge.
    unsigned shardBits = 3;
    while ((1u << shardBits) < std::min(64u, deque.jobs() * 4))
        ++shardBits;
    const size_t numShards = size_t{1} << shardBits;
    // Presize from the *chunk* size, not total_mems: the whole point of
    // streaming is peak memory independent of trace length, and the
    // tables grow on demand if the workload really touches more
    // distinct lines than a couple of chunks' worth of accesses.
    const uint64_t line_hint =
        std::min(total_mems, 2 * chunk_records * num_threads) / numShards;
    std::vector<std::optional<LineTable>> shardLines(numShards);

    // The replayer's memory oracle: a rolling forward scan of the op
    // column tracking the absolute sparse offsets reached so far. At
    // every pause the un-scanned tail of a thread consists solely of
    // sync slots (neutral: no mems, no branches), so the rolling totals
    // are exact at every chunk edge.
    ScheduleReplayer replayer(opts, sync_views, profile.barrierPopulation);
    std::vector<size_t> scanPos(num_threads, 0);
    std::vector<uint64_t> memSoFar(num_threads, 0);
    std::vector<uint64_t> brSoFar(num_threads, 0);
    std::vector<size_t> prevCursor(num_threads, 0);
    std::vector<uint64_t> prevMemHi(num_threads, 0);
    std::vector<uint64_t> prevBrHi(num_threads, 0);

    auto memCount = [&](uint32_t t, size_t, size_t hi) -> uint64_t {
        const uint64_t before = memSoFar[t];
        src.countRange(t, scanPos[t], hi, memSoFar[t], brSoFar[t]);
        scanPos[t] = hi;
        return memSoFar[t] - before;
    };

    // Carried phase-E state, one per thread: the sweep cursor, and the
    // instruction-line map the segment stitches resolve against.
    std::vector<SweepState> eCursor(num_threads);
    std::vector<InstrLineMap> carried(num_threads);

    std::vector<ThreadChunk> chunks[2]; // the two in-flight chunks
    WorkDeque::Group cGroup[2];
    WorkDeque::Group stage; // phases D, E and the stitch of one chunk

    // Advance the replayer one chunk and materialize its windows into
    // @p st. Returns false once the schedule is spent.
    auto advanceChunk = [&](std::vector<ThreadChunk> &st) -> bool {
        if (replayer.done())
            return false;
        st.clear();
        st.resize(num_threads);

        std::vector<size_t> target(num_threads);
        for (uint32_t t = 0; t < num_threads; ++t) {
            target[t] = static_cast<size_t>(
                std::min<uint64_t>(prevCursor[t] + chunk_records,
                                   src.numRecords(t)));
        }
        // Never pause before the first slice: when every target is
        // already met (e.g. all remaining threads are recordless), the
        // replayer still has thread-finish bookkeeping to run, and one
        // slice guarantees forward progress.
        size_t checks = 0;
        auto pause = [&] {
            if (checks++ == 0)
                return false;
            for (uint32_t t = 0; t < num_threads; ++t) {
                if (replayer.recordCursor(t) < target[t])
                    return false;
            }
            return true;
        };
        replayer.advance(
            memCount,
            [&](uint32_t t, size_t lo, size_t hi, uint64_t gseqBase,
                uint64_t mem) {
                st[t].runs.push_back(
                    Run{lo, hi, gseqBase, memSoFar[t] - mem});
            },
            pause);

        bool any = false;
        for (uint32_t t = 0; t < num_threads; ++t) {
            ThreadChunk &tc = st[t];
            tc.recLo = prevCursor[t];
            tc.recHi = replayer.recordCursor(t);
            prevCursor[t] = tc.recHi;
            tc.memLo = prevMemHi[t];
            tc.brLo = prevBrHi[t];
            tc.memHi = memSoFar[t];
            tc.brHi = brSoFar[t];
            prevMemHi[t] = tc.memHi;
            prevBrHi[t] = tc.brHi;
            if (tc.recLo == tc.recHi)
                continue;
            any = true;
            tc.data = src.fetch(t, tc.recLo, tc.recHi, tc.memLo, tc.memHi,
                                tc.brLo, tc.brHi);
            // Phase D scatters into this from multiple shard tasks;
            // allocate it here, before any task can run.
            tc.rd = std::make_unique_for_overwrite<AccessRd[]>(
                static_cast<size_t>(tc.memHi - tc.memLo));
        }
        return any;
    };

    // --- Phase C of one chunk: shard-bucketed access emit, one task
    //     per thread (run memBase stands in for a memory prefix array).
    auto postEmit = [&](std::vector<ThreadChunk> &st,
                        WorkDeque::Group &group) {
        for (uint32_t t = 0; t < num_threads; ++t) {
            ThreadChunk &tc = st[t];
            if (tc.runs.empty())
                continue;
            deque.post(group, [&opts, &tc, numShards, shardBits] {
                tc.buckets.resize(numShards);
                const size_t expect =
                    static_cast<size_t>(tc.memHi - tc.memLo) / numShards +
                    16;
                for (auto &bucket : tc.buckets)
                    bucket.reserve(expect);
                // Locals, not tc's fields: the pushes below could alias
                // those, forcing a reload per access.
                const OpClass *op = tc.data.op;
                const uint64_t *addr = tc.data.addr;
                std::vector<AccessEntry> *buckets = tc.buckets.data();
                const size_t recLo = tc.recLo;
                const uint64_t memLo = tc.memLo;
                for (const Run &run : tc.runs) {
                    uint64_t j = run.memBase;
                    uint64_t gseq = run.gseqBase;
                    for (size_t i = run.start; i < run.end; ++i) {
                        const OpClass cls = op[i - recLo];
                        if (!isMemory(cls))
                            continue;
                        const uint64_t line = addr[j - memLo] / opts.lineBytes;
                        const size_t shard = static_cast<size_t>(
                            mix64(line + 1) >> (64 - shardBits));
                        buckets[shard].push_back(AccessEntry{
                            line, ++gseq, static_cast<uint32_t>(j),
                            cls == OpClass::Store});
                        ++j;
                    }
                }
            });
        }
    };

    // --- Phase D of one chunk: per-shard reuse resolution against the
    //     persistent shard tables. Absolute gseqs make per-chunk
    //     in-order globally in-order; absolute ordinals make the counts
    //     carry verbatim.
    auto postResolve = [&](std::vector<ThreadChunk> &st,
                           WorkDeque::Group &group) {
        for (size_t s = 0; s < numShards; ++s) {
            deque.post(group, [&st, &shardLines, &opts, num_threads,
                               line_hint, s] {
                // This shard's non-empty per-thread entry lists, each
                // already ascending in gseq (gseqs are globally unique).
                struct Cursor
                {
                    const AccessEntry *at;
                    const AccessEntry *end;
                    uint32_t tid;
                };
                std::vector<Cursor> lists;
                for (uint32_t t = 0; t < num_threads; ++t) {
                    const std::vector<std::vector<AccessEntry>> &b =
                        st[t].buckets;
                    if (!b.empty() && !b[s].empty()) {
                        lists.push_back(Cursor{
                            b[s].data(), b[s].data() + b[s].size(), t});
                    }
                }
                // The shard's first resolve task creates its table, so
                // tables allocate in parallel on the workers. Resolve into
                // a local: adjacent tables' occupancy counters share cache
                // lines, which concurrent shards would otherwise ping-pong
                // on every insert.
                LineTable lines = shardLines[s] ?
                    std::move(*shardLines[s]) :
                    LineTable(num_threads, line_hint);

                // Deterministic merge by global sequence number: exactly
                // the order in which the fused sweep touched these lines.
                while (!lists.empty()) {
                    size_t pick = 0;
                    for (size_t l = 1; l < lists.size(); ++l) {
                        if (lists[l].at->gseq < lists[pick].at->gseq)
                            pick = l;
                    }
                    const AccessEntry &e = *lists[pick].at++;
                    const uint32_t tid = lists[pick].tid;
                    if (lists[pick].at == lists[pick].end) {
                        lists[pick] = lists.back();
                        lists.pop_back();
                    }

                    const size_t slot = lines.slot(e.line);
                    LineTable::Meta &meta = lines.meta(slot);
                    LineTable::PerThread &mine =
                        lines.perThread(slot, tid);

                    uint64_t local = LogHistogram::kInfinity;
                    uint64_t global = LogHistogram::kInfinity;
                    if (meta.lastGlobalSeq != 0)
                        global = e.gseq - meta.lastGlobalSeq - 1;
                    if (mine.count != 0) {
                        const bool invalidated =
                            opts.detectInvalidation &&
                            meta.lastWriteSeq > mine.seq &&
                            meta.lastWriter != tid;
                        // The thread's data-access counter at any access
                        // is ordinal+1, so the fused sweep's
                        // localDataSeq - count - 1 is this difference.
                        if (!invalidated)
                            local = e.ordinal - (mine.count - 1) - 1;
                    }
                    ThreadChunk &tc = st[tid];
                    tc.rd[e.ordinal - tc.memLo] = AccessRd{local, global};

                    mine.count = static_cast<uint64_t>(e.ordinal) + 1;
                    mine.seq = e.gseq;
                    meta.lastGlobalSeq = e.gseq;
                    if (e.isStore) {
                        meta.lastWriteSeq = e.gseq;
                        meta.lastWriter = tid;
                    }
                }
                shardLines[s] = std::move(lines);
            });
        }
    };

    // --- Phase E of one chunk: the shared statistics sweep, segmented.
    //     One planning task per thread dry-runs the sweep cursor from the
    //     thread's carried state (1-byte op column reads, no statistics)
    //     and posts each segment the moment its exact entry cursor is
    //     known, so segments sweep while later boundaries are found.
    auto postSweep = [&](std::vector<ThreadChunk> &st,
                         WorkDeque::Group &group) {
        for (uint32_t t = 0; t < num_threads; ++t) {
            ThreadChunk &tc = st[t];
            const size_t n = tc.recHi - tc.recLo;
            if (n == 0)
                continue;
            size_t numSegs = 1;
            if (deque.jobs() > 1 && n >= 2 * kMinSegmentRecords) {
                numSegs = std::min<size_t>(size_t{4} * deque.jobs(),
                                           n / kMinSegmentRecords);
            }
            tc.sweeps.resize(numSegs);
            deque.post(group, [&deque, &group, &sync_views, &opts,
                               &eCursor, &tc, t, n, numSegs] {
                const WindowCols wc = windowCols(tc);
                SweepState entry = eCursor[t];
                for (size_t s = 0; s < numSegs; ++s) {
                    const size_t lo = tc.recLo + n * s / numSegs;
                    const size_t hi = tc.recLo + n * (s + 1) / numSegs;
                    deque.post(group, [&sync_views, &opts, &tc, t, s, lo,
                                       hi, entry] {
                        auto rd = [&tc](size_t memIdx, bool)
                            -> std::pair<uint64_t, uint64_t> {
                            const AccessRd &r = tc.rd[memIdx - tc.memLo];
                            return {r.local, r.global};
                        };
                        tc.sweeps[s] =
                            runSweepSegment(windowCols(tc), sync_views[t],
                                            opts, entry, rd, lo, hi);
                    });
                    if (s + 1 < numSegs)
                        advanceSweepCursor(wc, sync_views[t], opts, entry,
                                           lo, hi);
                }
            });
        }
    };

    // Stitch each thread's segments in record order (threads stitch
    // concurrently): resolves cross-segment instruction reuse against
    // the carried line map, splices partial epochs, and carries the
    // last segment's exit cursor into the next chunk.
    auto postStitch = [&](std::vector<ThreadChunk> &st,
                          WorkDeque::Group &group) {
        for (uint32_t t = 0; t < num_threads; ++t) {
            ThreadChunk &tc = st[t];
            if (tc.sweeps.empty())
                continue;
            deque.post(group, [&profile, &eCursor, &carried, &tc, t] {
                eCursor[t] = tc.sweeps.back().exit;
                for (SegmentSweep &seg : tc.sweeps) {
                    stitchSweepSegment(profile.threads[t], carried[t],
                                       std::move(seg));
                }
            });
        }
    };

    // --- The pipeline. Queue order per iteration: C(k+1) before D(k)
    //     before E(k); the FIFO deque plus helping waits let workers
    //     cross the stage boundaries, while the dependences (D(k) after
    //     C(k); E(k) after D(k); D(k+1) after D(k), for the shared
    //     shard tables) are enforced by the group waits.
    try {
        size_t k = 0;
        bool have = advanceChunk(chunks[0]);
        if (have)
            postEmit(chunks[0], cGroup[0]);
        while (have) {
            std::vector<ThreadChunk> &cur = chunks[k & 1];
            std::vector<ThreadChunk> &nxt = chunks[(k + 1) & 1];
            // The replay/scan of chunk k+1 touches only main-thread
            // state, so it runs under C(k)'s bucketing on the workers.
            const bool more = advanceChunk(nxt);
            deque.wait(cGroup[k & 1]);
            if (more)
                postEmit(nxt, cGroup[(k + 1) & 1]);
            postResolve(cur, stage);
            deque.wait(stage);
            // Free what phase D consumed before phase E allocates: the
            // buckets, and after the last chunk the shard tables.
            for (ThreadChunk &tc : cur)
                tc.buckets = {};
            if (!more)
                shardLines.clear();
            postSweep(cur, stage);
            deque.wait(stage);
            postStitch(cur, stage);
            deque.wait(stage);
            cur.clear(); // release windows, rd arrays
            have = more;
            ++k;
        }
    } catch (...) {
        // Outstanding tasks capture this frame; drain every group
        // before unwinding it.
        for (WorkDeque::Group *g : {&cGroup[0], &cGroup[1], &stage}) {
            try {
                deque.wait(*g);
            } catch (...) {
            }
        }
        throw;
    }

    // The scan is the only pass that sees every record of a file-backed
    // trace; cross-check it against the declared sparse column lengths
    // (the resident loaders validate the same properties up front).
    for (uint32_t t = 0; t < num_threads; ++t) {
        RPPM_REQUIRE(memSoFar[t] == src.numMems(t),
                     "addr column length does not match memory op count");
        RPPM_REQUIRE(brSoFar[t] == src.numBranches(t),
                     "taken column length does not match branch count");
        // A thread with no records still owns one (empty) epoch.
        if (profile.threads[t].epochs.empty())
            profile.threads[t].epochs.emplace_back();
    }

    classifySyncProfile(profile, sync_views);
    return profile;
}

} // namespace

WorkloadProfile
profileWorkloadStreaming(const ColumnarTrace &trace,
                         const ProfilerOptions &opts)
{
    MemorySource src(trace);
    return streamProfile(src, opts);
}

WorkloadProfile
profileWorkloadParallel(const ColumnarTrace &trace,
                        const ProfilerOptions &opts)
{
    return profileWorkloadStreaming(trace, opts);
}

WorkloadProfile
profileWorkloadStreamingFile(const std::string &path,
                             const ProfilerOptions &opts)
{
    FileSource src(path);
    return streamProfile(src, opts);
}

} // namespace rppm
