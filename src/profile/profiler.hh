/**
 * @file
 * The RPPM profiler (Pin-tool substitute).
 *
 * Performs a functional concurrent replay of a workload trace: threads
 * advance in round-robin quanta (an arbitrary but fixed interleaving, just
 * like profiling on a real host machine), synchronization is honored
 * functionally, and every access updates per-thread and global reuse-
 * distance state (the multi-threaded StatStack extension, paper Sec.
 * III-A and Fig. 2). Write invalidation is detected by checking whether
 * another thread wrote a line between two accesses by the same thread;
 * if so, an infinite per-thread reuse distance is recorded.
 *
 * The primary implementation is a *single-pass fused sweep* over the
 * columnar trace (trace/columnar.hh): one walk feeds the ILP statistics
 * (dependence distances, micro-traces), the MLP statistics (load gaps,
 * load-on-load chains), the branch entropy accumulators, the
 * memory/StatStack reuse-distance distributions and the synchronization
 * profile simultaneously — structural validation and barrier sizing read
 * only the sparse sync columns instead of re-walking the trace. The hot
 * per-line and per-PC state lives in open-addressing tables instead of
 * std::unordered_map. The original multi-pass AoS implementation is kept
 * as profileWorkloadLegacy() (profiler_legacy.cc) and the two are
 * bit-identical by test.

 *
 * The output is a WorkloadProfile: only microarchitecture-independent
 * statistics, collected once, usable to predict any MulticoreConfig.
 */

#ifndef RPPM_PROFILE_PROFILER_HH
#define RPPM_PROFILE_PROFILER_HH

#include <cstdint>
#include <string>

#include "profile/epoch_profile.hh"
#include "trace/columnar.hh"
#include "trace/trace.hh"

namespace rppm {

/** Profiler tunables (sampling policy, not workload characteristics). */
struct ProfilerOptions
{
    /** Micro-trace length in micro-ops (paper: one thousand). */
    uint32_t microTraceLength = 1000;

    /** Micro-ops between micro-trace samples within an epoch. The paper
     *  samples once per million; we default to a denser 1-in-10 so the
     *  epoch-start sample (which over-represents cold misses) carries
     *  less weight on the short epochs of the synthetic suite. */
    uint64_t microTraceInterval = 10000;

    /** Round-robin scheduling quantum in trace records. */
    uint32_t quantum = 64;

    /** Cache line size assumed when mapping addresses to lines (bytes).
     *  Reuse distances are measured in line-granular accesses; all
     *  configurations in this repository share 64-byte lines. */
    uint32_t lineBytes = 64;

    /** Record write invalidations as infinite per-thread reuse distances
     *  (the paper's coherence modeling). Disable only for ablation
     *  studies. */
    bool detectInvalidation = true;

    /**
     * Worker threads for the profile itself (0 = all hardware threads).
     * 1 with streamChunkRecords == 0 runs the single-threaded fused
     * sweep; any other combination runs the chunked multi-worker engine
     * on this many workers. Pure execution policy: the profile is
     * bit-identical for every value, so this knob is deliberately
     * excluded from profilerOptionsKey() and thus from ProfileCache
     * keys — a cached profile serves every job count.
     */
    unsigned jobs = 1;

    /**
     * Records per thread per chunk of the multi-worker engine (0 = its
     * default, kDefaultStreamChunkRecords; with jobs == 1, 0 also keeps
     * the fused sweep). Smaller chunks bound peak memory tighter; larger
     * ones amortize the per-chunk barriers. Like jobs, pure execution
     * policy — the engine is bit-identical to the fused sweep at every
     * chunk size, so this knob too stays out of profilerOptionsKey() and
     * ProfileCache keys.
     */
    uint64_t streamChunkRecords = 0;
};

/** Chunk size of the multi-worker engine when streamChunkRecords is 0
 *  (~4M records ≈ 32 MiB of dense columns per in-flight chunk per
 *  thread). */
constexpr uint64_t kDefaultStreamChunkRecords = uint64_t{1} << 22;

/** Profile @p trace once; the result predicts any architecture. This is
 *  the hot path of every Study grid: opts.jobs == 1 with
 *  opts.streamChunkRecords == 0 runs the fused single-pass sweep, any
 *  other combination the chunked multi-worker engine
 *  (profileWorkloadStreaming) — the output is bit-identical either way. */
WorkloadProfile profileWorkload(const ColumnarTrace &trace,
                                const ProfilerOptions &opts = {});

/** The fused single-threaded sweep, callable directly (differential
 *  tests, and the speedup baseline of the multi-worker engine). */
WorkloadProfile profileWorkloadFused(const ColumnarTrace &trace,
                                     const ProfilerOptions &opts = {});

/**
 * The chunked multi-worker profiler over an in-memory columnar trace,
 * callable directly regardless of opts (opts.jobs workers, even 1;
 * opts.streamChunkRecords == 0 falls back to kDefaultStreamChunkRecords).
 * An exact schedule replay, line-hash-sharded reuse resolution and a
 * segmented statistics sweep, pipelined over fixed-size record chunks
 * (profiler_stream.cc), so scratch memory is bounded by the chunk size
 * instead of the trace size. Bit-identical to profileWorkloadFused() by
 * construction and by test.
 */
WorkloadProfile profileWorkloadStreaming(const ColumnarTrace &trace,
                                         const ProfilerOptions &opts = {});

/** Forwards to profileWorkloadStreaming(). Kept only because the
 *  repository benchmark (benchmark/rppm_benchmark.cc) calls it by this
 *  name; new code calls profileWorkload() or profileWorkloadStreaming(). */
WorkloadProfile profileWorkloadParallel(const ColumnarTrace &trace,
                                        const ProfilerOptions &opts = {});

/**
 * The out-of-core entry point: streams an RPPMTRC container straight
 * from disk without ever materializing whole columns. Only the sparse
 * sync columns are resident; dense column data is read through small
 * per-chunk mapped windows, so peak RSS is O(chunk × threads), not
 * O(file). Profiles traces larger than physical memory.
 */
WorkloadProfile profileWorkloadStreamingFile(const std::string &path,
                                             const ProfilerOptions &opts = {});

/** AoS convenience overload: converts to columnar form, then profiles. */
WorkloadProfile profileWorkload(const WorkloadTrace &trace,
                                const ProfilerOptions &opts = {});

/**
 * Reference implementation: the original multi-pass AoS profiler, kept
 * for equivalence testing and as the bench/perf speedup baseline.
 * Produces a profile bit-identical to profileWorkload().
 */
WorkloadProfile profileWorkloadLegacy(const WorkloadTrace &trace,
                                      const ProfilerOptions &opts = {});

} // namespace rppm

#endif // RPPM_PROFILE_PROFILER_HH
