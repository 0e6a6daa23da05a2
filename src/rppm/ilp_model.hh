/**
 * @file
 * ILP / base-component model (Eq. 1, term N/Deff).
 *
 * Following Van den Steen et al. [37], the effective dispatch rate Deff
 * is a function of the front-end width, the application's inherent ILP
 * and functional-unit contention. The profiler captures ILP at fine grain
 * in sampled 1000-uop micro-traces (op classes + dependence distances +
 * per-access reuse distances). The model replays each micro-trace through
 * an idealized window model — no branch mispredictions, no I-cache
 * misses, loads at their *expected* hit latency from the statistical
 * cache model — and reports the achieved IPC, which becomes Deff for the
 * surrounding epoch.
 */

#ifndef RPPM_RPPM_ILP_MODEL_HH
#define RPPM_RPPM_ILP_MODEL_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "profile/epoch_profile.hh"

namespace rppm {

/** Result of replaying one micro-trace. */
struct IlpResult
{
    double ipc = 1.0;              ///< effective dispatch rate Deff
    double branchResolution = 0.0; ///< mean dispatch->execute of branches
    /**
     * Mean front-end redirect cost of a misprediction: resolution plus
     * refill, minus the back-end slack already stalling dispatch (a
     * flush hiding behind a DRAM miss at the ROB head costs nothing
     * extra). This is what one misprediction adds to execution time.
     */
    double branchPenalty = 0.0;
};

/**
 * Window state of one replay. Each thread keeps one instance and
 * resizes it per replay, so steady-state replays allocate nothing.
 */
struct ReplayScratch
{
    std::vector<double> completion, issue, retire, mshrFree;
    std::array<std::vector<double>, kNumOpClasses> fuFree;
};

/** The calling thread's replay scratch. Not reentrant: a latency
 *  functor must not start a replay of its own. */
ReplayScratch &replayScratch();

/**
 * Replay @p mt through the idealized window model of @p core.
 *
 * @param trace the micro-trace's index within its epoch, forwarded to
 *        @p mem_latency
 * @param mem_latency callable as mem_latency(op, trace, op_index)
 *        returning the expected latency (cycles) of each memory op (L1
 *        hit latency at minimum; DRAM misses are modeled separately via
 *        the MLP term, so implementations typically cap at the LLC hit
 *        latency). The indices let it serve precomputed per-op
 *        quantities (see EpochStacks::microSd). A template parameter,
 *        so the per-op call is inlined rather than dispatched.
 * @param fetch_stall_per_op expected front-end stall per fetched op from
 *        the I-cache model; the in-order front end makes the smeared
 *        expectation throughput-exact, and the replay naturally overlaps
 *        it with back-end stalls
 * @param branch_miss_rate predicted misprediction probability from the
 *        entropy model; the replay emulates a front-end flush on every
 *        (1/rate)-th branch, capturing both the redirect latency and the
 *        window ramp-up that follows it
 */
template <typename LatencyFn>
IlpResult
replayMicroTrace(const MicroTrace &mt, uint32_t trace, const CoreConfig &core,
                 const LatencyFn &mem_latency,
                 double fetch_stall_per_op = 0.0,
                 double branch_miss_rate = 0.0)
{
    IlpResult result;
    const size_t n = mt.ops.size();
    if (n == 0)
        return result;

    // Idealized instruction-window replay: same structural constraints as
    // the simulator core (width, ROB, IQ, dependences, FU contention) but
    // with perfect branch prediction and I-cache, and statistical memory
    // latencies. The achieved IPC is the epoch's effective dispatch rate.
    ReplayScratch &scratch = replayScratch();
    std::vector<double> &completion = scratch.completion;
    std::vector<double> &issue = scratch.issue;
    std::vector<double> &retire = scratch.retire;
    std::vector<double> &mshr_free = scratch.mshrFree;
    completion.assign(n, 0.0);
    issue.assign(n, 0.0);
    retire.assign(n, 0.0);
    mshr_free.assign(std::max<uint32_t>(core.mshrs, 1), 0.0);
    for (size_t c = 0; c < kNumOpClasses; ++c) {
        scratch.fuFree[c].assign(std::max<uint32_t>(core.fus[c].count, 1),
                                 0.0);
    }

    double dispatch_cycle = 0.0;
    uint32_t dispatched = 0;
    double last_retire = 0.0;
    double branch_res_sum = 0.0;
    double branch_pen_sum = 0.0;
    double flush_accum = 0.0;
    uint64_t branch_count = 0;
    uint64_t load_count = 0;

    for (size_t i = 0; i < n; ++i) {
        const MicroTraceOp &op = mt.ops[i];

        // Expected I-cache stall delays the in-order front end.
        dispatch_cycle += fetch_stall_per_op;

        double earliest = 0.0;
        if (i >= core.robSize)
            earliest = std::max(earliest, retire[i - core.robSize]);
        if (i >= core.issueQueueSize)
            earliest = std::max(earliest, issue[i - core.issueQueueSize]);

        earliest = std::ceil(earliest);
        if (earliest > dispatch_cycle) {
            dispatch_cycle = earliest;
            dispatched = 0;
        }
        if (dispatched >= core.dispatchWidth) {
            dispatch_cycle += 1.0;
            dispatched = 0;
        }
        ++dispatched;
        const double dispatch = dispatch_cycle;

        double ready = dispatch + 1.0;
        if (op.dep1 > 0 && op.dep1 <= i)
            ready = std::max(ready, completion[i - op.dep1]);
        if (op.dep2 > 0 && op.dep2 <= i)
            ready = std::max(ready, completion[i - op.dep2]);

        const size_t cls = static_cast<size_t>(op.op);
        std::vector<double> &fus = scratch.fuFree[cls];
        const auto unit = std::min_element(fus.begin(), fus.end());
        double at = std::max(ready, *unit);

        double latency = static_cast<double>(core.fus[cls].latency);
        if (isMemory(op.op))
            latency = mem_latency(op, trace, static_cast<uint32_t>(i));

        // MSHR constraint: a load cannot issue before the MSHR ring has
        // a free slot, bounding memory-level parallelism the same way
        // the simulator core does.
        if (op.op == OpClass::Load) {
            const size_t slot = load_count % mshr_free.size();
            at = std::max(at, mshr_free[slot]);
            mshr_free[slot] = at + latency;
            ++load_count;
        }
        *unit = at + static_cast<double>(core.fus[cls].interval);

        completion[i] = at + latency;
        issue[i] = at;
        if (op.op == OpClass::Branch) {
            branch_res_sum += completion[i] - dispatch;
            // If this branch were mispredicted, the front end would
            // restart at completion + refill; only the part beyond the
            // back-end frontier (what has retired so far) is lost time.
            branch_pen_sum += std::max(
                0.0, completion[i] +
                    static_cast<double>(core.frontendDepth) - last_retire);
            ++branch_count;
            // Flush emulation: mispredict every (1/rate)-th branch. The
            // redirect stalls dispatch until the branch resolves plus
            // the refill, and the window naturally pays the ramp-up.
            flush_accum += branch_miss_rate;
            if (flush_accum >= 1.0) {
                flush_accum -= 1.0;
                const double redirect = completion[i] +
                    static_cast<double>(core.frontendDepth);
                if (redirect > dispatch_cycle) {
                    dispatch_cycle = redirect;
                    dispatched = 0;
                }
            }
        }
        last_retire = std::max(last_retire, completion[i]);
        retire[i] = last_retire;
    }

    result.ipc = last_retire > 0.0 ?
        static_cast<double>(n) / last_retire :
        static_cast<double>(core.dispatchWidth);
    result.ipc = std::min(result.ipc,
                          static_cast<double>(core.dispatchWidth));
    if (branch_count > 0) {
        result.branchResolution =
            branch_res_sum / static_cast<double>(branch_count);
        result.branchPenalty =
            branch_pen_sum / static_cast<double>(branch_count);
    }
    return result;
}

/**
 * Effective dispatch rate of an epoch: micro-op-weighted average over the
 * epoch's micro-traces, each replayed with replayMicroTrace (same
 * parameters). Falls back to a mix/width heuristic when the epoch
 * carries no samples (only possible for empty epochs).
 */
template <typename LatencyFn>
IlpResult
epochIlp(const EpochProfile &epoch, const CoreConfig &core,
         const LatencyFn &mem_latency, double fetch_stall_per_op = 0.0,
         double branch_miss_rate = 0.0)
{
    double weighted_cycles = 0.0;
    double branch_res_sum = 0.0;
    double branch_pen_sum = 0.0;
    uint64_t ops = 0;
    uint64_t traces_with_branches = 0;
    for (size_t t = 0; t < epoch.microTraces.size(); ++t) {
        const MicroTrace &mt = epoch.microTraces[t];
        if (mt.ops.empty())
            continue;
        const IlpResult r = replayMicroTrace(
            mt, static_cast<uint32_t>(t), core, mem_latency,
            fetch_stall_per_op, branch_miss_rate);
        weighted_cycles += static_cast<double>(mt.ops.size()) / r.ipc;
        ops += mt.ops.size();
        if (r.branchResolution > 0.0) {
            branch_res_sum += r.branchResolution;
            branch_pen_sum += r.branchPenalty;
            ++traces_with_branches;
        }
    }

    IlpResult result;
    if (ops > 0) {
        result.ipc = static_cast<double>(ops) / weighted_cycles;
        if (traces_with_branches > 0) {
            result.branchResolution =
                branch_res_sum / static_cast<double>(traces_with_branches);
            result.branchPenalty =
                branch_pen_sum / static_cast<double>(traces_with_branches);
        }
        return result;
    }

    // No samples (empty epoch): fall back to the front-end width — the
    // epoch contributes ~zero cycles anyway.
    result.ipc = static_cast<double>(core.dispatchWidth);
    result.branchResolution = static_cast<double>(core.frontendDepth);
    return result;
}

} // namespace rppm

#endif // RPPM_RPPM_ILP_MODEL_HH
