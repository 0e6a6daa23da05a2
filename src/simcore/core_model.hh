/**
 * @file
 * Instruction-window-centric out-of-order core timing model.
 *
 * This is the per-core timing engine of the golden-reference simulator —
 * the same model family as Sniper's hardware-validated core model the
 * paper simulates against. Every micro-op flows through dispatch (width,
 * ROB and issue-queue occupancy limits), issue (dependences, functional
 * unit contention, MSHR limits) and in-order retirement. Branch
 * mispredictions redirect the front end after the branch resolves plus a
 * refill penalty; I-cache misses stall the front end; load latencies come
 * from the real cache hierarchy, so memory-level parallelism emerges
 * naturally from the window.
 *
 * The model also attributes retired cycles to CPI-stack components
 * (base / branch / I-cache / memory levels) using interval-union
 * accounting for overlapping load misses.
 */

#ifndef RPPM_SIMCORE_CORE_MODEL_HH
#define RPPM_SIMCORE_CORE_MODEL_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "cache/hierarchy.hh"
#include "common/assert.hh"
#include "trace/trace.hh"

namespace rppm {

/** CPI stack components used by both the simulator and the RPPM model. */
enum class CpiComponent : uint8_t
{
    Base,
    Branch,
    ICache,
    MemL2,     ///< load stall serviced by private L2
    MemLLC,    ///< load stall serviced by shared LLC
    MemDram,   ///< load stall serviced by main memory
    Sync,      ///< idle waiting on synchronization
    NumComponents,
};

constexpr size_t kNumCpiComponents =
    static_cast<size_t>(CpiComponent::NumComponents);

/** Human-readable CPI component name. */
const char *cpiComponentName(CpiComponent comp);

/** A cycle budget per CPI component. */
struct CpiStack
{
    std::array<double, kNumCpiComponents> cycles{};

    double &operator[](CpiComponent c)
    {
        return cycles[static_cast<size_t>(c)];
    }
    double operator[](CpiComponent c) const
    {
        return cycles[static_cast<size_t>(c)];
    }

    /** Sum of all components. */
    double total() const;

    /** Sum of the three memory components. */
    double memTotal() const;

    /** Element-wise accumulate. */
    void add(const CpiStack &other);

    /** Scale all components by @p f. */
    void scale(double f);
};

/** Memory-system interface so cores can be unit-tested with stubs. */
class MemorySystemIf
{
  public:
    virtual ~MemorySystemIf() = default;

    /** Data access at time @p now; returns level and total latency. */
    virtual AccessResult dataAccess(uint64_t addr, bool is_write,
                                    double now) = 0;

    /** Instruction fetch; returns extra front-end stall cycles. */
    virtual uint32_t instrFetch(uint64_t pc) = 0;
};

/** Branch predictor interface (stubbed in unit tests). */
class BranchPredictorIf
{
  public:
    virtual ~BranchPredictorIf() = default;

    /** @return true when the prediction was correct. */
    virtual bool predictAndUpdate(uint64_t pc, bool taken) = 0;
};

/**
 * Timing model for a single hardware thread/core.
 *
 * Times are in *this core's own* clock cycles, represented as double so
 * the multicore scheduler can merge them with sync idle times; all
 * intra-core schedule decisions happen on integral cycles. On
 * heterogeneous machines the multicore scheduler converts between this
 * core-local domain and the shared reference time base via
 * MulticoreConfig::timeScale(); the core model itself is clock-agnostic.
 *
 * The model is a template on its memory-system and branch-predictor
 * types. The default instantiation (the CoreModel alias below) binds the
 * virtual interfaces and behaves exactly as the historical class — this
 * is what simulateLegacy() and unit-test stubs use. The columnar
 * simulator engines instantiate it with their concrete adapter types
 * instead, turning the three per-record indirect calls (instruction
 * fetch, data access, branch prediction) into direct, inlinable ones.
 * Identical source, identical IEEE arithmetic — the engines stay
 * byte-identical (pinned by tests/test_sim_parallel.cc); only the
 * dispatch mechanics change.
 */
template <typename MemT = MemorySystemIf, typename BranchT = BranchPredictorIf>
class CoreModelT
{
  public:
    CoreModelT(const CoreConfig &cfg, MemT &mem, BranchT &branch)
        : cfg_(cfg), mem_(mem), branch_(branch)
    {
        RPPM_REQUIRE(cfg_.robSize <= kHistory,
                     "ROB larger than the model's history window");
        completion_.assign(kHistory, 0.0);
        issue_.assign(kHistory, 0.0);
        retire_.assign(kHistory, 0.0);
        mshrFree_.assign(std::max<uint32_t>(cfg_.mshrs, 1), 0.0);
        for (size_t c = 0; c < kNumOpClasses; ++c) {
            fuFree_[c].assign(std::max<uint32_t>(cfg_.fus[c].count, 1),
                              0.0);
        }
    }

    /** Execute one micro-op (must not be a sync record). */
    void
    execute(const TraceRecord &rec)
    {
        RPPM_ASSERT(!rec.isSync());
        const uint64_t i = numOps_;

        // --- Front end: I-cache, then dispatch constraints. ---
        const uint32_t fetch_stall = mem_.instrFetch(rec.pc);
        if (fetch_stall > 0) {
            dispatchCycle_ += static_cast<double>(fetch_stall);
            dispatchedInCycle_ = 0;
            stack_[CpiComponent::ICache] +=
                static_cast<double>(fetch_stall);
        }

        double earliest = 0.0;
        // ROB: the op robSize back must have retired.
        if (i >= cfg_.robSize) {
            earliest =
                std::max(earliest, retire_[(i - cfg_.robSize) % kHistory]);
        }
        // Issue queue: the op issueQueueSize back must have issued.
        if (i >= cfg_.issueQueueSize) {
            earliest = std::max(
                earliest, issue_[(i - cfg_.issueQueueSize) % kHistory]);
        }
        const double dispatch = dispatchOne(earliest);

        // --- Issue: dependences, FU contention, MSHRs. ---
        double ready = dispatch + 1.0; // minimum dispatch-to-issue delay
        if (rec.dep1 > 0 && rec.dep1 <= i && rec.dep1 < kHistory)
            ready = std::max(ready, completionOf(i - rec.dep1));
        if (rec.dep2 > 0 && rec.dep2 <= i && rec.dep2 < kHistory)
            ready = std::max(ready, completionOf(i - rec.dep2));

        const size_t cls = static_cast<size_t>(rec.op);
        auto &fus = fuFree_[cls];
        auto unit = std::min_element(fus.begin(), fus.end());
        double issue = std::max(ready, *unit);

        const FuConfig &fu = cfg_.fus[cls];
        double latency = static_cast<double>(fu.latency);

        if (rec.op == OpClass::Load) {
            // MSHR limit: a new miss cannot issue before the oldest of
            // the last `mshrs` loads completed.
            const size_t slot = numLoads_ % mshrFree_.size();
            issue = std::max(issue, mshrFree_[slot]);
            const AccessResult res = mem_.dataAccess(rec.addr, false,
                                                     issue);
            latency = static_cast<double>(res.latency);
            mshrFree_[slot] = issue + latency;
            ++numLoads_;

            // Interval-union accounting of load-miss stall so
            // overlapping misses (MLP) are not double counted.
            if (res.level != HitLevel::L1) {
                const double start = std::max(issue, memStallEnd_);
                const double end = issue + latency;
                if (end > start) {
                    CpiComponent comp = CpiComponent::MemL2;
                    if (res.level == HitLevel::LLC)
                        comp = CpiComponent::MemLLC;
                    else if (res.level == HitLevel::Memory)
                        comp = CpiComponent::MemDram;
                    stack_[comp] += end - start;
                    memStallEnd_ = end;
                }
            }
        } else if (rec.op == OpClass::Store) {
            // Stores update cache state but retire through the store
            // buffer; they do not stall the window in this model.
            mem_.dataAccess(rec.addr, true, issue);
            latency = static_cast<double>(fu.latency);
        }

        *unit = issue + static_cast<double>(fu.interval);
        const double complete = issue + latency;

        // --- Branch resolution. ---
        if (rec.op == OpClass::Branch) {
            const bool correct = branch_.predictAndUpdate(rec.pc,
                                                          rec.taken);
            if (!correct) {
                // Front end restarts after the branch executes plus the
                // pipeline refill time.
                const double redirect =
                    complete + static_cast<double>(cfg_.frontendDepth);
                if (redirect > dispatchCycle_) {
                    // Attribute only the time lost beyond what the back
                    // end had already stalled anyway (e.g. a DRAM load
                    // at the ROB head): cycles before lastRetire_ are
                    // charged to their own cause by the memory
                    // accounting.
                    const double lost =
                        redirect - std::max(dispatchCycle_, lastRetire_);
                    if (lost > 0.0)
                        stack_[CpiComponent::Branch] += lost;
                    dispatchCycle_ = redirect;
                    dispatchedInCycle_ = 0;
                }
            }
        }

        // --- In-order retirement. ---
        const double retire = std::max(lastRetire_, complete);
        completion_[i % kHistory] = complete;
        issue_[i % kHistory] = issue;
        retire_[i % kHistory] = retire;
        lastRetire_ = retire;
        ++numOps_;
    }

    /**
     * Current thread-local time: the retire time of the newest op, i.e.
     * the earliest cycle at which a subsequent sync event could happen.
     */
    double now() const { return lastRetire_; }

    /**
     * Jump the core's clocks forward to @p t (resuming after blocking
     * synchronization) and account the skipped span to the Sync bucket.
     */
    void
    idleUntil(double t)
    {
        if (t <= lastRetire_)
            return;
        const double gap = t - lastRetire_;
        stack_[CpiComponent::Sync] += gap;
        idleCycles_ += gap;
        lastRetire_ = t;
        dispatchCycle_ = std::max(dispatchCycle_, t);
        dispatchedInCycle_ = 0;
        // Nothing else needs draining: FU, MSHR and completion times are
        // absolute cycles, so whatever finished before t is already free
        // to the ops dispatched from t on.
    }

    /**
     * Charge @p cycles of synchronization-operation overhead (atomic RMW,
     * futex syscall, ...) advancing time without executing ops.
     */
    void
    syncOverhead(double cycles)
    {
        if (cycles <= 0.0)
            return;
        lastRetire_ += cycles;
        dispatchCycle_ = std::max(dispatchCycle_, lastRetire_);
        dispatchedInCycle_ = 0;
        // Synchronization instructions (atomics, futexes) are real work:
        // they appear in neither the base ILP stream nor the miss
        // components, so give them their own share of the base
        // component.
        stack_[CpiComponent::Base] += cycles;
    }

    /** Retired micro-op count. */
    uint64_t instructions() const { return numOps_; }

    /** CPI stack accumulated so far; Base is derived as the remainder. */
    CpiStack
    cpiStack() const
    {
        CpiStack result = stack_;
        // Base is the remainder: total busy time not attributed to any
        // miss component. Attribution is approximate (branch penalties
        // can overlap memory stalls), so when the attributed components
        // exceed the real busy time, scale the non-sync components down
        // to fit.
        const double sync = stack_[CpiComponent::Sync];
        const double attributed = stack_.total() - sync;
        const double busy = lastRetire_ - sync;
        if (attributed > busy && attributed > 0.0) {
            const double factor = std::max(0.0, busy) / attributed;
            for (size_t c = 0; c < kNumCpiComponents; ++c) {
                if (c != static_cast<size_t>(CpiComponent::Sync))
                    result.cycles[c] *= factor;
            }
        } else {
            result[CpiComponent::Base] += busy - attributed;
        }
        return result;
    }

    /** Cycles this core was busy (now() minus idle gaps). */
    double activeCycles() const { return lastRetire_ - idleCycles_; }

  private:
    /** History depth for dependence lookups; deps are capped to it. */
    static constexpr uint64_t kHistory = 1024;

    double
    completionOf(uint64_t idx) const
    {
        return completion_[idx % kHistory];
    }

    double
    dispatchOne(double earliest)
    {
        // Dispatch groups of up to dispatchWidth ops per front-end
        // cycle.
        earliest = std::ceil(earliest);
        if (earliest > dispatchCycle_) {
            dispatchCycle_ = earliest;
            dispatchedInCycle_ = 0;
        }
        if (dispatchedInCycle_ >= cfg_.dispatchWidth) {
            dispatchCycle_ += 1.0;
            dispatchedInCycle_ = 0;
        }
        ++dispatchedInCycle_;
        return dispatchCycle_;
    }

    const CoreConfig cfg_;
    MemT &mem_;
    BranchT &branch_;

    // Ring buffers sized at construction.
    std::vector<double> completion_;   ///< completion time by op index
    std::vector<double> issue_;        ///< issue time by op index
    std::vector<double> retire_;       ///< retire time by op index
    std::vector<double> mshrFree_;     ///< completion of outstanding loads

    uint64_t numOps_ = 0;
    uint64_t numLoads_ = 0;
    double dispatchCycle_ = 0.0;       ///< front-end next dispatch cycle
    uint32_t dispatchedInCycle_ = 0;
    double lastRetire_ = 0.0;
    double memStallEnd_ = 0.0;         ///< union accounting for load misses
    double idleCycles_ = 0.0;
    CpiStack stack_;

    std::array<std::vector<double>, kNumOpClasses> fuFree_;
};

/** The historical dynamic-dispatch instantiation (legacy engine, stubs). */
using CoreModel = CoreModelT<>;

} // namespace rppm

#endif // RPPM_SIMCORE_CORE_MODEL_HH
