/**
 * @file
 * Statistical memory-hierarchy model (paper Sec. III-A "Memory Behavior"
 * and III-B "Per-epoch active execution time").
 *
 * Per epoch, StatStack instances built from the per-thread reuse-distance
 * distribution predict the private L1D and L2 miss rates, and the global
 * (interleaved) distribution predicts the shared-LLC miss rate — thereby
 * capturing positive interference (sharing), negative interference
 * (capacity contention) and coherence (write-invalidation) effects. The
 * instruction-stream distribution predicts the I-cache component.
 *
 * All StatStack-derived quantities are config-independent and live in an
 * EpochStacks bundle. The model either borrows a shared bundle (the
 * memoized grid engine builds one per epoch for a whole Study) or builds
 * its own (the naive per-point path); both produce bit-identical
 * predictions.
 */

#ifndef RPPM_RPPM_MEMORY_MODEL_HH
#define RPPM_RPPM_MEMORY_MODEL_HH

#include <memory>

#include "arch/config.hh"
#include "profile/epoch_profile.hh"
#include "statstack/epoch_stacks.hh"
#include "statstack/statstack.hh"

namespace rppm {

/** Predicted cache behaviour of one epoch on one configuration. */
struct EpochMemoryModel
{
    /**
     * Build the statistical cache model for @p epoch running on core
     * @p core of @p cfg (private levels and DRAM latency come from the
     * core, the shared LLC from the multicore). Holds references to the
     * epoch's histograms and both configs; they must outlive the model.
     *
     * @param llc_uses_global_rd predict the shared LLC from the global
     *        interleaved reuse distances (full model); false falls back
     *        to the per-thread distances (ablation: no interference)
     */
    EpochMemoryModel(const EpochProfile &epoch, const MulticoreConfig &cfg,
                     const CoreConfig &core,
                     bool llc_uses_global_rd = true);

    /**
     * Same model over a pre-built (shared) stack bundle: no StatStack is
     * constructed and miss rates come from the bundle's memoized curves.
     * @p stacks must have been built from @p epoch (with the desired
     * llcUsesGlobalRd flavour) and must not be null.
     */
    EpochMemoryModel(const EpochProfile &epoch, const MulticoreConfig &cfg,
                     const CoreConfig &core,
                     std::shared_ptr<const EpochStacks> stacks);

    /** Convenience: model for core 0 (uniform machines). */
    EpochMemoryModel(const EpochProfile &epoch, const MulticoreConfig &cfg,
                     bool llc_uses_global_rd = true)
        : EpochMemoryModel(epoch, cfg, cfg.core(0), llc_uses_global_rd)
    {}

    /** Miss rates (per access) at each level. */
    double l1dMissRate() const { return l1dMiss_; }
    double l2MissRate() const { return l2Miss_; }   ///< of all accesses
    double llcMissRate() const { return llcMiss_; } ///< of all accesses

    /** Load-specific LLC miss count for the D-component (mLLC). */
    double llcLoadMisses() const { return llcLoadMisses_; }

    /** Load-specific LLC miss rate (per load). */
    double llcLoadMissRate() const { return llcLoadMissRate_; }

    /** Predicted DRAM transfers (loads + stores) in this epoch; drives
     *  the shared-bus contention model. */
    double dramTransfers() const
    {
        return llcMiss_ *
            static_cast<double>(epoch_.numLoads + epoch_.numStores);
    }

    /**
     * Bind the precomputed per-op stack distances of the micro-traces so
     * the expectedLatency* functions below can be used. Called once
     * before the Eq.-1 window replays; a no-op on repeat calls.
     */
    void prepareReplay() const;

    /**
     * Expected latency of memory micro-op @p op, op @p idx of
     * micro-trace @p trace of the epoch, from its precomputed expected
     * stack distances, capped at the LLC hit latency (the hit path
     * only). prepareReplay() must have been called. Inline: the window
     * replay calls it once per memory op.
     */
    double
    expectedLatency(const MicroTraceOp &op, uint32_t trace,
                    uint32_t idx) const
    {
        if (op.op == OpClass::Store)
            return storeLatency();
        return hitLatency((*microSd_)[trace][idx].local);
    }

    /**
     * Expected latency including the DRAM penalty for accesses whose
     * global reuse distance exceeds the LLC reach. Used by the
     * D-component replay, where the window model turns these per-access
     * latencies into overlapped (MLP-limited) stall time.
     */
    double
    expectedLatencyFull(const MicroTraceOp &op, uint32_t trace,
                        uint32_t idx) const
    {
        double latency = expectedLatency(op, trace, idx);
        if (op.op == OpClass::Load) {
            // A DRAM access requires missing the private levels and the
            // shared LLC (its interleaved reuse must exceed the LLC
            // reach).
            const EpochStacks::OpSd &sd = (*microSd_)[trace][idx];
            if (sd.local >= static_cast<double>(l2Lines_) &&
                sd.llc >= static_cast<double>(llcLines_)) {
                latency += static_cast<double>(core_.memLatency);
            }
        }
        return latency;
    }

    /** Same access, but every level treated as an L1 hit; used to split
     *  the base component for CPI-stack reporting. */
    double
    expectedLatencyL1Only(const MicroTraceOp &op) const
    {
        if (op.op == OpClass::Store)
            return storeLatency();
        return static_cast<double>(core_.l1d.latency);
    }

    /** Predicted I-cache component cycles for the whole epoch (additive
     *  Eq. 1 form; the replay-based path uses icachePerFetch instead). */
    double icacheCycles() const { return icacheCycles_; }

    /** Expected front-end stall per fetched micro-op. */
    double icachePerFetch() const
    {
        return epoch_.numOps > 0 ?
            icacheCycles_ / static_cast<double>(epoch_.numOps) : 0.0;
    }

  private:
    double
    storeLatency() const
    {
        return static_cast<double>(
            core_.fus[static_cast<size_t>(OpClass::Store)].latency);
    }

    /**
     * Hit-path latency of a load from its expected local stack
     * distance (callers handle stores before reaching here). Walks the
     * hierarchy with per-access hit/miss decisions derived from the
     * access's own reuse distances. DRAM latency is excluded: the
     * long-latency load stall is Eq. 1's separate D-component.
     */
    double
    hitLatency(double sd_local) const
    {
        double latency = static_cast<double>(core_.l1d.latency);
        if (sd_local >= static_cast<double>(l1Lines_)) {
            latency += static_cast<double>(core_.l2.latency);
            if (sd_local >= static_cast<double>(l2Lines_))
                latency += static_cast<double>(cfg_.llc.latency);
        }
        return latency;
    }

    const EpochProfile &epoch_;
    const MulticoreConfig &cfg_;
    const CoreConfig &core_;
    std::shared_ptr<const EpochStacks> stacks_;
    mutable const std::vector<std::vector<EpochStacks::OpSd>> *microSd_ =
        nullptr;

    uint64_t l1Lines_, l2Lines_, llcLines_;
    double l1dMiss_ = 0.0;
    double l2Miss_ = 0.0;
    double llcMiss_ = 0.0;
    double llcLoadMisses_ = 0.0;
    double llcLoadMissRate_ = 0.0;
    double icacheCycles_ = 0.0;
};

} // namespace rppm

#endif // RPPM_RPPM_MEMORY_MODEL_HH
