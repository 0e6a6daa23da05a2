/**
 * @file
 * Flat-table cache hierarchy for the columnar simulator engines.
 *
 * Semantically identical to CacheHierarchy (cache/hierarchy.hh) — same
 * cache walks, same stats, same coherence classification, same shared-bus
 * backlog — but engineered for the simulator's hot loop:
 *
 *  - The caches are SimCache replicas (sim_cache.hh): tag-only,
 *    recency-ordered sets with shift/mask set indexing,
 *    decision-identical to Cache. Every level shares one line size
 *    (MulticoreConfig::validate() enforces it), so the address-to-line
 *    division happens once per access and the line number feeds every
 *    level and the directory.
 *  - The coherence directory is block-structured: an OpenTable maps a
 *    block of kBlockLines consecutive lines to its slot in a contiguous
 *    pool, and each line's entry is one 8-byte word. Workload lines are
 *    dense within such blocks (the oracle kernels' directories hold
 *    10-53 bytes per distinct line; a trace touching one line per block
 *    would pay 512), so neighbouring lines share host cache lines and
 *    TLB pages. At most one directory lookup serves a whole access
 *    (invalidation filter + coherence classify + last-writer update),
 *    and a read that hits L1D skips the directory entirely — its sharer
 *    bit is necessarily already set, because the only event that clears
 *    it (a remote write) would also have invalidated the copy and made
 *    the hit impossible.
 *  - An entry packs a sharer mask in its low 56 bits — a conservative
 *    superset of the cores whose private L1D/L2 may hold the line — and
 *    the last writer (core + 1, 0 = never written) in its top 8. A write
 *    only probes the caches of cores in the mask instead of every core;
 *    since invalidating an absent line is a no-op (and charges no
 *    stats), filtering by a superset is exact, and after a write the
 *    writer is the only possible sharer. Machines with more than 56
 *    cores fall back to probing every core, which is what the legacy
 *    hierarchy always does, and their entries hold only the last
 *    writer. An all-zero entry is a line nobody has touched.
 *
 * The fetch path is split so the parallel engine can replay it in two
 * phases: instrFetch() is the full L1I probe + miss fill (sequential
 * engine), instrMissFill() is only the shared L2/LLC walk of a known L1I
 * miss (the parallel engine resolves L1I hits thread-locally — L1I is
 * never invalidated — and replays just the misses in global order).
 *
 * Not internally synchronized: one instance is owned by one thread at a
 * time (the parallel engine gives each cache-set shard its own replica).
 */

#ifndef RPPM_SIM_SIM_HIERARCHY_HH
#define RPPM_SIM_SIM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.hh"
#include "cache/hierarchy.hh"
#include "common/open_table.hh"
#include "sim/sim_cache.hh"

namespace rppm {

/** Drop-in CacheHierarchy replacement for the columnar simulator. */
class SimHierarchy
{
  public:
    /**
     * @p dir_key_shift: every line this replica sees agrees in its low
     * dir_key_shift bits (the parallel engine's cache-set shard index),
     * so the directory keys on line >> dir_key_shift to keep its blocks
     * dense. 0 for a hierarchy that sees every line.
     */
    explicit SimHierarchy(const MulticoreConfig &cfg,
                          uint32_t dir_key_shift = 0);

    /** Data access; mirrors CacheHierarchy::dataAccess exactly. */
    AccessResult dataAccess(uint32_t core, uint64_t addr, bool is_write,
                            double now = 0.0);

    /** Full instruction fetch (L1I probe, then miss fill). */
    uint32_t instrFetch(uint32_t core, uint64_t pc);

    /**
     * Serve a known L1I miss from the unified L2 / LLC path without
     * touching L1I or its stats; returns the extra front-end stall.
     */
    uint32_t instrMissFill(uint32_t core, uint64_t pc);

    /** Credit externally replayed L1I probes into @p core's stats. */
    void
    addL1iStats(uint32_t core, uint64_t accesses, uint64_t misses)
    {
        stats_[core].l1iAccesses += accesses;
        stats_[core].l1iMisses += misses;
    }

    const CoreMemStats &coreStats(uint32_t core) const
    {
        return stats_[core];
    }

    const MulticoreConfig &config() const { return cfg_; }

  private:
    /** Shared L2 → LLC → memory walk of a known L1D miss. */
    void lowerWalk(uint32_t core, uint64_t line, bool is_write,
                   bool remote_written, double now, AccessResult &result);

    /**
     * Directory entry of @p line, created all-zero (no sharers, never
     * written) on first use. The reference is invalidated by the next
     * call.
     */
    uint64_t &dirEntry(uint64_t line);

    /** Last writer of an entry: core + 1, 0 = never written. */
    uint64_t writerOf(uint64_t e) const { return e >> writerShift_; }

    /** @p e with @p core recorded as its last writer. */
    uint64_t
    withWriter(uint64_t e, uint32_t core) const
    {
        return (e & sharerMask_) | (uint64_t{core + 1} << writerShift_);
    }

    /**
     * log2 of the lines per directory block. The oracle kernels fill
     * 64-line blocks nearly as densely as 16-line ones, and 8-, 16- and
     * 256-line blocks all simulated them more slowly.
     */
    static constexpr uint32_t kBlockShift = 6;
    static constexpr uint64_t kBlockLines = uint64_t{1} << kBlockShift;
    /** Cores the packed sharer mask can name; larger machines run wide. */
    static constexpr uint32_t kMaskCores = 56;

    MulticoreConfig cfg_;
    std::vector<SimCache> l1i_, l1d_, l2_;
    std::unique_ptr<SimCache> llc_;
    std::vector<CoreMemStats> stats_;
    /// directory block number -> its index in dirPool_
    OpenTable<uint32_t> dirBlocks_;
    /// kBlockLines entries per block: sharers in the low kMaskCores
    /// bits, last writer above them (the whole word when wide_)
    std::vector<uint64_t> dirPool_;
    uint32_t dirKeyShift_;
    /// more than kMaskCores cores: no sharer mask, writes probe all
    bool wide_;
    /// sharer bits of an entry (none when wide_)
    uint64_t sharerMask_;
    /// bit position of the last writer in an entry
    uint32_t writerShift_;
    double busBacklog_ = 0.0;
    double busLastNow_ = 0.0;
};

} // namespace rppm

#endif // RPPM_SIM_SIM_HIERARCHY_HH
