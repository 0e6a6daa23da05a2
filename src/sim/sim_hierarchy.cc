#include "sim/sim_hierarchy.hh"

#include <algorithm>
#include <bit>

#include "common/assert.hh"

namespace rppm {

SimHierarchy::SimHierarchy(const MulticoreConfig &cfg, uint32_t dir_key_shift)
    : cfg_(cfg), stats_(cfg.numCores()), dirKeyShift_(dir_key_shift),
      wide_(cfg.numCores() > kMaskCores),
      sharerMask_(wide_ ? 0 : (uint64_t{1} << kMaskCores) - 1),
      writerShift_(wide_ ? 0 : kMaskCores)
{
    cfg_.validate();
    l1i_.reserve(cfg_.numCores());
    l1d_.reserve(cfg_.numCores());
    l2_.reserve(cfg_.numCores());
    for (uint32_t c = 0; c < cfg_.numCores(); ++c) {
        const CoreConfig &core = cfg_.core(c);
        l1i_.emplace_back(core.l1i);
        l1d_.emplace_back(core.l1d);
        l2_.emplace_back(core.l2);
    }
    llc_ = std::make_unique<SimCache>(cfg_.llc);
}

uint64_t &
SimHierarchy::dirEntry(uint64_t line)
{
    const uint64_t key = line >> dirKeyShift_;
    bool inserted = false;
    uint32_t &block = dirBlocks_.lookup(key >> kBlockShift, inserted);
    if (inserted) {
        block = static_cast<uint32_t>(dirPool_.size() >> kBlockShift);
        dirPool_.resize(dirPool_.size() + kBlockLines, 0);
    }
    const uint64_t first = uint64_t{block} << kBlockShift;
    return dirPool_[first | (key & (kBlockLines - 1))];
}

void
SimHierarchy::lowerWalk(uint32_t core, uint64_t line, bool is_write,
                        bool remote_written, double now,
                        AccessResult &result)
{
    const CoreConfig &cc = cfg_.core(core);
    CoreMemStats &st = stats_[core];

    ++st.l2Accesses;
    if (l2_[core].accessLine(line, is_write)) {
        result.level = HitLevel::L2;
        result.latency = cc.l1d.latency + cc.l2.latency;
        return;
    }
    ++st.l2Misses;

    ++st.llcAccesses;
    if (llc_->accessLine(line, is_write)) {
        result.level = HitLevel::LLC;
        result.latency =
            cc.l1d.latency + cc.l2.latency + cfg_.llc.latency;
        result.coherenceMiss = remote_written;
    } else {
        ++st.llcMisses;
        result.level = HitLevel::Memory;
        result.latency = cc.l1d.latency + cc.l2.latency +
            cfg_.llc.latency + cc.memLatency;
        result.coherenceMiss = remote_written;
        // Shared memory bus backlog, identical to the legacy hierarchy
        // (see cache/hierarchy.cc). The parallel engine never reaches
        // this with memBusCycles > 0 — bus queueing is time-dependent,
        // so the dispatcher routes such configs to a sequential engine.
        if (cfg_.memBusCycles > 0) {
            const double scale = cfg_.timeScale(core);
            const double now_ref = now * scale;
            if (now_ref > busLastNow_) {
                busBacklog_ = std::max(0.0, busBacklog_ -
                                       (now_ref - busLastNow_));
                busLastNow_ = now_ref;
            }
            result.latency += static_cast<uint32_t>(busBacklog_ / scale);
            busBacklog_ += static_cast<double>(cfg_.memBusCycles);
        }
    }
    if (result.coherenceMiss)
        ++st.coherenceMisses;
}

AccessResult
SimHierarchy::dataAccess(uint32_t core, uint64_t addr, bool is_write,
                         double now)
{
    RPPM_ASSERT(core < cfg_.numCores());
    const CoreConfig &cc = cfg_.core(core);
    CoreMemStats &st = stats_[core];
    AccessResult result;
    // One division serves every level and the directory: validate()
    // enforces a single line size across the whole hierarchy.
    const uint64_t line = llc_->lineOf(addr);

    if (!is_write) {
        // Fast path: a read that hits L1D needs no directory work at
        // all (the legacy hierarchy only consults lastWriter_ after an
        // L1 miss). The core's sharer bit is necessarily already set:
        // it was set when the line was filled, and the only thing that
        // clears it is a remote write — which would also have
        // invalidated this copy and made the hit impossible.
        ++st.l1dAccesses;
        if (l1d_[core].accessLine(line, false)) {
            result.level = HitLevel::L1;
            result.latency = cc.l1d.latency;
            return result;
        }
        ++st.l1dMisses;

        uint64_t &e = dirEntry(line);
        if (!wide_)
            e |= uint64_t{1} << core;
        // Classify before we touch lower levels: if another core wrote
        // this line since our last access, the private-cache miss is a
        // coherence miss (the copy we once had was invalidated).
        const uint64_t writer = writerOf(e);
        const bool remote_written = writer != 0 && writer != core + 1;
        lowerWalk(core, line, false, remote_written, now, result);
        return result;
    }

    uint64_t &e = dirEntry(line);

    // A write must invalidate every remote private copy before this core
    // can own the line. The sharer mask is a superset of the cores that
    // may hold it, so probing only those is exactly equivalent to the
    // legacy all-core loop (invalidating an absent line is a no-op and
    // charges no stats); afterwards the writer is the only sharer.
    if (wide_) {
        for (uint32_t c = 0; c < cfg_.numCores(); ++c) {
            if (c == core)
                continue;
            bool inv = l1d_[c].invalidateLine(line);
            inv |= l2_[c].invalidateLine(line);
            if (inv)
                ++stats_[c].invalidationsReceived;
        }
    } else {
        uint64_t others = e & sharerMask_ & ~(uint64_t{1} << core);
        while (others != 0) {
            const uint32_t c = static_cast<uint32_t>(
                std::countr_zero(others));
            others &= others - 1;
            bool inv = l1d_[c].invalidateLine(line);
            inv |= l2_[c].invalidateLine(line);
            if (inv)
                ++stats_[c].invalidationsReceived;
        }
        e = (e & ~sharerMask_) | (uint64_t{1} << core);
    }

    ++st.l1dAccesses;
    if (l1d_[core].accessLine(line, true)) {
        result.level = HitLevel::L1;
        result.latency = cc.l1d.latency;
        e = withWriter(e, core);
        return result;
    }
    ++st.l1dMisses;

    const uint64_t writer = writerOf(e);
    const bool remote_written = writer != 0 && writer != core + 1;
    lowerWalk(core, line, true, remote_written, now, result);
    e = withWriter(e, core);
    return result;
}

uint32_t
SimHierarchy::instrFetch(uint32_t core, uint64_t pc)
{
    RPPM_ASSERT(core < cfg_.numCores());
    CoreMemStats &st = stats_[core];
    ++st.l1iAccesses;
    if (l1i_[core].accessLine(llc_->lineOf(pc), false))
        return 0;
    ++st.l1iMisses;
    return instrMissFill(core, pc);
}

uint32_t
SimHierarchy::instrMissFill(uint32_t core, uint64_t pc)
{
    RPPM_ASSERT(core < cfg_.numCores());
    const CoreConfig &cc = cfg_.core(core);
    const uint64_t line = llc_->lineOf(pc);
    // The fill allocates into this core's private L2, which a later
    // remote write must be able to invalidate: record the sharer bit.
    if (!wide_)
        dirEntry(line) |= uint64_t{1} << core;
    if (l2_[core].accessLine(line, false))
        return cc.l2.latency;
    if (llc_->accessLine(line, false))
        return cc.l2.latency + cfg_.llc.latency;
    return cc.l2.latency + cfg_.llc.latency + cc.memLatency;
}

} // namespace rppm
