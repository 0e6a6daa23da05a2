/**
 * @file
 * Compact set-associative cache replica for the simulator's hot engines.
 *
 * Functionally identical to cache/cache.hh's Cache — the same hit/miss
 * outcomes, the same set contents after every call, the same statistics
 * — restructured for the simulator's access rate:
 *
 *  - Tag-only, recency-ordered sets. Each set is `assoc` contiguous
 *    64-bit tags kept most-recently-used first, with invalid ways as an
 *    all-ones sentinel at the tail (a real tag is a line number divided
 *    by the set count, far below 2^64 - 1). There is no LRU-stamp array
 *    and no clock: an 8-way set is one 64-byte host line and a 16-way
 *    set two. A hit moves the tag to the front, a miss shifts the set
 *    down one way and inserts at the front (dropping the tail), and an
 *    invalidation removes the tag and appends a sentinel.
 *  - The dirty bit of the legacy Cache is gone: no writeback is modeled
 *    and nothing ever reads it back, so it is unobservable state.
 *  - Set index and tag use shift/mask when the geometry is a power of
 *    two (the common case) instead of 64-bit division, with an exact
 *    division fallback otherwise. Callers that already know the line
 *    number (the hierarchy computes it once per access for the
 *    directory; every level shares one line size, which
 *    MulticoreConfig::validate() enforces) use the *Line entry points
 *    and skip the address-to-line division entirely.
 *
 * Equivalence of the replacement policy: the legacy cache evicts the
 * first invalid way, else the way with the smallest LRU stamp. Here the
 * tail of a set is an invalid way whenever one exists and the
 * least-recently-used line otherwise, so the line dropped on a miss is
 * the one the legacy rule evicts, and set contents (and their recency
 * order) evolve identically. Which physical way holds a line is never
 * observable. tests/test_cache.cc checks this call by call against
 * Cache on random access/invalidate streams; tests/test_sim_parallel.cc
 * pins it on the whole workload suite through the byte-identity of the
 * simulator engines.
 */

#ifndef RPPM_SIM_SIM_CACHE_HH
#define RPPM_SIM_SIM_CACHE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "cache/cache.hh"
#include "common/assert.hh"

namespace rppm {

/** Set-associative LRU tag store, decision-identical to Cache. */
class SimCache
{
  public:
    explicit SimCache(const CacheConfig &cfg)
        : cfg_(cfg), numSets_(cfg.numSets()), assoc_(cfg.assoc)
    {
        RPPM_REQUIRE(numSets_ > 0, "cache must have at least one set");
        tags_.assign(static_cast<size_t>(numSets_) * assoc_, kInvalid);
        lineShift_ = std::has_single_bit(cfg_.lineBytes) ?
            static_cast<uint32_t>(std::countr_zero(cfg_.lineBytes)) :
            kNoShift;
        setShift_ = std::has_single_bit(numSets_) ?
            static_cast<uint32_t>(std::countr_zero(numSets_)) : kNoShift;
    }

    /** Line number for a byte address under this config. */
    uint64_t
    lineOf(uint64_t addr) const
    {
        return lineShift_ != kNoShift ? addr >> lineShift_ :
                                        addr / cfg_.lineBytes;
    }

    /** As Cache::access, taking the precomputed line number. */
    bool
    accessLine(uint64_t line, bool is_write)
    {
        (void)is_write; // the legacy dirty bit is unobservable state
        ++stats_.accesses;
        size_t set;
        uint64_t tag;
        split(line, set, tag);
        // One pass moves the tag to the front: every way before the
        // match (or before the first invalid way, or the whole set on a
        // full miss) shifts down by one, and the slot it vacates is
        // overwritten — the matched tag, the consumed sentinel or the
        // least-recently-used line.
        uint64_t *ways = &tags_[set * assoc_];
        uint64_t carry = tag;
        for (uint32_t w = 0; w < assoc_; ++w) {
            const uint64_t cur = ways[w];
            ways[w] = carry;
            if (cur == tag)
                return true;
            if (cur == kInvalid)
                break;
            carry = cur;
        }
        ++stats_.misses;
        return false;
    }

    /** As Cache::access (by byte address). */
    bool
    access(uint64_t addr, bool is_write)
    {
        return accessLine(lineOf(addr), is_write);
    }

    /** As Cache::invalidate, taking the precomputed line number. */
    bool
    invalidateLine(uint64_t line)
    {
        size_t set;
        uint64_t tag;
        split(line, set, tag);
        uint64_t *ways = &tags_[set * assoc_];
        for (uint32_t w = 0; w < assoc_; ++w) {
            if (ways[w] == kInvalid)
                return false;
            if (ways[w] == tag) {
                for (; w + 1 < assoc_; ++w)
                    ways[w] = ways[w + 1];
                ways[assoc_ - 1] = kInvalid;
                ++stats_.invalidations;
                return true;
            }
        }
        return false;
    }

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return cfg_; }

  private:
    static constexpr uint32_t kNoShift = UINT32_MAX;
    /** Tag of an invalid way; sorts every such way to the set's tail. */
    static constexpr uint64_t kInvalid = ~uint64_t{0};

    void
    split(uint64_t line, size_t &set, uint64_t &tag) const
    {
        if (setShift_ != kNoShift) {
            set = static_cast<size_t>(line & (numSets_ - 1));
            tag = line >> setShift_;
        } else {
            set = static_cast<size_t>(line % numSets_);
            tag = line / numSets_;
        }
    }

    CacheConfig cfg_;
    uint32_t numSets_;
    uint32_t assoc_;
    uint32_t lineShift_ = kNoShift;
    uint32_t setShift_ = kNoShift;
    /// numSets x assoc tags, each set most-recently-used first
    std::vector<uint64_t> tags_;
    CacheStats stats_;
};

} // namespace rppm

#endif // RPPM_SIM_SIM_CACHE_HH
