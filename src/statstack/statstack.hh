/**
 * @file
 * StatStack: statistical LRU cache modeling from reuse distances
 * (Eklov & Hagersten, ISPASS 2010), including the multi-threaded
 * extension the paper uses (Ahlman's thesis [1]).
 *
 * Reuse distance (accesses between two touches of the same line) is cheap
 * to collect; stack distance (unique lines in between, which determines
 * LRU hits) is expensive. StatStack converts between them statistically:
 * for an access with reuse distance D, the expected stack distance is
 *
 *     sd(D) = sum_{j=1..D} P(reuse distance of an interior access > j)
 *           = sum_{j=1..D} survival(j)
 *
 * i.e. the expected number of interior accesses whose own reuse extends
 * past the window end — exactly the accesses contributing unique lines.
 * The miss rate of a fully-associative LRU cache with L lines is then the
 * fraction of accesses whose expected stack distance exceeds L, plus cold
 * misses (infinite reuse distances).
 *
 * For multi-threaded workloads the same machinery runs on two reuse
 * distance flavours (paper Fig. 2): per-thread distributions predict the
 * private L1/L2, and global interleaved distributions predict the shared
 * LLC, capturing both positive (sharing) and negative (capacity)
 * interference. Coherence write-invalidations appear as infinite
 * per-thread reuse distances and therefore as guaranteed misses.
 */

#ifndef RPPM_STATSTACK_STATSTACK_HH
#define RPPM_STATSTACK_STATSTACK_HH

#include <array>
#include <cstdint>

#include "common/histogram.hh"

namespace rppm {

/**
 * StatStack model built from one reuse-distance distribution.
 *
 * Construction precomputes the suffix counts and survival prefix sums
 * over the histogram's log buckets into fixed arrays, so building a
 * model allocates nothing, stackDistance() is O(1) and missRate() is
 * O(log #buckets).
 */
class StatStack
{
  public:
    /** Build from a reuse-distance histogram (may be empty). Only the
     *  derived tables are kept; the histogram need not outlive the
     *  model. */
    explicit StatStack(const LogHistogram &reuse_distances);

    /** Expected stack distance for an access with reuse distance @p rd. */
    double stackDistance(uint64_t rd) const;

    /**
     * Predicted miss rate of a fully-associative LRU cache with
     * @p cache_lines lines, including cold misses.
     */
    double missRate(uint64_t cache_lines) const;

    /**
     * Smallest reuse distance whose expected stack distance reaches
     * @p cache_lines — accesses with larger reuse distances miss.
     */
    uint64_t criticalReuseDistance(uint64_t cache_lines) const;

    /** True when no finite samples were available. */
    bool empty() const { return finite_ == 0; }

  private:
    static constexpr size_t kBuckets = LogHistogram::numBuckets();

    /** Samples in bucket @p idx, recovered from the suffix counts. */
    uint64_t
    countAt(size_t idx) const
    {
        return idx == 0 ? total_ - suffixCounts_[0]
                        : suffixCounts_[idx - 1] - suffixCounts_[idx];
    }

    /**
     * LogHistogram::survival(@p value) for a finite @p value in bucket
     * @p idx, computed from the suffix counts in O(1) instead of
     * re-walking the histogram. Bit-identical: the suffix sums are
     * exact integer arithmetic and the interpolation is the same
     * expression.
     */
    double survival(size_t idx, uint64_t value) const;

    /**
     * survival() at the midpoint of bucket @p idx — this is what makes
     * construction O(#buckets) rather than O(#buckets^2).
     */
    double
    survivalAtBucketMid(size_t idx) const
    {
        return survival(idx, LogHistogram::bucketMid(idx));
    }

    uint64_t total_;
    uint64_t finite_;
    uint64_t infinite_;
    // suffixCounts_[i]: infinite samples plus all finite samples in
    // buckets strictly after i.
    std::array<uint64_t, kBuckets> suffixCounts_;
    // survivalPrefix_[i]: sum over j in [0, bucketHi(i)] of survival(j),
    // i.e. the expected stack distance of a reuse distance at the end of
    // bucket i. Interpolated within buckets on query.
    std::array<double, kBuckets> survivalPrefix_;
};

} // namespace rppm

#endif // RPPM_STATSTACK_STATSTACK_HH
