#include "statstack/statstack.hh"

#include <algorithm>
#include <cmath>

namespace rppm {

StatStack::StatStack(const LogHistogram &reuse_distances)
    : total_(reuse_distances.total()),
      finite_(reuse_distances.totalFinite()),
      infinite_(reuse_distances.totalInfinite())
{
    // Suffix counts first: suffixCounts_[i] holds the infinite samples
    // plus every finite sample in buckets > i. This is the "samples
    // whose reuse extends past here" count that survival() would
    // otherwise re-accumulate per query, turning the constructor from
    // O(#buckets^2) into O(#buckets). Integer sums are exact, so the
    // survival values derived from them are bit-identical to
    // LogHistogram::survival().
    uint64_t above = infinite_;
    for (size_t i = kBuckets; i-- > 0;) {
        suffixCounts_[i] = above;
        above += reuse_distances.bucketCount(i);
    }

    // Precompute expected stack distance at each bucket boundary:
    //   sd(D) = sum_{j=1..D} survival(j).
    // Within a bucket the survival function is (piecewise) constant in
    // our representation, so the prefix sum advances linearly and can be
    // interpolated exactly on query.
    double prefix = 0.0;
    for (size_t i = 0; i < kBuckets; ++i) {
        const uint64_t lo = LogHistogram::bucketLo(i);
        const uint64_t hi = LogHistogram::bucketHi(i);
        // Representative survival within this bucket, evaluated at the
        // bucket midpoint.
        const double surv = survivalAtBucketMid(i);
        prefix += surv * static_cast<double>(hi - lo + 1);
        survivalPrefix_[i] = prefix;
    }
}

double
StatStack::survival(size_t idx, uint64_t value) const
{
    // Mirrors LogHistogram::survival(value) branch for branch, with the
    // bucket scan replaced by the precomputed suffix counts.
    if (total_ == 0)
        return 0.0;
    if (finite_ == 0)
        return static_cast<double>(infinite_) / static_cast<double>(total_);

    const uint64_t above = suffixCounts_[idx];
    const uint64_t lo = LogHistogram::bucketLo(idx);
    const uint64_t hi = LogHistogram::bucketHi(idx);
    // Within the containing bucket, interpolate linearly: assume samples
    // are spread uniformly across the bucket's value range.
    const double width = static_cast<double>(hi - lo) + 1.0;
    const double frac_above = static_cast<double>(hi - value) / width;
    const double partial = static_cast<double>(countAt(idx)) * frac_above;
    return (static_cast<double>(above) + partial) /
        static_cast<double>(total_);
}

double
StatStack::stackDistance(uint64_t rd) const
{
    if (rd == LogHistogram::kInfinity)
        return static_cast<double>(LogHistogram::kInfinity);
    if (total_ == 0)
        return static_cast<double>(rd);
    const size_t idx = LogHistogram::bucketIndex(rd);
    const uint64_t lo = LogHistogram::bucketLo(idx);
    const double below = idx > 0 ? survivalPrefix_[idx - 1] : 0.0;
    const double surv = survivalAtBucketMid(idx);
    return below + surv * static_cast<double>(rd - lo + 1);
}

uint64_t
StatStack::criticalReuseDistance(uint64_t cache_lines) const
{
    // Binary search over bucket boundaries for the first reuse distance
    // whose expected stack distance reaches cache_lines.
    const double target = static_cast<double>(cache_lines);
    size_t lo = 0, hi = kBuckets;
    while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (survivalPrefix_[mid] < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo >= kBuckets)
        return LogHistogram::kInfinity;
    // Interpolate within the bucket.
    const uint64_t blo = LogHistogram::bucketLo(lo);
    const uint64_t bhi = LogHistogram::bucketHi(lo);
    const double below = lo > 0 ? survivalPrefix_[lo - 1] : 0.0;
    const double surv = survivalAtBucketMid(lo);
    if (surv <= 0.0)
        return bhi;
    const double offset = (target - below) / surv;
    const uint64_t rd = blo + static_cast<uint64_t>(std::max(0.0, offset));
    return std::min(rd, bhi);
}

double
StatStack::missRate(uint64_t cache_lines) const
{
    if (total_ == 0)
        return 0.0;
    // An access misses when its expected stack distance exceeds the
    // cache's line count; cold accesses (infinite reuse distance) always
    // miss. survival() interpolates within the critical bucket, so this
    // directly yields the miss fraction.
    const uint64_t critical = criticalReuseDistance(cache_lines);
    if (critical == LogHistogram::kInfinity) {
        return static_cast<double>(infinite_) /
            static_cast<double>(total_);
    }
    return survival(LogHistogram::bucketIndex(critical), critical);
}

} // namespace rppm
