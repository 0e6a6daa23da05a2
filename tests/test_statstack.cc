/**
 * @file
 * Unit tests for src/statstack: reuse -> stack distance conversion and
 * LRU miss-rate prediction, validated against brute-force stack-distance
 * oracles on synthetic access streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.hh"
#include "common/rng.hh"
#include "statstack/statstack.hh"

namespace rppm {
namespace {

/** Brute-force fully-associative LRU simulation: exact miss count. */
uint64_t
lruMisses(const std::vector<uint64_t> &stream, size_t lines)
{
    std::list<uint64_t> stack;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> where;
    uint64_t misses = 0;
    for (uint64_t line : stream) {
        auto it = where.find(line);
        if (it != where.end()) {
            stack.erase(it->second);
        } else {
            ++misses;
            if (stack.size() >= lines) {
                where.erase(stack.back());
                stack.pop_back();
            }
        }
        stack.push_front(line);
        where[line] = stack.begin();
    }
    return misses;
}

/** Build the reuse-distance histogram of a stream (infinite for colds). */
LogHistogram
reuseHistogram(const std::vector<uint64_t> &stream)
{
    LogHistogram hist;
    std::unordered_map<uint64_t, uint64_t> last;
    for (uint64_t i = 0; i < stream.size(); ++i) {
        auto [it, inserted] = last.try_emplace(stream[i], 0);
        if (inserted)
            hist.add(LogHistogram::kInfinity);
        else
            hist.add(i - it->second - 1);
        it->second = i;
    }
    return hist;
}

TEST(StatStack, SequentialStreamAllCold)
{
    std::vector<uint64_t> stream;
    for (uint64_t i = 0; i < 1000; ++i)
        stream.push_back(i);
    const LogHistogram hist = reuseHistogram(stream);
    StatStack ss(hist);
    // Every access is cold: miss rate 1 regardless of cache size.
    EXPECT_DOUBLE_EQ(ss.missRate(16), 1.0);
    EXPECT_DOUBLE_EQ(ss.missRate(1 << 20), 1.0);
}

TEST(StatStack, TightLoopFitsInCache)
{
    // Cyclic access to 8 lines: after the cold start, everything hits in
    // any cache with >= 8 lines.
    std::vector<uint64_t> stream;
    for (int rep = 0; rep < 1000; ++rep)
        for (uint64_t l = 0; l < 8; ++l)
            stream.push_back(l);
    StatStack ss_hist(reuseHistogram(stream));
    EXPECT_NEAR(ss_hist.missRate(16), 8.0 / 8000.0, 1e-6);
    // And misses everywhere in a cache with fewer lines (cyclic LRU worst
    // case).
    EXPECT_NEAR(ss_hist.missRate(4), 1.0, 0.01);
}

TEST(StatStack, StackDistanceOfUniformStream)
{
    // Cyclic stream over K lines: every non-cold access has reuse
    // distance K-1 and true stack distance K-1.
    constexpr uint64_t kLines = 32;
    std::vector<uint64_t> stream;
    for (int rep = 0; rep < 500; ++rep)
        for (uint64_t l = 0; l < kLines; ++l)
            stream.push_back(l);
    StatStack ss(reuseHistogram(stream));
    EXPECT_NEAR(ss.stackDistance(kLines - 1),
                static_cast<double>(kLines - 1),
                static_cast<double>(kLines) * 0.15);
}

TEST(StatStack, EmptyHistogram)
{
    LogHistogram hist;
    StatStack ss(hist);
    EXPECT_TRUE(ss.empty());
    EXPECT_DOUBLE_EQ(ss.missRate(64), 0.0);
}

TEST(StatStack, ColdOnlyHistogram)
{
    LogHistogram hist;
    hist.add(LogHistogram::kInfinity, 100);
    StatStack ss(hist);
    EXPECT_DOUBLE_EQ(ss.missRate(1024), 1.0);
}

/**
 * missRate() reads survival from StatStack's own suffix counts. It must
 * equal LogHistogram::survival at the critical reuse distance, bit for
 * bit, with cold misses alone when no finite distance reaches the
 * cache. Checked at every bucket boundary as the cache size.
 */
void
expectMissRateIsSurvival(const LogHistogram &hist, const std::string &what)
{
    const StatStack ss(hist);
    std::vector<uint64_t> sizes = {0};
    for (size_t i = 0; i < LogHistogram::numBuckets(); ++i) {
        sizes.push_back(LogHistogram::bucketLo(i));
        sizes.push_back(LogHistogram::bucketHi(i));
    }
    for (uint64_t lines : sizes) {
        const uint64_t critical = ss.criticalReuseDistance(lines);
        double expected = 0.0;
        if (hist.total() == 0)
            expected = 0.0;
        else if (critical == LogHistogram::kInfinity)
            expected = static_cast<double>(hist.totalInfinite()) /
                static_cast<double>(hist.total());
        else
            expected = hist.survival(critical);
        EXPECT_EQ(ss.missRate(lines), expected) << what << " lines "
                                                << lines;
    }
}

TEST(StatStack, MissRateIsSurvivalAtCriticalDistance)
{
    expectMissRateIsSurvival(LogHistogram(), "empty");

    LogHistogram cold;
    cold.add(LogHistogram::kInfinity, 37);
    expectMissRateIsSurvival(cold, "infinite-only");

    LogHistogram first;
    first.add(0, 1000);
    expectMissRateIsSurvival(first, "bucket 0");

    LogHistogram top;
    top.add(LogHistogram::bucketLo(LogHistogram::numBuckets() - 1), 5);
    top.add(LogHistogram::kInfinity - 1, 3);
    expectMissRateIsSurvival(top, "top bucket");

    for (uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        LogHistogram random;
        for (int i = 0; i < 400; ++i) {
            // Log-uniform values over the whole finite range.
            const uint64_t value = rng.next() >> rng.nextBounded(64);
            random.add(std::min(value, LogHistogram::kInfinity - 1),
                       1 + rng.nextBounded(1000));
        }
        random.add(LogHistogram::kInfinity, rng.nextBounded(5000));
        expectMissRateIsSurvival(random, "random " + std::to_string(seed));
    }
}

TEST(StatStack, MissRateMonotoneInCacheSize)
{
    Rng rng(17);
    std::vector<uint64_t> stream;
    for (int i = 0; i < 50000; ++i)
        stream.push_back(rng.nextBounded(4096));
    StatStack ss(reuseHistogram(stream));
    double prev = 1.1;
    for (uint64_t lines = 16; lines <= 16384; lines *= 2) {
        const double miss = ss.missRate(lines);
        EXPECT_LE(miss, prev + 1e-9) << lines;
        prev = miss;
    }
}

TEST(StatStack, CriticalReuseDistanceMonotone)
{
    Rng rng(19);
    std::vector<uint64_t> stream;
    for (int i = 0; i < 30000; ++i)
        stream.push_back(rng.nextBounded(2048));
    StatStack ss(reuseHistogram(stream));
    uint64_t prev = 0;
    for (uint64_t lines = 8; lines <= 4096; lines *= 2) {
        const uint64_t crd = ss.criticalReuseDistance(lines);
        EXPECT_GE(crd, prev);
        prev = crd == LogHistogram::kInfinity ? prev : crd;
    }
}

/**
 * Core accuracy property: StatStack's predicted miss rate matches a
 * brute-force fully-associative LRU simulation on random streams with a
 * range of working-set sizes and cache sizes.
 */
class StatStackAccuracyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>>
{
};

TEST_P(StatStackAccuracyTest, MatchesLruOracle)
{
    const auto [footprint, cache_lines] = GetParam();
    Rng rng(footprint * 131 + cache_lines);
    std::vector<uint64_t> stream;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        // Mix of uniform random over the footprint plus a hot subset, so
        // the reuse distribution is not trivially flat.
        if (rng.nextBool(0.3))
            stream.push_back(rng.nextBounded(std::max<uint64_t>(
                footprint / 16, 1)));
        else
            stream.push_back(rng.nextBounded(footprint));
    }
    const double oracle =
        static_cast<double>(lruMisses(stream, cache_lines)) / n;
    StatStack ss(reuseHistogram(stream));
    const double predicted = ss.missRate(cache_lines);
    EXPECT_NEAR(predicted, oracle, 0.05)
        << "footprint " << footprint << " cache " << cache_lines;
}

INSTANTIATE_TEST_SUITE_P(
    FootprintCacheSweep, StatStackAccuracyTest,
    ::testing::Combine(::testing::Values(256u, 1024u, 4096u, 16384u),
                       ::testing::Values(64u, 256u, 1024u, 4096u)));

TEST(StatStack, CapturesSharingInGlobalDistribution)
{
    // Two interleaved "threads" touching the same lines: the global
    // reuse distance is short even though each thread alone would have a
    // long one — positive interference (paper Fig. 2, address D).
    std::vector<uint64_t> shared_stream;
    for (int rep = 0; rep < 2000; ++rep) {
        // Thread A then thread B touch the same 4 lines alternately.
        for (uint64_t l = 0; l < 4; ++l) {
            shared_stream.push_back(l); // A
            shared_stream.push_back(l); // B
        }
    }
    StatStack ss(reuseHistogram(shared_stream));
    // Half the accesses have reuse distance 0: a tiny cache already
    // captures them.
    EXPECT_LT(ss.missRate(8), 0.02);
}

TEST(StatStack, InvalidationAsInfiniteDistanceRaisesMissRate)
{
    // A thread cycling over 4 lines, but with every second reuse broken
    // by a remote write (recorded as infinite): miss rate ~1/2 even in a
    // large cache.
    LogHistogram hist;
    hist.add(3, 500);
    hist.add(LogHistogram::kInfinity, 500);
    StatStack ss(hist);
    EXPECT_NEAR(ss.missRate(1024), 0.5, 0.01);
}

} // namespace
} // namespace rppm
