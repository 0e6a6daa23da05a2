/**
 * @file
 * Unit tests for src/cache: LRU set-associative behaviour, hierarchy
 * latencies, and MESI-style write invalidation; plus a differential of
 * the simulator's SimCache replica against Cache.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "sim/sim_cache.hh"

namespace rppm {
namespace {

CacheConfig
tinyCache(uint32_t size_bytes, uint32_t assoc)
{
    return CacheConfig{"tiny", size_bytes, assoc, 64, 1};
}

TEST(Cache, FirstAccessMisses)
{
    Cache c(tinyCache(1024, 2));
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_EQ(c.stats().misses, 1u);
    EXPECT_EQ(c.stats().accesses, 1u);
}

TEST(Cache, SecondAccessHits)
{
    Cache c(tinyCache(1024, 2));
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1020, false)); // same 64B line
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way, 64B lines, 256B total => 2 sets. Lines mapping to set 0:
    // line numbers 0, 2, 4 (addresses 0x0, 0x80, 0x100).
    Cache c(tinyCache(256, 2));
    c.access(0x000, false);
    c.access(0x080, false);
    // Touch 0x000 so 0x080 becomes LRU.
    c.access(0x000, false);
    // Fill a third line in set 0: must evict 0x080.
    c.access(0x100, false);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x080));
    EXPECT_TRUE(c.contains(0x100));
}

TEST(Cache, AssociativityConflicts)
{
    // Direct-mapped: two lines mapping to the same set evict each other.
    Cache c(tinyCache(128, 1)); // 2 sets
    c.access(0x000, false);
    c.access(0x080, false); // same set as 0x000
    EXPECT_FALSE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x080));
}

TEST(Cache, FullyAssociativeHoldsWorkingSet)
{
    Cache c(tinyCache(1024, 16)); // fully associative, 16 lines
    for (uint64_t i = 0; i < 16; ++i)
        c.access(i * 64, false);
    for (uint64_t i = 0; i < 16; ++i)
        EXPECT_TRUE(c.contains(i * 64)) << i;
    // One more line evicts exactly the LRU (line 0).
    c.access(16 * 64, false);
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(64));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(tinyCache(1024, 2));
    c.access(0x1000, false);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000)); // already gone
    EXPECT_EQ(c.stats().invalidations, 1u);
}

TEST(Cache, FlushEmptiesEverything)
{
    Cache c(tinyCache(1024, 2));
    for (uint64_t i = 0; i < 8; ++i)
        c.access(i * 64, false);
    c.flush();
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_FALSE(c.contains(i * 64));
}

TEST(Cache, MissRateStat)
{
    Cache c(tinyCache(1024, 2));
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    EXPECT_DOUBLE_EQ(c.stats().missRate(), 0.25);
}

/** Property: for the same trace, a larger fully-associative LRU cache
 *  never misses more (LRU inclusion property). */
class CacheInclusionTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(CacheInclusionTest, LargerCacheNeverWorse)
{
    const uint32_t lines_small = GetParam();
    Cache small(tinyCache(lines_small * 64, lines_small));
    Cache big(tinyCache(lines_small * 2 * 64, lines_small * 2));
    uint64_t seed = 12345;
    for (int i = 0; i < 20000; ++i) {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t addr = (seed >> 33) % (lines_small * 8) * 64;
        small.access(addr, false);
        big.access(addr, false);
    }
    EXPECT_LE(big.stats().misses, small.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheInclusionTest,
                         ::testing::Values(4, 8, 16, 32, 64));

// ----------------------------------------------------------- SimCache ---

/**
 * Seeded differential: drive a SimCache and a Cache with one random
 * stream of reads, writes and invalidations over three times as many
 * lines as the cache holds (so hits, misses, evictions and invalidations
 * of both present and absent lines all occur), and require the same
 * answer on every call and the same final statistics.
 */
void
expectSimCacheMatchesCache(const CacheConfig &cfg, uint64_t seed)
{
    Cache ref(cfg);
    SimCache sim(cfg);
    Rng rng(seed);
    const uint64_t span = uint64_t{3} * cfg.numLines();
    const uint64_t base = uint64_t{1} << 40; // wide tags
    uint64_t hits = 0;
    uint64_t invalidated = 0;
    for (int i = 0; i < 60000; ++i) {
        const uint64_t line = rng.nextBounded(span);
        const uint64_t offset = rng.nextBounded(cfg.lineBytes);
        const uint64_t addr = base + line * cfg.lineBytes + offset;
        const uint64_t pick = rng.nextBounded(8);
        if (pick == 0) {
            const bool inv = ref.invalidate(addr);
            ASSERT_EQ(sim.invalidateLine(sim.lineOf(addr)), inv)
                << "call " << i;
            invalidated += inv;
        } else {
            const bool hit = ref.access(addr, pick < 3);
            ASSERT_EQ(sim.access(addr, pick < 3), hit) << "call " << i;
            hits += hit;
        }
    }
    EXPECT_EQ(sim.stats().accesses, ref.stats().accesses);
    EXPECT_EQ(sim.stats().misses, ref.stats().misses);
    EXPECT_EQ(sim.stats().invalidations, ref.stats().invalidations);
    // The stream must exercise every path, not just one.
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(ref.stats().misses, 1000u);
    EXPECT_GT(invalidated, 100u);
}

TEST(SimCache, MatchesCacheDirectMapped)
{
    expectSimCacheMatchesCache({"dm", 8 * 1024, 1, 64, 1}, 11);
}

TEST(SimCache, MatchesCacheFullyAssociative)
{
    expectSimCacheMatchesCache({"fa", 64 * 64, 64, 64, 1}, 12);
}

TEST(SimCache, MatchesCacheEightWay)
{
    expectSimCacheMatchesCache({"l2", 256 * 1024, 8, 64, 1}, 13);
}

TEST(SimCache, MatchesCacheNonPowerOfTwoSets)
{
    // 24 KiB 4-way: 96 sets, so set index and tag take the division path.
    expectSimCacheMatchesCache({"l1d24k", 24 * 1024, 4, 64, 1}, 14);
}

TEST(SimCache, MatchesCacheNonPowerOfTwoLine)
{
    // 48-byte lines: the address-to-line step divides too.
    expectSimCacheMatchesCache({"line48", 48 * 4 * 128, 4, 48, 1}, 15);
}

// ----------------------------------------------------- CacheHierarchy ---

MulticoreConfig
smallHierarchyConfig()
{
    MulticoreConfig cfg = baseConfig();
    cfg.setNumCores(2);
    cfg.eachCore([](CoreConfig &c) {
        c.l1d = {"L1D", 1024, 2, 64, 3};
        c.l1i = {"L1I", 1024, 2, 64, 1};
        c.l2 = {"L2", 4096, 4, 64, 10};
        c.memLatency = 200;
    });
    cfg.llc = {"LLC", 16384, 8, 64, 30};
    return cfg;
}

TEST(Hierarchy, LatencyPerLevel)
{
    CacheHierarchy h(smallHierarchyConfig());
    // Cold: memory access.
    auto r = h.dataAccess(0, 0x10000, false);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_EQ(r.latency, 3u + 10u + 30u + 200u);
    // Now everything is filled: L1 hit.
    r = h.dataAccess(0, 0x10000, false);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_EQ(r.latency, 3u);
}

TEST(Hierarchy, L2ServesL1Victims)
{
    CacheHierarchy h(smallHierarchyConfig());
    // L1D: 16 lines. Touch 17 distinct lines: line 0 falls to L2.
    for (uint64_t i = 0; i <= 16; ++i)
        h.dataAccess(0, i * 64, false);
    const auto r = h.dataAccess(0, 0, false);
    EXPECT_EQ(r.level, HitLevel::L2);
    EXPECT_EQ(r.latency, 3u + 10u);
}

TEST(Hierarchy, SharedLlcServesRemoteData)
{
    CacheHierarchy h(smallHierarchyConfig());
    h.dataAccess(0, 0x40000, false); // core 0 brings line into LLC
    const auto r = h.dataAccess(1, 0x40000, false);
    // Core 1 misses privately but hits the shared LLC: positive
    // interference across threads.
    EXPECT_EQ(r.level, HitLevel::LLC);
}

TEST(Hierarchy, WriteInvalidatesRemoteCopies)
{
    CacheHierarchy h(smallHierarchyConfig());
    h.dataAccess(0, 0x40000, false);
    h.dataAccess(1, 0x40000, false); // both cores now cache the line
    h.dataAccess(1, 0x40000, false); // L1 hit for core 1
    EXPECT_EQ(h.coreStats(1).l1dMisses, 1u);

    // Core 0 writes: core 1's copies must be invalidated.
    h.dataAccess(0, 0x40000, true);
    const auto r = h.dataAccess(1, 0x40000, false);
    EXPECT_NE(r.level, HitLevel::L1);
    EXPECT_TRUE(r.coherenceMiss);
    EXPECT_GE(h.coreStats(1).invalidationsReceived, 1u);
    EXPECT_GE(h.coreStats(1).coherenceMisses, 1u);
}

TEST(Hierarchy, NoSelfInvalidation)
{
    CacheHierarchy h(smallHierarchyConfig());
    h.dataAccess(0, 0x40000, true);
    const auto r = h.dataAccess(0, 0x40000, false);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_FALSE(r.coherenceMiss);
    EXPECT_EQ(h.coreStats(0).invalidationsReceived, 0u);
}

TEST(Hierarchy, InstrFetchHitIsFree)
{
    CacheHierarchy h(smallHierarchyConfig());
    EXPECT_GT(h.instrFetch(0, 0x400), 0u); // cold
    EXPECT_EQ(h.instrFetch(0, 0x400), 0u); // warm
    EXPECT_EQ(h.coreStats(0).l1iMisses, 1u);
    EXPECT_EQ(h.coreStats(0).l1iAccesses, 2u);
}

TEST(Hierarchy, StatsTrackPerCore)
{
    CacheHierarchy h(smallHierarchyConfig());
    h.dataAccess(0, 0x100, false);
    h.dataAccess(0, 0x100, false);
    h.dataAccess(1, 0x200, true);
    EXPECT_EQ(h.coreStats(0).l1dAccesses, 2u);
    EXPECT_EQ(h.coreStats(0).l1dMisses, 1u);
    EXPECT_EQ(h.coreStats(1).l1dAccesses, 1u);
}

} // namespace
} // namespace rppm
