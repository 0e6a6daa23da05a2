/**
 * @file
 * Unit tests for src/common: RNG determinism and distributions,
 * log-bucketed histogram semantics, running statistics, formatting and
 * the CRC32C kernels behind every artifact checksum.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>
#include <vector>

#include "common/crc32c.hh"
#include "common/histogram.hh"
#include "common/mmap.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "trace/columnar.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

// ---------------------------------------------------------------- Rng ---

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextBoundedStaysInRange)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(12);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, GeometricMeanApproximatelyCorrect)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(8.0));
    EXPECT_NEAR(sum / n, 8.0, 0.25);
}

TEST(Rng, GeometricNeverZero)
{
    Rng rng(14);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(rng.nextGeometric(1.5), 1u);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic)
{
    Rng parent1(5), parent2(5);
    Rng childa = parent1.fork(1);
    Rng childb = parent2.fork(1);
    Rng childc = parent2.fork(2); // different salt after same history?
    // Same parent state + same salt => identical child streams.
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(childa.next(), childb.next());
    // Different salt => different stream.
    Rng parent3(5);
    Rng childd = parent3.fork(99);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += childd.next() == childc.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRange)
{
    Rng rng(21);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextUniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

// -------------------------------------------------------- LogHistogram ---

TEST(LogHistogram, EmptyHistogram)
{
    LogHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.survival(10), 0.0);
    EXPECT_DOUBLE_EQ(h.meanFinite(), 0.0);
}

TEST(LogHistogram, SmallValuesExactBuckets)
{
    // Values below the linear cutoff get exact buckets.
    for (uint64_t v = 0; v < 16; ++v)
        EXPECT_EQ(LogHistogram::bucketMid(LogHistogram::bucketIndex(v)), v);
}

TEST(LogHistogram, BucketBoundsConsistent)
{
    for (size_t i = 0; i + 1 < LogHistogram::numBuckets(); ++i) {
        EXPECT_EQ(LogHistogram::bucketHi(i) + 1, LogHistogram::bucketLo(i + 1))
            << "bucket " << i;
        EXPECT_LE(LogHistogram::bucketLo(i), LogHistogram::bucketMid(i));
        EXPECT_LE(LogHistogram::bucketMid(i), LogHistogram::bucketHi(i));
    }
}

TEST(LogHistogram, BucketIndexMatchesBounds)
{
    for (uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1000ull,
                       123456ull, 999999999ull}) {
        const size_t idx = LogHistogram::bucketIndex(v);
        EXPECT_GE(v, LogHistogram::bucketLo(idx)) << v;
        EXPECT_LE(v, LogHistogram::bucketHi(idx)) << v;
    }
}

TEST(LogHistogram, TotalCounts)
{
    LogHistogram h;
    h.add(3, 5);
    h.add(100, 2);
    h.add(LogHistogram::kInfinity, 3);
    EXPECT_EQ(h.totalFinite(), 7u);
    EXPECT_EQ(h.totalInfinite(), 3u);
    EXPECT_EQ(h.total(), 10u);
}

TEST(LogHistogram, SurvivalBasic)
{
    LogHistogram h;
    h.add(2, 50);
    h.add(1000, 50);
    // Everything above 2 but below 1000's bucket: survival(10) ~ 0.5.
    EXPECT_NEAR(h.survival(10), 0.5, 0.02);
    EXPECT_NEAR(h.survival(0), 1.0, 0.02);
    EXPECT_NEAR(h.survival(1u << 20), 0.0, 0.02);
}

TEST(LogHistogram, SurvivalCountsInfiniteTail)
{
    LogHistogram h;
    h.add(2, 50);
    h.add(LogHistogram::kInfinity, 50);
    EXPECT_NEAR(h.survival(100), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(h.survival(LogHistogram::kInfinity), 0.0);
}

TEST(LogHistogram, SurvivalMonotoneNonIncreasing)
{
    LogHistogram h;
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        h.add(rng.nextBounded(1 << 20));
    double prev = 1.1;
    for (uint64_t v = 0; v < (1u << 20); v += 1337) {
        const double s = h.survival(v);
        EXPECT_LE(s, prev + 1e-12);
        prev = s;
    }
}

TEST(LogHistogram, MeanOfExactValues)
{
    LogHistogram h;
    h.add(4, 10);
    h.add(8, 10);
    EXPECT_DOUBLE_EQ(h.meanFinite(), 6.0);
}

TEST(LogHistogram, MergeAddsCounts)
{
    LogHistogram a, b;
    a.add(5, 3);
    b.add(5, 4);
    b.add(LogHistogram::kInfinity, 2);
    a.merge(b);
    EXPECT_EQ(a.totalFinite(), 7u);
    EXPECT_EQ(a.totalInfinite(), 2u);
}

TEST(LogHistogram, MergeIntoEmpty)
{
    LogHistogram a, b;
    b.add(123, 7);
    a.merge(b);
    EXPECT_EQ(a.totalFinite(), 7u);
}

TEST(LogHistogram, QuantileBasic)
{
    LogHistogram h;
    h.add(1, 25);
    h.add(2, 25);
    h.add(3, 25);
    h.add(4, 25);
    EXPECT_EQ(h.quantile(0.2), 1u);
    EXPECT_EQ(h.quantile(0.95), 4u);
}

TEST(LogHistogram, QuantileInfiniteTail)
{
    LogHistogram h;
    h.add(1, 10);
    h.add(LogHistogram::kInfinity, 90);
    EXPECT_EQ(h.quantile(0.99), LogHistogram::kInfinity);
}

TEST(LogHistogram, ForEachVisitsAllMass)
{
    LogHistogram h;
    h.add(7, 3);
    h.add(70000, 4);
    h.add(LogHistogram::kInfinity, 5);
    uint64_t mass = 0;
    h.forEach([&](uint64_t, uint64_t count) { mass += count; });
    EXPECT_EQ(mass, 12u);
}

// -------------------------------------------------------- RunningStats ---

TEST(RunningStats, Basic)
{
    RunningStats s;
    s.add(1.0);
    s.add(3.0);
    s.add(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Stats, RelativeError)
{
    EXPECT_DOUBLE_EQ(relativeError(110.0, 100.0), 0.1);
    EXPECT_DOUBLE_EQ(relativeError(90.0, 100.0), -0.1);
    EXPECT_DOUBLE_EQ(absRelativeError(90.0, 100.0), 0.1);
    EXPECT_DOUBLE_EQ(relativeError(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(relativeError(5.0, 0.0), 1.0);
}

TEST(Stats, MeanAndMax)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(maxOf({1.0, 5.0, 3.0}), 5.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(maxOf({}), 0.0);
}

// -------------------------------------------------------------- CRC32C ---

/** Bit-at-a-time CRC32C straight from the reflected polynomial: shares
 *  no table or instruction with either library kernel. */
uint32_t
crc32cBitwise(const unsigned char *p, size_t n)
{
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));
    }
    return ~c;
}

/** Seeded random bytes. */
std::vector<unsigned char>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<unsigned char> bytes(n);
    for (unsigned char &b : bytes)
        b = static_cast<unsigned char>(rng.next());
    return bytes;
}

TEST(Crc32c, KnownAnswers)
{
    const char check[] = "123456789";
    EXPECT_EQ(crc32c(check, 9), 0xE3069283u);
    EXPECT_EQ(crc32cExtendPortable(kCrc32cInit, check, 9), 0xE3069283u);
    EXPECT_EQ(crc32c(check, 0), 0u);
    EXPECT_EQ(crc32c(nullptr, 0), kCrc32cInit);
    EXPECT_EQ(crc32cExtendPortable(kCrc32cInit, nullptr, 0), kCrc32cInit);
}

TEST(Crc32c, HardwareKernelChosenWhenCpuHasIt)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    EXPECT_EQ(crc32cUsesHardware(),
              static_cast<bool>(__builtin_cpu_supports("sse4.2")));
#else
    EXPECT_FALSE(crc32cUsesHardware());
#endif
}

TEST(Crc32c, KernelsAgreeAtEveryLengthAndMisalignment)
{
    // The dispatched kernel (hardware where the CPU has it), the
    // portable table walk and the bitwise oracle, over every length
    // 0..300 at every start offset 0..7 from an 8-byte boundary: covers
    // empty input, pure tails, and the 8-byte bulk loop entered
    // unaligned.
    constexpr size_t kMaxLen = 300;
    constexpr size_t kMaxMisalign = 7;
    for (uint64_t seed : {1u, 2u, 3u}) {
        const std::vector<unsigned char> bytes =
            randomBytes(kMaxLen + kMaxMisalign, seed);
        std::vector<uint64_t> storage((bytes.size() + 7) / 8);
        std::memcpy(storage.data(), bytes.data(), bytes.size());
        const auto *base =
            reinterpret_cast<const unsigned char *>(storage.data());
        for (size_t off = 0; off <= kMaxMisalign; ++off) {
            for (size_t len = 0; len <= kMaxLen; ++len) {
                const uint32_t want = crc32cBitwise(base + off, len);
                ASSERT_EQ(crc32c(base + off, len), want)
                    << "seed=" << seed << " off=" << off << " len=" << len;
                ASSERT_EQ(crc32cExtendPortable(kCrc32cInit, base + off, len),
                          want)
                    << "seed=" << seed << " off=" << off << " len=" << len;
            }
        }
    }
}

TEST(Crc32c, ExtendComposesAtEverySplit)
{
    const std::vector<unsigned char> bytes = randomBytes(257, 11);
    const uint32_t whole = crc32cBitwise(bytes.data(), bytes.size());
    for (size_t split = 0; split <= bytes.size(); ++split) {
        const size_t rest = bytes.size() - split;
        EXPECT_EQ(crc32cExtend(crc32c(bytes.data(), split),
                               bytes.data() + split, rest),
                  whole)
            << "split=" << split;
        EXPECT_EQ(crc32cExtendPortable(
                      crc32cExtendPortable(kCrc32cInit, bytes.data(), split),
                      bytes.data() + split, rest),
                  whole)
            << "split=" << split;
    }
}

TEST(Crc32c, TraceFileTrailersAreStable)
{
    // The nine block CRC trailers of each thread of one small seeded
    // trace, as every earlier release wrote them (byte-at-a-time table
    // kernel). A kernel change that moved any stored checksum would
    // make every existing artifact unreadable.
    const uint32_t kGolden[2][9] = {
        {0xEDEBE6CBu, 0xE030817Fu, 0xB60BB721u, 0xCBC5C8F9u, 0xA364EA30u,
         0x107EACEAu, 0xB85461E3u, 0xCA0F511Eu, 0xF7804D49u},
        {0x10DD9731u, 0x6D5AACBAu, 0x4C4A7F1Au, 0x430D2063u, 0xE737377Bu,
         0x10BE0F82u, 0x4173DC68u, 0x6D2BE195u, 0x30912199u},
    };
    WorkloadSpec spec = barrierLoopSpec(2, 3, 400);
    spec.name = "crc-golden";
    spec.seed = 13;
    spec.csPerEpoch = 1;
    const auto path = std::filesystem::temp_directory_path() /
        "rppm-crc-golden.rppmtrc";
    saveTraceToFile(ColumnarTrace::fromWorkload(generateWorkload(spec)),
                    path.string());
    {
        const FdFile file(path.string());
        const TraceFileLayout layout = indexTraceFile(file);
        ASSERT_TRUE(layout.hasBlockCrcs);
        ASSERT_EQ(layout.threads.size(), 2u);
        for (size_t t = 0; t < layout.threads.size(); ++t) {
            const ThreadLayout &th = layout.threads[t];
            const ColumnExtent *cols[9] = {
                &th.op,   &th.pc,      &th.dep1,     &th.dep2,   &th.addr,
                &th.taken, &th.syncPos, &th.syncType, &th.syncArg};
            for (size_t c = 0; c < 9; ++c)
                EXPECT_EQ(cols[c]->crc, kGolden[t][c])
                    << "thread " << t << " column " << c;
        }
        EXPECT_EQ(verifyTraceFileCrcs(file, layout), 18u);
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

// -------------------------------------------------------- TablePrinter ---

TEST(Table, RendersAlignedColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows)
{
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(fmt(1.2345, 2), "1.23");
    EXPECT_EQ(fmtPct(0.112, 1), "11.2%");
    EXPECT_EQ(fmtPct(0.0, 2), "0.00%");
}

TEST(Table, BarChartRenders)
{
    AsciiBarChart chart({"MAIN", "CRIT", "RPPM"}, 20);
    chart.addGroup("bench1", {0.45, 0.28, 0.11});
    const std::string out = chart.render();
    EXPECT_NE(out.find("bench1"), std::string::npos);
    EXPECT_NE(out.find("RPPM"), std::string::npos);
    EXPECT_NE(out.find('#'), std::string::npos);
}

} // namespace
} // namespace rppm
