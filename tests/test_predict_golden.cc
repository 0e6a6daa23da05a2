/**
 * @file
 * Cross-version golden digest of the memoized predictor.
 *
 * test_predict_memo proves that predictGrid and predictLegacyGrid agree
 * with each other. Both paths share StatStack, the micro-trace replay
 * and the sync model, so a change that shifts a shared layer moves both
 * paths at once and passes that test. This test pins the numbers
 * themselves: a 64-bit digest over the raw bits of every total cycle
 * count, per-thread finish time and CPI-stack component that
 * predictGrid returns for three Parsec kernels at scale 0.1 on the
 * 38-point sweep grid (Table IV, a DVFS ladder on Base, every placement
 * on a 2+2 big.LITTLE machine), plus one decompose=false run and one
 * llcUsesGlobalRd=false run.
 *
 * An intended change to any prediction must update kGoldenDigest and
 * say why in the change log.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.hh"
#include "profile/profiler.hh"
#include "rppm/memo.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

constexpr uint64_t kGoldenDigest = 0x857cb2876d20d3caull;

/** FNV-1a over 64-bit words. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    word(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void f64(double v) { word(std::bit_cast<uint64_t>(v)); }

    void
    stack(const CpiStack &s)
    {
        for (size_t c = 0; c < kNumCpiComponents; ++c)
            f64(s[static_cast<CpiComponent>(c)]);
    }

    void
    prediction(const RppmPrediction &p)
    {
        f64(p.totalCycles);
        for (double s : p.threadSeconds)
            f64(s);
        for (const ThreadPrediction &t : p.threads) {
            stack(t.stack);
            for (const EpochPrediction &e : t.epochs)
                stack(e.stack);
        }
    }
};

/** The bench harnesses' scale rule (bench::scaleSpec). */
WorkloadSpec
scaled(WorkloadSpec spec, double scale)
{
    auto mul = [scale](uint64_t v) {
        return std::max<uint64_t>(
            1, static_cast<uint64_t>(static_cast<double>(v) * scale));
    };
    spec.opsPerEpoch = mul(spec.opsPerEpoch);
    spec.initOps = mul(spec.initOps);
    spec.finalOps = mul(spec.finalOps);
    spec.itemOps = mul(spec.itemOps);
    return spec;
}

/** Table IV, a 27-point DVFS ladder on Base and every placement on a
 *  2+2 big.LITTLE machine: 38 points for a 4-thread kernel. */
std::vector<MulticoreConfig>
sweepConfigs(uint32_t numThreads)
{
    std::vector<MulticoreConfig> grid = tableIvConfigs();
    const MulticoreConfig base = baseConfig();
    const double levels[] = {1.67, 2.5, 3.33};
    for (double a : levels) {
        for (double b : levels) {
            for (double c : levels) {
                char name[48];
                std::snprintf(name, sizeof name, "dvfs-%.2f-%.2f-%.2f", a,
                              b, c);
                grid.push_back(dvfsConfig(base, {2.5, a, b, c}, name));
            }
        }
    }
    for (const MulticoreConfig &m :
         mappingSweep(bigLittleConfig(2, 2), numThreads))
        grid.push_back(m);
    return grid;
}

/** A Parsec kernel at the benchmark's scale, profiled. */
WorkloadProfile
parsecProfile(const char *name)
{
    const auto entry = findBenchmark(name);
    EXPECT_TRUE(entry.has_value()) << name;
    return profileWorkload(generateWorkload(scaled(entry->spec, 0.1)));
}

TEST(PredictGolden, DigestOfParsecSweepIsPinned)
{
    Digest digest;
    size_t cells = 0;
    for (const char *name : {"Facesim", "Fluidanimate", "Vips"}) {
        const WorkloadProfile prof = parsecProfile(name);
        const std::vector<MulticoreConfig> grid =
            sweepConfigs(prof.numThreads);
        EXPECT_EQ(grid.size(), 38u) << name;

        std::vector<RppmOptions> variants(1);
        if (std::string(name) == "Fluidanimate") {
            RppmOptions fast;
            fast.eq1.decompose = false;
            variants.push_back(fast);
            RppmOptions local;
            local.eq1.llcUsesGlobalRd = false;
            variants.push_back(local);
        }
        for (const RppmOptions &opts : variants) {
            for (const RppmPrediction &p : predictGrid(prof, grid, opts)) {
                digest.prediction(p);
                ++cells;
            }
        }
    }
    EXPECT_EQ(cells, 5u * 38u);
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest.h));
    EXPECT_EQ(digest.h, kGoldenDigest) << "digest " << hex;
}

TEST(PredictGolden, SharedEngineAcrossThreadsMatchesSequential)
{
    // Several workers share one engine, as Study and rppmd workers do:
    // the shared EpochStacks, each thread's replay scratch and the
    // engine's byte counter all run concurrently. Every cell and the
    // final footprint must match a sequential pass.
    auto prof = std::make_shared<const WorkloadProfile>(
        parsecProfile("Fluidanimate"));
    const std::vector<MulticoreConfig> grid = sweepConfigs(prof->numThreads);

    PredictionMemo sequential(prof);
    std::vector<RppmPrediction> expected;
    for (const MulticoreConfig &cfg : grid)
        expected.push_back(sequential.predict(cfg));

    PredictionMemo shared(prof);
    std::vector<RppmPrediction> got(grid.size());
    std::vector<std::thread> workers;
    constexpr size_t kWorkers = 4;
    for (size_t w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            // Each worker walks the grid from its own offset, so cells
            // and memo entries are contended.
            for (size_t i = 0; i < grid.size(); ++i) {
                const size_t c = (i + w * grid.size() / kWorkers) %
                    grid.size();
                RppmPrediction p = shared.predict(grid[c]);
                if (c % kWorkers == w)
                    got[c] = std::move(p);
            }
        });
    }
    for (std::thread &t : workers)
        t.join();

    Digest want, have;
    for (size_t c = 0; c < grid.size(); ++c) {
        want.prediction(expected[c]);
        have.prediction(got[c]);
    }
    EXPECT_EQ(have.h, want.h);
    EXPECT_EQ(shared.approxResidentBytes(),
              sequential.approxResidentBytes());
}

} // namespace
} // namespace rppm
