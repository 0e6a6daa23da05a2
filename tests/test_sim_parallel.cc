/**
 * @file
 * Differential tests for the columnar and parallel simulator engines.
 *
 * The contract under test is absolute: simulate() on a ColumnarTrace —
 * sequential or with any SimOptions::jobs — must produce a SimResult
 * *byte-identical* to simulateLegacy()'s, on every kernel of the
 * workload suite, under custom scheduler/architecture options, and in
 * every dispatch corner (single thread, bus-coupled hierarchy, jobs
 * clamping). Equality is asserted through a deterministic hexfloat dump
 * of every SimResult field, so even a 1-ulp drift in any thread's
 * finish time, CPI component, activity interval or cache counter fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "sim/simulator.hh"
#include "trace/columnar.hh"
#include "trace/trace_builder.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

/** Deterministic dump of every SimResult field (hexfloat: equality
 *  means bit-equality for every double). */
std::string
dumpResult(const SimResult &r)
{
    std::ostringstream ss;
    ss << std::hexfloat;
    ss << r.workload << ' ' << r.config << ' ' << r.totalCycles << ' '
       << r.totalSeconds << '\n';
    for (const ThreadResult &t : r.threads) {
        ss << t.finishTime << ' ' << t.finishSeconds << ' '
           << t.activeCycles << ' ' << t.syncCycles << ' ' << t.core
           << ' ' << t.instructions << '\n';
        for (size_t c = 0; c < kNumCpiComponents; ++c)
            ss << t.cpi[static_cast<CpiComponent>(c)] << ' ';
        ss << '\n';
        for (const ActivityInterval &a : t.activity)
            ss << a.begin << ',' << a.end << ' ';
        ss << '\n';
    }
    for (const CoreMemStats &m : r.mem) {
        ss << m.l1iAccesses << ' ' << m.l1iMisses << ' ' << m.l1dAccesses
           << ' ' << m.l1dMisses << ' ' << m.l2Accesses << ' '
           << m.l2Misses << ' ' << m.llcAccesses << ' ' << m.llcMisses
           << ' ' << m.coherenceMisses << ' ' << m.invalidationsReceived
           << '\n';
    }
    for (const BranchStats &b : r.branch)
        ss << b.lookups << ' ' << b.mispredicts << '\n';
    return ss.str();
}

/** Suite spec scaled down so 26 kernels x several job counts stay fast
 *  (also under sanitizers); all synchronization structure is
 *  preserved. */
WorkloadSpec
scaledSpec(const SuiteEntry &entry, uint64_t divisor = 30)
{
    WorkloadSpec spec = entry.spec;
    spec.opsPerEpoch = std::max<uint64_t>(1, spec.opsPerEpoch / divisor);
    spec.initOps = std::max<uint64_t>(1, spec.initOps / divisor);
    spec.finalOps = std::max<uint64_t>(1, spec.finalOps / divisor);
    spec.itemOps = std::max<uint64_t>(1, spec.itemOps / divisor);
    return spec;
}

/** A structurally rich workload: barriers, critical sections, a
 *  producer-consumer queue, shared data, coherence traffic. */
WorkloadSpec
richSpec(const char *name = "sim-par-test")
{
    WorkloadSpec spec = barrierLoopSpec(4, 5, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.queueItems = 6;
    spec.kernel.sharedFrac = 0.25;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

const unsigned kJobCounts[] = {1, 2, 4, 7};

TEST(ParallelSimulator, BitIdenticalOnEveryKernelForEveryJobCount)
{
    // The tentpole guarantee: on all 26 suite kernels, the columnar
    // engine and the phased parallel engine dump byte-for-byte
    // identically to the legacy AoS reference, for every tested job
    // count (including the sequential columnar path itself, jobs = 1).
    const MulticoreConfig cfg = baseConfig();
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = scaledSpec(entry);
        const WorkloadTrace trace = generateWorkload(spec);
        const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
        const std::string legacy = dumpResult(simulateLegacy(trace, cfg));
        for (const unsigned jobs : kJobCounts) {
            SimOptions opts;
            opts.jobs = jobs;
            // EXPECT_TRUE rather than EXPECT_EQ: on failure gtest would
            // try to print two multi-hundred-kB strings.
            EXPECT_TRUE(dumpResult(simulate(cols, cfg, opts)) == legacy)
                << spec.name << " jobs=" << jobs;
        }
    }
}

TEST(ParallelSimulator, BitIdenticalUnderCustomOptions)
{
    // Options and architectures that change the simulated interleaving
    // or the sharding geometry must keep every engine identical: the
    // schedule replay honors the quantum and the sync cost, the shard
    // partition honors non-default line sizes and set counts that are
    // not powers of two, and heterogeneous machines exercise per-thread
    // time scales and per-slot cache parameters.
    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);

    struct Variant
    {
        const char *name;
        MulticoreConfig cfg;
        SimOptions opts;
    };
    std::vector<Variant> variants;
    variants.push_back({"base", baseConfig(), {}});
    {
        SimOptions opts;
        opts.quantum = 17;
        variants.push_back({"quantum17", baseConfig(), opts});
    }
    {
        SimOptions opts;
        opts.syncOpCost = 7.5;
        variants.push_back({"syncCost", baseConfig(), opts});
    }
    {
        MulticoreConfig cfg = baseConfig();
        for (CoreConfig &core : cfg.cores) {
            core.l1i.lineBytes = 256;
            core.l1d.lineBytes = 256;
            core.l2.lineBytes = 256;
        }
        cfg.llc.lineBytes = 256;
        variants.push_back({"line256", cfg, {}});
    }
    variants.push_back({"bigLittle", bigLittleConfig(2, 2), {}});
    for (const uint32_t line : {64u, 48u}) {
        // 96 L1, 768 L2 and 12288 LLC sets: the caches take their
        // division path and the shard count is capped at the sets'
        // power-of-two factor; 48-byte lines make the address-to-line
        // step a division too.
        MulticoreConfig cfg = baseConfig();
        cfg.eachCore([line](CoreConfig &c) {
            c.l1i = {"L1I", line * 4 * 96, 4, line, 1};
            c.l1d = {"L1D", line * 4 * 96, 4, line, 3};
            c.l2 = {"L2", line * 8 * 768, 8, line, 10};
        });
        cfg.llc = {"LLC", line * 16 * 12288, 16, line, 30};
        variants.push_back({line == 64 ? "sets96" : "sets96line48", cfg, {}});
    }

    for (const Variant &v : variants) {
        const std::string legacy =
            dumpResult(simulateLegacy(trace, v.cfg, v.opts));
        for (const unsigned jobs : kJobCounts) {
            SimOptions opts = v.opts;
            opts.jobs = jobs;
            EXPECT_TRUE(dumpResult(simulate(cols, v.cfg, opts)) == legacy)
                << v.name << " jobs=" << jobs;
        }
    }
}

TEST(ParallelSimulator, BitIdenticalOnMachinesWiderThanTheSharerMask)
{
    // The hierarchy's coherence directory packs a sharer mask for up to
    // 56 cores; wider machines probe every core on a write instead. 56
    // cores is the widest packed machine, 57 the narrowest wide one and
    // 66 is past a whole 64-bit word. Every core runs a thread that
    // writes shared data, so the cores above the mask both issue and
    // receive invalidations.
    for (const uint32_t cores : {56u, 57u, 66u}) {
        WorkloadSpec spec = barrierLoopSpec(cores, 2, 300);
        spec.name = "wide";
        spec.csPerEpoch = 1;
        spec.kernel.sharedFrac = 0.3;
        spec.kernel.sharedBytes = 16 << 10;
        MulticoreConfig cfg = baseConfig();
        cfg.setNumCores(cores);
        const WorkloadTrace trace = generateWorkload(spec);
        const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
        const SimResult ref = simulateLegacy(trace, cfg);
        uint64_t high_invalidations = 0;
        for (uint32_t c = 55; c < cores; ++c)
            high_invalidations += ref.mem[c].invalidationsReceived;
        EXPECT_GT(high_invalidations, 0u) << cores << " cores";
        const std::string legacy = dumpResult(ref);
        for (const unsigned jobs : kJobCounts) {
            SimOptions opts;
            opts.jobs = jobs;
            EXPECT_TRUE(dumpResult(simulate(cols, cfg, opts)) == legacy)
                << cores << " cores jobs=" << jobs;
        }
    }
}

TEST(ParallelSimulator, BusCoupledConfigFallsBackAndStaysIdentical)
{
    // memBusCycles > 0 couples cache latency to global time, which the
    // sharded replay cannot honor; the dispatcher must route such
    // configs to the sequential engine for every job count — still
    // byte-identical to the legacy reference.
    MulticoreConfig cfg = baseConfig();
    cfg.memBusCycles = 12;
    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    const std::string legacy = dumpResult(simulateLegacy(trace, cfg));
    for (const unsigned jobs : kJobCounts) {
        SimOptions opts;
        opts.jobs = jobs;
        EXPECT_TRUE(dumpResult(simulate(cols, cfg, opts)) == legacy)
            << "bus jobs=" << jobs;
    }
}

TEST(ParallelSimulator, SingleThreadedTraceIsIdenticalAtAnyJobCount)
{
    // A 1-thread trace has nothing to overlap; the dispatcher runs it
    // sequentially no matter what jobs says, and the result matches.
    WorkloadTrace trace;
    trace.name = "solo";
    trace.threads.resize(1);
    ThreadTraceBuilder main(trace.threads[0]);
    for (uint64_t i = 0; i < 5000; ++i) {
        main.op(OpClass::IntAlu, 4 * static_cast<uint32_t>(i % 96));
        if (i % 3 == 0)
            main.load(64 * (i % 512), 4 * static_cast<uint32_t>(i % 96));
        if (i % 7 == 0)
            main.branch(4 * static_cast<uint32_t>(i % 96), i % 2 == 0);
    }
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    const std::string legacy =
        dumpResult(simulateLegacy(trace, baseConfig()));
    for (const unsigned jobs : kJobCounts) {
        SimOptions opts;
        opts.jobs = jobs;
        EXPECT_TRUE(dumpResult(simulate(cols, baseConfig(), opts)) ==
                    legacy)
            << "1-thread jobs=" << jobs;
    }
}

TEST(ParallelSimulator, AosOverloadRoutesThroughColumnar)
{
    // The WorkloadTrace overload converts and forwards; it must equal
    // both the explicit columnar call and the legacy engine.
    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    const std::string via_aos = dumpResult(simulate(trace, baseConfig()));
    EXPECT_EQ(via_aos, dumpResult(simulate(cols, baseConfig())));
    EXPECT_TRUE(via_aos == dumpResult(simulateLegacy(trace, baseConfig())));
}

TEST(ParallelSimulator, JobsZeroMeansAllHardwareThreads)
{
    // jobs = 0 resolves to the hardware thread count; whatever that is
    // on the host, the result bits cannot change.
    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    SimOptions opts;
    opts.jobs = 0;
    EXPECT_TRUE(dumpResult(simulate(cols, baseConfig(), opts)) ==
                dumpResult(simulateLegacy(trace, baseConfig())));
}

TEST(ParallelSimulator, RejectsZeroQuantum)
{
    const WorkloadTrace trace = generateWorkload(richSpec());
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(trace);
    SimOptions opts;
    opts.quantum = 0;
    EXPECT_THROW(simulate(cols, baseConfig(), opts), std::invalid_argument);
    EXPECT_THROW(simulateLegacy(trace, baseConfig(), opts),
                 std::invalid_argument);
}

} // namespace
} // namespace rppm
