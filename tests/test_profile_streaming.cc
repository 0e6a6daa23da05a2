/**
 * @file
 * Differential tests for the multi-worker streaming profiler.
 *
 * The contract under test is absolute: profileWorkloadStreaming() — and
 * its file-backed variant, which never materializes the trace — must
 * produce a profile *bit-identical* to the fused single-pass sweep for
 * every chunk size and every job count, on every kernel of the workload
 * suite, under custom profiler options, and with chunks split into
 * concurrently swept segments. Equality is asserted through the
 * deterministic text serializer. On top of the identity sweep:
 * structural rejection of truncated/corrupt trace files at every prefix
 * length, checksum rejection of a flipped payload byte in every
 * streamed data column, chunk-size exclusion from the profile cache
 * key, and artifact identity across engines.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "study/profile_cache.hh"
#include "study/source.hh"
#include "trace/columnar.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace rppm {
namespace {

std::string
serializeProfileText(const WorkloadProfile &profile)
{
    std::stringstream ss;
    saveProfile(profile, ss);
    return ss.str();
}

/** Suite spec scaled down so 26 kernels x chunk sizes x job counts stay
 *  fast; all synchronization structure is preserved. */
WorkloadSpec
scaledSpec(const SuiteEntry &entry, uint64_t divisor = 20)
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
richSpec(const char *name = "stream-test")
{
    WorkloadSpec spec = barrierLoopSpec(4, 5, 2500);
    spec.name = name;
    spec.csPerEpoch = 2;
    spec.queueItems = 6;
    spec.kernel.sharedFrac = 0.25;
    spec.kernel.branchEntropy = 0.1;
    return spec;
}

/** Chunk targets: degenerate (every chunk is a single quantum slice),
 *  small (thousands of chunks on suite kernels, too short to split into
 *  sweep segments), 3 x 4096 + 17 (with jobs > 1 every chunk splits into
 *  segments whose edges fall at no fixed offset of the thread), and
 *  larger than any test trace (the whole trace is one segmented chunk,
 *  which is what profileWorkload() runs for jobs > 1). */
const uint64_t kChunkSizes[] = {1, 4096, 12305, uint64_t{1} << 30};
/** Serial, two even worker counts, and an odd one. */
const unsigned kJobCounts[] = {1, 2, 4, 7};

class TempTraceFile
{
  public:
    explicit TempTraceFile(const ColumnarTrace &trace)
        : path_(std::filesystem::temp_directory_path() /
                ("rppm-stream-test-" + trace.name + ".rppmtrc"))
    {
        saveTraceToFile(trace, path_.string());
    }

    ~TempTraceFile()
    {
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }

    const std::string path() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

TEST(StreamingProfiler, BitIdenticalOnEveryKernelChunkSizeAndJobCount)
{
    // The tentpole guarantee: on all 26 suite kernels, the streaming
    // engine's profile serializes byte-for-byte identically to the fused
    // sweep's, for every (chunk size, job count) combination.
    for (const SuiteEntry &entry : fullSuite()) {
        const WorkloadSpec spec = scaledSpec(entry);
        const ColumnarTrace cols =
            ColumnarTrace::fromWorkload(generateWorkload(spec));
        const std::string fused =
            serializeProfileText(profileWorkloadFused(cols));
        for (const uint64_t chunk : kChunkSizes) {
            for (const unsigned jobs : kJobCounts) {
                ProfilerOptions opts;
                opts.streamChunkRecords = chunk;
                opts.jobs = jobs;
                // EXPECT_TRUE rather than EXPECT_EQ: on failure gtest
                // would try to print two multi-hundred-kB strings.
                EXPECT_TRUE(serializeProfileText(profileWorkloadStreaming(
                                cols, opts)) == fused)
                    << spec.name << " chunk=" << chunk
                    << " jobs=" << jobs;
            }
        }
    }
}

TEST(StreamingProfiler, FileBackedBitIdentical)
{
    // The out-of-core path: serialize the trace, profile it straight
    // from the file through mapped chunk windows, and require the exact
    // fused bytes — across chunk sizes that force many windows per run.
    const ColumnarTrace cols =
        ColumnarTrace::fromWorkload(generateWorkload(richSpec()));
    const TempTraceFile file(cols);
    const std::string fused =
        serializeProfileText(profileWorkloadFused(cols));
    for (const uint64_t chunk : kChunkSizes) {
        for (const unsigned jobs : kJobCounts) {
            ProfilerOptions opts;
            opts.streamChunkRecords = chunk;
            opts.jobs = jobs;
            EXPECT_TRUE(serializeProfileText(profileWorkloadStreamingFile(
                            file.path(), opts)) == fused)
                << "chunk=" << chunk << " jobs=" << jobs;
        }
    }
}

TEST(StreamingProfiler, BitIdenticalUnderCustomOptions)
{
    // Content-shaping options (sampling policy, quantum, coherence
    // detection, line size) must keep streaming == fused at every chunk
    // size and job count: the schedule replay honors the quantum, the
    // sharded resolution honors detectInvalidation, the segmented sweep
    // honors the sampling windows across every stitch.
    ProfilerOptions base;
    base.quantum = 17;
    base.microTraceLength = 64;
    base.microTraceInterval = 500;

    ProfilerOptions noInval = base;
    noInval.detectInvalidation = false;

    ProfilerOptions bigLines = base;
    bigLines.lineBytes = 256;

    const ColumnarTrace cols =
        ColumnarTrace::fromWorkload(generateWorkload(richSpec()));
    for (const ProfilerOptions &proto : {base, noInval, bigLines}) {
        const std::string fused =
            serializeProfileText(profileWorkloadFused(cols, proto));
        for (const uint64_t chunk : kChunkSizes) {
            for (const unsigned jobs : kJobCounts) {
                ProfilerOptions opts = proto;
                opts.streamChunkRecords = chunk;
                opts.jobs = jobs;
                EXPECT_TRUE(serializeProfileText(profileWorkloadStreaming(
                                cols, opts)) == fused)
                    << "quantum=" << opts.quantum << " inv="
                    << opts.detectInvalidation << " lb=" << opts.lineBytes
                    << " chunk=" << chunk << " jobs=" << jobs;
            }
        }
    }
}

TEST(StreamingProfiler, SingleThreadedWorkload)
{
    // Degenerate shape: one thread, no synchronization beyond the
    // create/join scaffolding — every chunk and segment edge is a bare
    // quantum boundary inside one long epoch.
    WorkloadSpec spec;
    spec.name = "single";
    spec.numWorkers = 1;
    spec.mainWorks = false;
    spec.numEpochs = 3;
    spec.opsPerEpoch = 4000;
    spec.barrierFlavor = BarrierFlavor::None;
    const ColumnarTrace cols =
        ColumnarTrace::fromWorkload(generateWorkload(spec));
    const std::string fused =
        serializeProfileText(profileWorkloadFused(cols));
    for (const uint64_t chunk : kChunkSizes) {
        for (const unsigned jobs : kJobCounts) {
            ProfilerOptions opts;
            opts.streamChunkRecords = chunk;
            opts.jobs = jobs;
            EXPECT_TRUE(serializeProfileText(
                            profileWorkloadStreaming(cols, opts)) == fused)
                << "chunk=" << chunk << " jobs=" << jobs;
        }
    }
}

TEST(StreamingProfiler, TruncatedFileRejectedAtEveryPrefix)
{
    // An RPPMTRC cut off anywhere — mid-header, mid-column-header,
    // mid-payload, mid-final-padding — must be rejected up front by the
    // structural index with the loaders' exception type, never half
    // profiled. (The streaming reader validates the whole container
    // before any chunk work starts, so "mid-chunk" truncation cannot
    // exist: it is caught here.)
    const ColumnarTrace cols = ColumnarTrace::fromWorkload(
        generateWorkload(scaledSpec(fullSuite().front(), 100)));
    std::stringstream ss;
    saveTrace(cols, ss);
    const std::string whole = ss.str();

    const auto path = std::filesystem::temp_directory_path() /
        "rppm-stream-truncated.rppmtrc";
    ProfilerOptions opts;
    opts.streamChunkRecords = 64;

    // Step through prefix lengths densely near the start (header and
    // first column blocks) and coarsely through the payloads.
    for (size_t len = 0; len < whole.size();
         len += (len < 256 ? 1 : whole.size() / 97 + 1)) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(whole.data(), static_cast<std::streamsize>(len));
        os.close();
        EXPECT_THROW(profileWorkloadStreamingFile(path.string(), opts),
                     std::invalid_argument)
            << "prefix=" << len;
    }

    // The untruncated file profiles fine (sanity check of the fixture).
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(whole.data(), static_cast<std::streamsize>(whole.size()));
    os.close();
    EXPECT_NO_THROW(profileWorkloadStreamingFile(path.string(), opts));

    std::error_code ec;
    std::filesystem::remove(path, ec);
}

TEST(StreamingProfiler, FlippedPayloadByteRejectedAsChecksumMismatch)
{
    // The streamed engine verifies each column's CRC trailer as its
    // chunk windows are mapped. One flipped byte in the pc, dep1, dep2
    // or addr payload — mid-column at an offset that is not a multiple
    // of 8, or in the column's last (partial) 8-byte word — must fail
    // the profile as a checksum mismatch. 1000-record chunks make the
    // folded windows start off 8-byte boundaries, so the checksum
    // kernel sees unaligned bulk and short tails.
    const ColumnarTrace cols =
        ColumnarTrace::fromWorkload(generateWorkload(richSpec("stream-flip")));
    const TempTraceFile file(cols);
    std::string whole;
    {
        std::ifstream is(file.path(), std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        whole = buf.str();
    }
    ThreadLayout th;
    {
        const FdFile fd(file.path());
        const TraceFileLayout layout = indexTraceFile(fd);
        ASSERT_TRUE(layout.hasBlockCrcs);
        // Pick a thread whose 2- and 4-byte columns end mid-word.
        bool found = false;
        for (const ThreadLayout &t : layout.threads) {
            if (t.records % 2 == 1) {
                th = t;
                found = true;
                break;
            }
        }
        ASSERT_TRUE(found) << "no thread with a partial last word";
    }

    struct Column
    {
        const char *name;
        ColumnExtent ext;
        size_t elemSize;
    };
    const Column columns[] = {{"pc", th.pc, 4},
                              {"dep1", th.dep1, 2},
                              {"dep2", th.dep2, 2},
                              {"addr", th.addr, 8}};

    const auto path = std::filesystem::temp_directory_path() /
        "rppm-stream-flipped.rppmtrc";
    ProfilerOptions opts;
    opts.streamChunkRecords = 1000;
    opts.jobs = 2;
    for (const Column &col : columns) {
        const uint64_t bytes = col.ext.count * col.elemSize;
        ASSERT_GT(col.ext.count, opts.streamChunkRecords) << col.name;
        const uint64_t mid = bytes / 2 / 8 * 8 + 5;
        const uint64_t last = bytes - 1;
        if (col.elemSize < 8) {
            ASSERT_NE(bytes % 8, 0u) << col.name;
        }
        for (const uint64_t at : {mid, last}) {
            std::string damaged = whole;
            damaged[col.ext.offset + at] ^= 0x01;
            {
                std::ofstream os(path, std::ios::binary | std::ios::trunc);
                os.write(damaged.data(),
                         static_cast<std::streamsize>(damaged.size()));
            }
            try {
                profileWorkloadStreamingFile(path.string(), opts);
                ADD_FAILURE() << col.name << " flip at payload byte " << at
                              << " was not detected";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                          std::string::npos)
                    << col.name << " byte " << at << ": " << e.what();
            }
        }
    }

    // The undamaged bytes profile cleanly under the same options.
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(whole.data(), static_cast<std::streamsize>(whole.size()));
    }
    EXPECT_NO_THROW(profileWorkloadStreamingFile(path.string(), opts));

    std::error_code ec;
    std::filesystem::remove(path, ec);
}

TEST(StreamingProfiler, FileBackedWorkloadSource)
{
    // A WorkloadSource registered by trace path: construction indexes
    // the container (picking up the embedded name), profile() with an
    // explicit chunk size streams straight from the file, and the
    // result matches an in-memory source bit for bit.
    const ColumnarTrace cols =
        ColumnarTrace::fromWorkload(generateWorkload(richSpec()));
    const TempTraceFile file(cols);

    const WorkloadSource src = WorkloadSource::fromTraceFile(file.path());
    EXPECT_EQ(src.name(), cols.name);
    EXPECT_TRUE(src.hasTrace());

    ProfilerOptions stream;
    stream.streamChunkRecords = 2048;
    stream.jobs = 2;
    ProfileCache cache;
    const auto streamed = src.profile(stream, cache);
    EXPECT_TRUE(serializeProfileText(*streamed) ==
                serializeProfileText(profileWorkloadFused(cols)));

    // Consumers that need the in-memory views still get them (lazily,
    // as a zero-copy mmap of the same file).
    EXPECT_TRUE(src.columnar() == cols);

    // A malformed path fails at registration, not at first profile.
    EXPECT_THROW(WorkloadSource::fromTraceFile("/nonexistent.rppmtrc"),
                 std::exception);
}

TEST(StreamingProfiler, ChunkSizeStaysOutOfTheCacheKey)
{
    // "Profile once" must hold across engines: the cache key carries
    // options that shape profile content; the chunk size (like the job
    // count) is pure execution policy.
    ProfilerOptions a, b, c;
    b.streamChunkRecords = 4096;
    c.streamChunkRecords = kDefaultStreamChunkRecords;
    c.jobs = 8;
    EXPECT_EQ(profilerOptionsKey(a), profilerOptionsKey(b));
    EXPECT_EQ(profilerOptionsKey(a), profilerOptionsKey(c));
}

TEST(StreamingProfiler, CacheArtifactIdenticalAcrossEngines)
{
    // A ProfileCache fed by the streaming engine must produce the same
    // artifact — same path (key), same bytes — as one fed by the fused
    // engine, and the fused artifact must serve streaming requests.
    const auto dir = std::filesystem::temp_directory_path() /
        "rppm-stream-cache-test";
    std::filesystem::remove_all(dir);

    const WorkloadSpec spec = richSpec("stream-cache");
    const ColumnarTrace cols =
        ColumnarTrace::fromWorkload(generateWorkload(spec));

    ProfilerOptions fused;
    ProfilerOptions stream;
    stream.streamChunkRecords = 2048;
    stream.jobs = 4;

    ProfileCache cacheA;
    cacheA.setDirectory(dir.string());
    const auto fromFused = cacheA.getOrCompute(
        spec.name, fused, [&] { return profileWorkload(cols, fused); });
    EXPECT_EQ(cacheA.pathFor(spec.name, fused),
              cacheA.pathFor(spec.name, stream));

    // Fresh cache, same directory, streaming request: disk hit off the
    // fused artifact, identical content.
    ProfileCache cacheB;
    cacheB.setDirectory(dir.string());
    const auto fromStream = cacheB.getOrCompute(
        spec.name, stream, [&] { return profileWorkload(cols, stream); });
    EXPECT_EQ(cacheB.stats().diskHits, 1u);
    EXPECT_TRUE(serializeProfileText(*fromFused) ==
                serializeProfileText(*fromStream));

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace rppm
