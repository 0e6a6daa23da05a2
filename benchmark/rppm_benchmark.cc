/**
 * @file
 * rppm_benchmark — measures one benchmark workload end to end and dumps
 * the raw samples as JSON. run.py builds this program, runs it and
 * turns the samples into the reported metrics (see README.md).
 *
 * Usage:
 *   rppm_benchmark --workload NAME --seed N --seconds S --trace 0|1
 *                  --workdir DIR --out FILE
 *
 * One run: set up repeatedly (the program's own set-up: synthesize the
 * input traces and write them as RPPMTRC files), compute a reference
 * once through a different code path, measure for S seconds untraced,
 * set up repeatedly again, then (with --trace 1) measure for S more
 * seconds with spans recorded at every layer boundary. Every answer is
 * checked against the reference; a mismatch is a failed operation.
 *
 * Every layer is driven through its public functions; nothing inside
 * src/ is instrumented. Where a facade call (Study::run) hides a layer,
 * the traced run times that layer with a probe after the answer, by
 * calling its public function on the same inputs.
 */

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.hh"
#include "common/mmap.hh"
#include "common/rng.hh"
#include "pipeline.hh"
#include "profile/profiler.hh"
#include "profile/serialize.hh"
#include "rppm/baselines.hh"
#include "rppm/memo.hh"
#include "rppm/predictor.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "sim/simulator.hh"
#include "study/study.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"
#include "tracer.hh"
#include "workload/suite.hh"
#include "workload/workload.hh"

namespace {

using namespace rppm;
using namespace rppm::benchmark;

// ----------------------------------------------------------- inputs ---

// Scale factors of the suite specs (ops per epoch and sequential phases).
// Prediction cost depends mostly on epoch and thread counts, so the
// Parsec kernels stay cheap to synthesize and profile while their grids
// dominate a cold Study. The ingest trace must cross
// kStreamFileBytesThreshold so WorkloadSource::profile streams it.
constexpr double kDseScale = 0.1;
constexpr double kIngestScale = 10.8;
constexpr double kOracleScale = 0.25;

const char *const kDseKernels[] = {"Facesim", "Fluidanimate", "Vips"};
const char *const kIngestKernel = "bfs";
const char *const kOracleKernels[] = {"bfs", "cfd", "srad", "streamcluster",
                                      "Canneal"};

// The warm-serving probe of dse_cold sends the query shapes the repo's
// own rppmd callers send (see QueryShape), this many queries in total
// over all its clients: enough for a p99 with ten samples beyond it
// (nearest rank 1188 of 1200) at any client count.
constexpr int kServeQueries = 1200;
constexpr uint64_t kServeClientSeed = 0x5e7e0000;

// Set-up repeats for this long, at least twice, before the measurement
// and for this long, at least once, after it; the reported set-up time
// is the median of all the repeats. Splitting them spans the median over
// the whole run, so one slow stretch of a shared host moves it less.
constexpr double kSetupWindowSeconds = 3.0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

/** A field of /proc/self/status ("VmRSS", "VmHWM") in MiB. */
double
statusMb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const size_t n = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, n, field) == 0 && line.size() > n &&
            line[n] == ':') {
            return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
        }
    }
    throw std::runtime_error(std::string("no ") + field +
                             " in /proc/self/status");
}

/** Return freed heap to the kernel, then restart the resident high-water
 *  mark from the current RSS, so the next VmHWM read covers only what
 *  runs after this call. */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    if (!out)
        throw std::runtime_error("cannot reset VmHWM via clear_refs");
}

/** Per-kernel WorkloadSpec::seed derived from the benchmark seed. */
uint64_t
kernelSeed(uint64_t benchSeed, uint64_t suiteSeed)
{
    return Rng(benchSeed * 0x9e3779b97f4a7c15ULL + suiteSeed).next();
}

/** A suite kernel scaled as the bench harnesses scale it, with its
 *  seed drawn from the benchmark seed. */
WorkloadSpec
kernelSpec(const std::string &name, uint64_t benchSeed, double scale)
{
    const auto entry = findBenchmark(name);
    if (!entry)
        throw std::invalid_argument("unknown kernel " + name);
    WorkloadSpec spec = bench::scaleSpec(entry->spec, scale);
    spec.seed = kernelSeed(benchSeed, spec.seed);
    return spec;
}

/** bench_perf's sweep grid: Table IV, a DVFS ladder on Base and every
 *  placement of the kernel's threads on a 2+2 big.LITTLE machine. */
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
         mappingSweep(bigLittleConfig(2, 2), numThreads)) {
        grid.push_back(m);
    }
    return grid;
}

/**
 * A query shape of the serve probe: a config set that one of the repo's
 * own rppmd callers sends. bench_perf's serve_warm phase sends a
 * kernel's full sweep grid; tools/rppm_client sends --configs table4
 * (its default, and what the daemon-smoke and chaos-smoke CI jobs
 * send), hetero or base. The callers fix the shapes but not how often
 * each is sent, so the probe picks one uniformly for every query.
 */
struct QueryShape
{
    const char *kind; ///< kind of its samples
    const char *span;
    std::vector<MulticoreConfig> (*configs)(uint32_t numThreads);
};

const QueryShape kQueryShapes[] = {
    // First: the sweep grid that dse_cold answers.
    {"full", "server.full_query", sweepConfigs},
    {"table4", "server.table4_query",
     [](uint32_t) { return tableIvConfigs(); }},
    {"hetero", "server.hetero_query",
     [](uint32_t) { return heterogeneousConfigs(); }},
    {"point", "server.point_query",
     [](uint32_t) { return std::vector<MulticoreConfig>{baseConfig()}; }},
};
constexpr size_t kNumShapes = std::size(kQueryShapes);

/** Base plus the Table-IV extremes. */
std::vector<MulticoreConfig>
oracleConfigs()
{
    std::vector<MulticoreConfig> out;
    for (const MulticoreConfig &cfg : tableIvConfigs()) {
        if (cfg.name == "Smallest" || cfg.name == "Base" ||
            cfg.name == "Biggest") {
            out.push_back(cfg);
        }
    }
    return out;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool
sameAnswer(const RppmPrediction &ref, double cycles, double seconds,
           const std::vector<double> &threadSeconds)
{
    if (!sameBits(ref.totalCycles, cycles) ||
        !sameBits(ref.totalSeconds, seconds) ||
        ref.threadSeconds.size() != threadSeconds.size()) {
        return false;
    }
    for (size_t i = 0; i < threadSeconds.size(); ++i) {
        if (!sameBits(ref.threadSeconds[i], threadSeconds[i]))
            return false;
    }
    return true;
}

std::string
profileBytes(const WorkloadProfile &profile)
{
    std::ostringstream os;
    saveProfileBinary(profile, os);
    return os.str();
}

/** Verify every column CRC of a trace file; returns the bytes read. */
uint64_t
verifyCrcs(const std::string &path)
{
    const FdFile file(path);
    verifyTraceFileCrcs(file, indexTraceFile(file));
    return file.size();
}

void
addMemoCounters(std::map<std::string, double> &c, const MemoStats &m)
{
    c["memo.predictions"] += static_cast<double>(m.predictions);
    c["memo.thread_evals"] += static_cast<double>(m.threadEvals);
    c["memo.thread_hits"] += static_cast<double>(m.threadHits);
    c["memo.sync_runs"] += static_cast<double>(m.syncRuns);
    c["memo.sync_hits"] += static_cast<double>(m.syncHits);
    c["memo.stacks_built"] += static_cast<double>(m.stacksBuilt);
    c["memo.curve_points"] += static_cast<double>(m.curvePoints);
    c["memo.curve_hits"] += static_cast<double>(m.curveHits);
}

// ------------------------------------------------------------ output ---

/** One timed operation of a measurement phase. */
struct Sample
{
    std::string kind; ///< "answer", or a served query's shape
    double ms = 0.0;
    bool ok = false;
};

/** Everything one measurement phase (untraced or traced) produced. */
struct Phase
{
    std::vector<Sample> samples;
    uint64_t mismatches = 0;
    std::vector<std::string> errors;
    /** Layer counts of the first completed iteration (deterministic for
     *  a seed), or of the whole phase where they are service counters. */
    std::map<std::string, double> counters;
    double startRssMb = 0.0; ///< resident at the start of the phase
    double peakRssMb = 0.0;

    void
    fail(const std::string &what)
    {
        if (errors.size() < 8)
            errors.push_back(what);
    }
};

/** One synthesized input trace. */
struct Kernel
{
    std::string name;
    WorkloadSpec spec;
    std::string path;
    uint64_t ops = 0;
    uint64_t fileBytes = 0;
};

/** One (kernel, config) cell of the oracle comparison. */
struct AccuracyCell
{
    std::string kernel;
    std::string config;
    double sim = 0.0;
    double rppm = 0.0;
    double main = 0.0;
    double crit = 0.0;
};

class JsonWriter
{
  public:
    JsonWriter &
    raw(const std::string &s)
    {
        os_ << s;
        return *this;
    }

    JsonWriter &
    str(const std::string &s)
    {
        os_ << '"';
        for (char c : s) {
            if (c == '"' || c == '\\')
                os_ << '\\' << c;
            else if (static_cast<unsigned char>(c) < 0x20)
                os_ << ' ';
            else
                os_ << c;
        }
        os_ << '"';
        return *this;
    }

    JsonWriter &
    num(double v)
    {
        if (!std::isfinite(v))
            return raw("null");
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(buf);
    }

    JsonWriter &
    key(const std::string &k)
    {
        return str(k).raw(": ");
    }

    std::string text() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

void
writePhase(JsonWriter &j, const Phase &p, const Tracer *tracer)
{
    j.raw("{").key("mismatches").num(static_cast<double>(p.mismatches));
    j.raw(", ").key("start_rss_mb").num(p.startRssMb);
    j.raw(", ").key("peak_rss_mb").num(p.peakRssMb);
    j.raw(", ").key("errors").raw("[");
    for (size_t i = 0; i < p.errors.size(); ++i)
        j.raw(i ? ", " : "").str(p.errors[i]);
    j.raw("], ").key("samples").raw("[");
    for (size_t i = 0; i < p.samples.size(); ++i) {
        const Sample &s = p.samples[i];
        j.raw(i ? ", " : "").raw("[").str(s.kind).raw(", ").num(s.ms);
        j.raw(s.ok ? ", true]" : ", false]");
    }
    j.raw("], ").key("counters").raw("{");
    bool first = true;
    for (const auto &[k, v] : p.counters) {
        j.raw(first ? "" : ", ").key(k).num(v);
        first = false;
    }
    j.raw("}");
    if (tracer) {
        j.raw(", ").key("spans").raw("[");
        const std::vector<Span> &spans = tracer->spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            j.raw(i ? ",\n" : "").raw("[").str(s.name);
            for (double v : {static_cast<double>(s.startNs),
                             static_cast<double>(s.endNs),
                             static_cast<double>(s.id),
                             static_cast<double>(s.parent),
                             static_cast<double>(s.request),
                             static_cast<double>(s.thread)}) {
                j.raw(", ").num(v);
            }
            j.raw("]");
        }
        j.raw("]");
    }
    j.raw("}");
}

// --------------------------------------------------------- workloads ---

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned jobs = 1; ///< min(nproc, 4)
    std::string workdir;
    std::string out;
};

/** Result of one timed answer of a sequential workload. */
struct Answer
{
    double ms = 0.0;
    bool ok = false;
};

class Workload
{
  public:
    explicit Workload(const Options &opts) : opts_(opts) {}
    virtual ~Workload() = default;

    /** The program's own set-up (timed): synthesize and write the
     *  inputs. @p keep asks it to retain what reference() needs. */
    virtual void setup(Tracer *tracer, bool keep) = 0;

    /** Expected outputs, computed once through a different path
     *  (untimed); releases what setup() kept. */
    virtual void reference() = 0;

    /** Measure for opts.seconds; tracer is null in the untraced run. */
    virtual void
    measure(Tracer *tracer, Phase &phase)
    {
        const Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(opts_.seconds));
        do {
            Answer a;
            {
                ScopedSpan span(tracer, "bench.iteration", true);
                try {
                    a = iterate(tracer, phase);
                } catch (const std::exception &e) {
                    phase.fail(e.what());
                    a.ok = false;
                }
            }
            phase.samples.push_back({"answer", a.ms, a.ok});
        } while (Clock::now() < deadline);
    }

    /** Oracle comparison cells of the first answer (workloads that
     *  simulate only). */
    const std::vector<AccuracyCell> &accuracy() const { return accuracy_; }
    const std::vector<Kernel> &kernels() const { return kernels_; }
    unsigned jobs() const { return opts_.jobs; }

  protected:
    /** One answer plus its check (and, traced, its probes). */
    virtual Answer iterate(Tracer *tracer, Phase &phase) = 0;

    /** Synthesize @p k from its spec and write it to its path; returns
     *  the in-memory columnar trace. */
    ColumnarTrace
    writeKernel(Tracer *tracer, Kernel &k)
    {
        ColumnarTrace cols;
        {
            ScopedSpan span(tracer, "workload.synth");
            cols = ColumnarTrace::fromWorkload(
                generateWorkload(k.spec, opts_.jobs));
        }
        {
            ScopedSpan span(tracer, "trace.save");
            saveTraceToFile(cols, k.path);
        }
        k.ops = cols.totalOps();
        k.fileBytes = std::filesystem::file_size(k.path);
        return cols;
    }

    void
    addKernel(const std::string &name, double scale)
    {
        Kernel k;
        k.name = name;
        k.spec = kernelSpec(name, opts_.seed, scale);
        k.path = opts_.workdir + "/" + name + ".rppmtrc";
        kernels_.push_back(std::move(k));
    }

    ProfilerOptions
    profilerOptions() const
    {
        ProfilerOptions po;
        po.jobs = opts_.jobs;
        return po;
    }

    /** Post-answer probe shared by the file-reading workloads. */
    void
    probeCrcs(Tracer *tracer, Phase &phase, bool first)
    {
        uint64_t bytes = 0;
        {
            ScopedSpan span(tracer, "common.crc");
            for (const Kernel &k : kernels_)
                bytes += verifyCrcs(k.path);
        }
        if (first)
            phase.counters["common.crc_bytes"] = static_cast<double>(bytes);
    }

    Options opts_;
    std::vector<Kernel> kernels_;
    std::vector<AccuracyCell> accuracy_;
};

/**
 * dse_cold: a fresh Study per answer reads three Parsec traces from disk
 * and evaluates the memoized sweep grid of each.
 */
class DseCold : public Workload
{
  public:
    explicit DseCold(const Options &opts) : Workload(opts)
    {
        for (const char *name : kDseKernels) {
            addKernel(name, kDseScale);
            std::vector<std::vector<MulticoreConfig>> shapes;
            for (const QueryShape &shape : kQueryShapes) {
                shapes.push_back(
                    shape.configs(kernels_.back().spec.numThreads()));
            }
            configs_.push_back(std::move(shapes));
        }
    }

    void
    setup(Tracer *tracer, bool keep) override
    {
        kept_.clear();
        for (Kernel &k : kernels_) {
            ColumnarTrace cols = writeKernel(tracer, k);
            if (keep)
                kept_.push_back(std::move(cols));
        }
    }

    void
    reference() override
    {
        ref_.clear();
        for (size_t i = 0; i < kernels_.size(); ++i) {
            const WorkloadProfile profile = profileWorkloadFused(kept_[i]);
            std::vector<std::vector<RppmPrediction>> shapes;
            for (const std::vector<MulticoreConfig> &configs : configs_[i])
                shapes.push_back(predictGrid(profile, configs));
            ref_.push_back(std::move(shapes));
        }
        kept_.clear();
    }

    void
    measure(Tracer *tracer, Phase &phase) override
    {
        Workload::measure(tracer, phase);
        if (tracer)
            serveProbe(tracer, phase);
    }

  protected:
    Answer
    iterate(Tracer *tracer, Phase &phase) override
    {
        const bool first = tracer && phase.counters.empty();
        // One fresh Study (empty profile cache) per kernel: the kernels'
        // placement sweeps differ with their thread counts, and a Study
        // grid is the full workload x config product.
        std::vector<Study> studies(kernels_.size());
        std::vector<StudyResult> results(kernels_.size());
        Answer a;
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan answer(tracer, "bench.answer");
            for (size_t i = 0; i < kernels_.size(); ++i) {
                const Kernel &k = kernels_[i];
                Study &study = studies[i];
                study.jobs(opts_.jobs).profilerOptions(profilerOptions());
                study.addEvaluator("rppm").addConfigs(sweep(i));
                WorkloadSource src = [&] {
                    ScopedSpan span(tracer, "trace.index");
                    return WorkloadSource::fromTraceFile(k.path);
                }();
                {
                    ScopedSpan span(tracer, "trace.load");
                    src.columnar(opts_.jobs);
                }
                study.add(std::move(src));
                {
                    ScopedSpan span(tracer, "profile");
                    study.profile(k.name);
                }
                ScopedSpan span(tracer, "study.run");
                results[i] = study.run();
            }
        }
        a.ms = msSince(t0);
        a.ok = check(results, phase);
        if (!tracer)
            return a;

        // Probes: the layers Study::run hides, on the same profiles.
        probeCrcs(tracer, phase, first);
        std::map<std::string, double> counters;
        for (size_t i = 0; i < kernels_.size(); ++i) {
            const auto profile = studies[i].profile(kernels_[i].name);
            counters["profile.records"] +=
                static_cast<double>(profile->totalOps());
            counters["trace.file_bytes"] +=
                static_cast<double>(kernels_[i].fileBytes);
            const ProfileCache::Stats cache = studies[i].profiles().stats();
            counters["study.profile_hits"] +=
                static_cast<double>(cache.memoryHits + cache.diskHits);
            counters["study.profile_misses"] +=
                static_cast<double>(cache.misses);
            {
                // The loop predictGrid runs, on an engine we can size.
                ScopedSpan span(tracer, "rppm.grid");
                PredictionMemo memo(profile);
                for (const MulticoreConfig &cfg : sweep(i))
                    memo.predict(cfg);
                addMemoCounters(counters, memo.stats());
                counters["rppm.memo_resident_bytes"] +=
                    static_cast<double>(memo.approxResidentBytes());
            }
            ScopedSpan span(tracer, "rppm.predict");
            predict(*profile, baseConfig());
        }
        if (first)
            phase.counters.insert(counters.begin(), counters.end());
        return a;
    }

  private:
    /** A query of the serve probe: one shape for one kernel. */
    struct Pick
    {
        size_t kernel = 0;
        size_t shape = 0;
    };

    const std::vector<MulticoreConfig> &
    sweep(size_t kernel) const
    {
        return configs_[kernel][0];
    }

    /**
     * The warm-serving layer, after the traced answers: an in-process
     * rppmd serves the same trace files, warmed with every query shape
     * of every kernel, to a closed loop of clients (each waits for its
     * reply) sending seeded queries of those shapes, kServeQueries in
     * all. Client connections plus daemon workers stay within the jobs
     * budget, except on one core, where one client and one worker take
     * turns: the client is blocked while the worker answers it. Every
     * reply is checked against the in-process grid of its shape; the
     * queries are samples of the traced phase.
     */
    void
    serveProbe(Tracer *tracer, Phase &phase)
    {
        const unsigned workers = std::max(1u, opts_.jobs / 2);
        const unsigned clients = std::max(1u, opts_.jobs - workers);
        server::ServerOptions sopts;
        // Relative to the working directory: sun_path holds 108 bytes.
        sopts.socketPath = opts_.workdir + "/rppmd.sock";
        sopts.workers = workers;
        sopts.jobs = opts_.jobs;
        server::RppmServer daemon(sopts);
        {
            ScopedSpan span(tracer, "server.start", true);
            daemon.start();
            ScopedSpan warm(tracer, "server.warm");
            server::RppmClient client;
            client.connect(sopts.socketPath, "rppm_benchmark");
            for (size_t i = 0; i < kernels_.size(); ++i) {
                for (size_t shape = 0; shape < kNumShapes; ++shape)
                    client.evaluate(serveQuery({i, shape}));
            }
        }
        const server::RppmServer::Stats before = daemon.stats();
        std::vector<Phase> perClient(clients);
        std::vector<std::thread> threads;
        const int perClientQueries =
            (kServeQueries + static_cast<int>(clients) - 1) /
            static_cast<int>(clients);
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back(
                [this, c, tracer, perClientQueries, &sopts, &perClient] {
                    serveClient(c, sopts.socketPath, perClientQueries,
                                tracer, perClient[c]);
                });
        }
        for (std::thread &t : threads)
            t.join();
        const server::RppmServer::Stats after = daemon.stats();
        daemon.stop();
        std::filesystem::remove(sopts.socketPath);

        for (const Phase &p : perClient) {
            phase.samples.insert(phase.samples.end(), p.samples.begin(),
                                 p.samples.end());
            phase.mismatches += p.mismatches;
            for (const std::string &e : p.errors)
                phase.fail(e);
        }
        auto &c = phase.counters;
        c["server.requests"] =
            static_cast<double>(after.requests - before.requests);
        c["server.cells"] = static_cast<double>(after.cells - before.cells);
        c["server.batches"] =
            static_cast<double>(after.batches - before.batches);
        c["server.shed"] = static_cast<double>(after.shed - before.shed);
        c["server.deadline_expired"] = static_cast<double>(
            after.deadlineExpired - before.deadlineExpired);
        c["server.resident_bytes"] = static_cast<double>(
            after.profile.residentBytes + after.memo.residentBytes);
        c["server.profile_memory_hits"] = static_cast<double>(
            after.profile.memoryHits - before.profile.memoryHits);
    }

    server::Query
    serveQuery(const Pick &p) const
    {
        server::Query q;
        q.kind = server::WorkloadRefKind::TracePath;
        q.workload = kernels_[p.kernel].path;
        q.profiler = profilerOptions();
        q.configs = configs_[p.kernel][p.shape];
        return q;
    }

    void
    serveClient(unsigned c, const std::string &socket, int queries,
                Tracer *tracer, Phase &phase)
    {
        Rng rng(kernelSeed(opts_.seed, kServeClientSeed + c));
        server::RppmClient client;
        try {
            client.connect(socket, "rppm_benchmark");
        } catch (const std::exception &e) {
            phase.fail(e.what());
            phase.samples.push_back({"connect", 0.0, false});
            return;
        }
        for (int q = 0; q < queries; ++q) {
            Pick p;
            p.kernel = rng.nextBounded(kernels_.size());
            p.shape = rng.nextBounded(kNumShapes);
            const QueryShape &shape = kQueryShapes[p.shape];
            Sample s{shape.kind, 0.0, false};
            const Clock::time_point t0 = Clock::now();
            try {
                ScopedSpan span(tracer, shape.span, true);
                const std::vector<server::CellResult> cells =
                    client.evaluate(serveQuery(p));
                s.ms = msSince(t0);
                s.ok = checkCells(p, cells);
                if (!s.ok) {
                    ++phase.mismatches;
                    phase.fail("serve probe: reply differs from the "
                               "in-process grid");
                }
            } catch (const std::exception &e) {
                // Busy after every retry, a missed deadline or a broken
                // connection: a failed query that missed every limit.
                s.ms = msSince(t0);
                phase.fail(e.what());
            }
            phase.samples.push_back(s);
        }
    }

    bool
    checkCells(const Pick &p,
               const std::vector<server::CellResult> &cells) const
    {
        const std::vector<RppmPrediction> &ref = ref_[p.kernel][p.shape];
        if (cells.size() != ref.size())
            return false;
        for (const server::CellResult &r : cells) {
            const size_t at = static_cast<size_t>(r.cell);
            if (at >= ref.size() ||
                !sameAnswer(ref[at], r.cycles, r.seconds, r.threadSeconds)) {
                return false;
            }
        }
        return true;
    }

    bool
    check(const std::vector<StudyResult> &results, Phase &phase)
    {
        bool ok = true;
        for (size_t i = 0; i < kernels_.size(); ++i) {
            for (size_t c = 0; c < sweep(i).size(); ++c) {
                const Evaluation *e = results[i].find(
                    kernels_[i].name, sweep(i)[c].name, "rppm");
                if (!e || !sameAnswer(ref_[i][0][c], e->cycles, e->seconds,
                                      e->threadSeconds)) {
                    ok = false;
                }
            }
        }
        if (!ok) {
            ++phase.mismatches;
            phase.fail("dse_cold: grid differs from the in-memory "
                       "reference");
        }
        return ok;
    }

    /** Per kernel, the configs of every query shape; shape 0 is the
     *  sweep grid. */
    std::vector<std::vector<std::vector<MulticoreConfig>>> configs_;
    std::vector<ColumnarTrace> kept_;
    /** Per kernel and query shape, predictGrid on the fused profile. */
    std::vector<std::vector<std::vector<RppmPrediction>>> ref_;
};

/**
 * ingest_stream: one Rodinia trace above the streaming threshold is
 * profiled out-of-core from disk and predicted on Base.
 */
class IngestStream : public Workload
{
  public:
    explicit IngestStream(const Options &opts) : Workload(opts)
    {
        addKernel(kIngestKernel, kIngestScale);
    }

    void
    setup(Tracer *tracer, bool keep) override
    {
        kept_ = ColumnarTrace();
        ColumnarTrace cols = writeKernel(tracer, kernels_[0]);
        if (kernels_[0].fileBytes < kStreamFileBytesThreshold)
            throw std::runtime_error("ingest_stream: trace below the "
                                     "streaming threshold");
        if (keep)
            kept_ = std::move(cols);
    }

    void
    reference() override
    {
        // The in-memory parallel engine over the synthesized columns.
        const WorkloadProfile profile =
            profileWorkloadParallel(kept_, profilerOptions());
        kept_ = ColumnarTrace();
        refProfile_ = profileBytes(profile);
        refPredict_ = predict(profile, baseConfig());
    }

  protected:
    Answer
    iterate(Tracer *tracer, Phase &phase) override
    {
        const bool first = tracer && phase.counters.empty();
        const Kernel &k = kernels_[0];
        double rss0 = 0.0;
        double rssPeak = 0.0;
        if (tracer) {
            resetPeakRss();
            rss0 = statusMb("VmRSS");
        }
        ProfileCache cache;
        std::shared_ptr<const WorkloadProfile> profile;
        RppmPrediction pred;
        Answer a;
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan answer(tracer, "bench.answer");
            const WorkloadSource src = [&] {
                ScopedSpan span(tracer, "trace.index");
                return WorkloadSource::fromTraceFile(k.path);
            }();
            {
                ScopedSpan span(tracer, "profile");
                profile = src.profile(profilerOptions(), cache);
                if (tracer)
                    rssPeak = statusMb("VmHWM");
            }
            ScopedSpan span(tracer, "rppm.predict");
            pred = predict(*profile, baseConfig());
        }
        a.ms = msSince(t0);
        a.ok = sameBits(pred.totalCycles, refPredict_.totalCycles) &&
               profileBytes(*profile) == refProfile_;
        if (!a.ok) {
            ++phase.mismatches;
            phase.fail("ingest_stream: streamed profile differs from the "
                       "in-memory engine's");
        }
        if (!tracer)
            return a;
        probeCrcs(tracer, phase, first);
        if (first) {
            phase.counters["profile.records"] =
                static_cast<double>(profile->totalOps());
            phase.counters["trace.file_bytes"] =
                static_cast<double>(k.fileBytes);
            phase.counters["profile.rss_delta_mb"] = rssPeak - rss0;
        }
        return a;
    }

  private:
    ColumnarTrace kept_;
    std::string refProfile_;
    RppmPrediction refPredict_;
};

/**
 * oracle_check: five kernels read from disk, simulated and predicted by
 * RPPM on Base and the Table-IV extremes. Single-threaded throughout, so
 * the simulator's own cost is what the answer time measures.
 */
class OracleCheck : public Workload
{
  public:
    explicit OracleCheck(const Options &opts)
        : Workload(singleThreaded(opts)), configs_(oracleConfigs())
    {
        for (const char *name : kOracleKernels)
            addKernel(name, kOracleScale);
    }

    void
    setup(Tracer *tracer, bool keep) override
    {
        kept_.clear();
        for (Kernel &k : kernels_) {
            ColumnarTrace cols = writeKernel(tracer, k);
            if (keep)
                kept_.push_back(std::move(cols));
        }
    }

    void
    reference() override
    {
        // The legacy AoS simulator on the synthesized trace; the
        // measured runs use the columnar engine on the loaded file. The
        // MAIN and CRIT baselines only give the accuracy context, so
        // they are evaluated here, once, on the in-memory profile.
        refCycles_.clear();
        baselines_.clear();
        for (const ColumnarTrace &cols : kept_) {
            const WorkloadTrace trace = cols.toWorkload();
            const WorkloadProfile profile = profileWorkloadFused(cols);
            for (const MulticoreConfig &cfg : configs_) {
                refCycles_.push_back(simulateLegacy(trace, cfg).totalCycles);
                baselines_.push_back({predictMain(profile, cfg),
                                      predictCrit(profile, cfg)});
            }
        }
        kept_.clear();
    }

  protected:
    Answer
    iterate(Tracer *tracer, Phase &phase) override
    {
        const bool first = tracer && phase.counters.empty();
        std::vector<AccuracyCell> cells;
        double instructions = 0.0;
        double records = 0.0;
        Answer a;
        const Clock::time_point t0 = Clock::now();
        {
            // Every input stays resident for the whole answer, as in a
            // study over the kernel set.
            ScopedSpan answer(tracer, "bench.answer");
            std::vector<WorkloadSource> sources;
            std::vector<std::shared_ptr<const WorkloadProfile>> profiles;
            ProfileCache cache;
            for (const Kernel &k : kernels_) {
                {
                    ScopedSpan span(tracer, "trace.index");
                    sources.push_back(WorkloadSource::fromTraceFile(k.path));
                }
                {
                    ScopedSpan span(tracer, "trace.load");
                    sources.back().columnar(opts_.jobs);
                }
                ScopedSpan span(tracer, "profile");
                profiles.push_back(
                    sources.back().profile(profilerOptions(), cache));
                records += static_cast<double>(profiles.back()->totalOps());
            }
            for (size_t i = 0; i < kernels_.size(); ++i) {
                const ColumnarTrace &cols = sources[i].columnar(opts_.jobs);
                for (const MulticoreConfig &cfg : configs_) {
                    AccuracyCell cell{kernels_[i].name, cfg.name};
                    {
                        ScopedSpan span(tracer, "sim");
                        const SimResult sr = simulate(cols, cfg);
                        cell.sim = sr.totalCycles;
                        for (const ThreadResult &t : sr.threads)
                            instructions += static_cast<double>(
                                t.instructions);
                    }
                    ScopedSpan span(tracer, "rppm.predict");
                    cell.rppm = predict(*profiles[i], cfg).totalCycles;
                    cells.push_back(std::move(cell));
                }
            }
        }
        a.ms = msSince(t0);
        a.ok = cells.size() == refCycles_.size();
        for (size_t i = 0; a.ok && i < cells.size(); ++i) {
            a.ok = sameBits(cells[i].sim, refCycles_[i]);
            cells[i].main = baselines_[i].first;
            cells[i].crit = baselines_[i].second;
        }
        if (!a.ok) {
            ++phase.mismatches;
            phase.fail("oracle_check: simulated cycles differ from the "
                       "reference");
        }
        if (accuracy_.empty())
            accuracy_ = cells;
        if (!tracer)
            return a;
        probeCrcs(tracer, phase, first);
        if (first) {
            phase.counters["sim.instructions"] = instructions;
            phase.counters["profile.records"] = records;
            double bytes = 0.0;
            for (const Kernel &k : kernels_)
                bytes += static_cast<double>(k.fileBytes);
            phase.counters["trace.file_bytes"] = bytes;
        }
        return a;
    }

  private:
    static Options
    singleThreaded(Options opts)
    {
        opts.jobs = 1;
        return opts;
    }

    std::vector<MulticoreConfig> configs_;
    std::vector<ColumnarTrace> kept_;
    std::vector<double> refCycles_;
    std::vector<std::pair<double, double>> baselines_; ///< MAIN, CRIT
};

std::unique_ptr<Workload>
makeWorkload(const Options &opts)
{
    if (opts.workload == "dse_cold")
        return std::make_unique<DseCold>(opts);
    if (opts.workload == "ingest_stream")
        return std::make_unique<IngestStream>(opts);
    if (opts.workload == "oracle_check")
        return std::make_unique<OracleCheck>(opts);
    throw std::invalid_argument("unknown workload " + opts.workload);
}

/** The CPUs this process may run on, as nproc counts them: the affinity
 *  mask, which taskset and container CPU sets narrow. */
unsigned
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.jobs = std::clamp(usableCpus(), 1u, 4u);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(arg + " needs a value");
        const std::string v = argv[++i];
        if (arg == "--workload")
            o.workload = v;
        else if (arg == "--seed")
            o.seed = std::stoull(v);
        else if (arg == "--seconds")
            o.seconds = std::stod(v);
        else if (arg == "--trace")
            o.trace = v != "0";
        else if (arg == "--workdir")
            o.workdir = v;
        else if (arg == "--out")
            o.out = v;
        else
            throw std::invalid_argument("unknown option " + arg);
    }
    if (o.workload.empty() || o.workdir.empty() || o.out.empty())
        throw std::invalid_argument("--workload, --workdir and --out are "
                                    "required");
    return o;
}

int
run(const Options &opts)
{
    std::filesystem::create_directories(opts.workdir);
    std::unique_ptr<Workload> w = makeWorkload(opts);
    Tracer tracer;
    Tracer *setupTracer = opts.trace ? &tracer : nullptr;

    std::vector<double> setupS;
    const auto setUp = [&](bool keep) {
        ScopedSpan span(setupTracer, "bench.setup", true);
        const Clock::time_point t0 = Clock::now();
        w->setup(setupTracer, keep);
        setupS.push_back(secondsSince(t0));
    };
    // Before the measurement the last set-up keeps what the reference
    // needs; after it, set-up only rewrites the same files.
    Clock::time_point windowStart = Clock::now();
    bool last = false;
    while (!last) {
        last = setupS.size() >= 1 &&
               secondsSince(windowStart) >= kSetupWindowSeconds;
        setUp(last);
    }
    w->reference();

    resetPeakRss();
    Phase untraced;
    untraced.startRssMb = statusMb("VmRSS");
    w->measure(nullptr, untraced);
    untraced.peakRssMb = statusMb("VmHWM");

    windowStart = Clock::now();
    do {
        setUp(false);
    } while (secondsSince(windowStart) < kSetupWindowSeconds);

    Phase traced;
    if (opts.trace)
        w->measure(&tracer, traced);

    JsonWriter j;
    j.raw("{").key("schema").str("rppm-benchmark-raw-1");
    j.raw(", ").key("workload").str(opts.workload);
    j.raw(", ").key("seed").num(static_cast<double>(opts.seed));
    j.raw(", ").key("jobs").num(w->jobs());
    j.raw(", ").key("seconds").num(opts.seconds);
    j.raw(", ").key("kernels").raw("[");
    for (size_t i = 0; i < w->kernels().size(); ++i) {
        const Kernel &k = w->kernels()[i];
        j.raw(i ? ", " : "").raw("{").key("name").str(k.name);
        j.raw(", ").key("spec_seed").str(std::to_string(k.spec.seed));
        j.raw(", ").key("ops").num(static_cast<double>(k.ops));
        j.raw(", ").key("file_bytes").num(static_cast<double>(k.fileBytes));
        j.raw("}");
    }
    j.raw("], ").key("setup_s").raw("[");
    for (size_t i = 0; i < setupS.size(); ++i)
        j.raw(i ? ", " : "").num(setupS[i]);
    j.raw("], ").key("accuracy").raw("[");
    const std::vector<AccuracyCell> &acc = w->accuracy();
    for (size_t i = 0; i < acc.size(); ++i) {
        const AccuracyCell &c = acc[i];
        j.raw(i ? ", " : "").raw("{").key("kernel").str(c.kernel);
        j.raw(", ").key("config").str(c.config);
        j.raw(", ").key("sim").num(c.sim);
        j.raw(", ").key("rppm").num(c.rppm);
        j.raw(", ").key("main").num(c.main);
        j.raw(", ").key("crit").num(c.crit).raw("}");
    }
    j.raw("], ").key("untraced");
    writePhase(j, untraced, nullptr);
    if (opts.trace) {
        j.raw(", ").key("traced");
        writePhase(j, traced, &tracer);
    }
    j.raw("}\n");

    std::ofstream out(opts.out);
    out << j.text();
    out.flush();
    if (!out)
        throw std::runtime_error("cannot write " + opts.out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rppm_benchmark: %s\n", e.what());
        return 1;
    }
}
