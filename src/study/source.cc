#include "study/source.hh"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/mmap.hh"
#include "study/profile_cache.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"
#include "workload/workload.hh"

namespace rppm {

/**
 * Immutable-after-publish state. Each lazily built member (trace,
 * columnar view) is initialized exactly once inside its std::once_flag
 * and never written again; std::call_once makes the completed write
 * visible to every subsequent caller, after which reads are lock-free.
 * With profile and trace-build of *distinct* workloads overlapping
 * inside one Study — and the multi-worker profiler's own pool reading
 * the columnar view from several threads — this is what keeps the source
 * data-race-free without serializing readers behind a mutex
 * (tests/test_profile_parallel.cc hammers it under TSan).
 */
struct WorkloadSource::State
{
    // Shared-state discipline (thread_annotations.hh has no vocabulary
    // for once_flag publication, so it is spelled out here instead):
    // name/spec/fixedProfile are set in the constructor and const
    // afterwards; trace and columnar are written exactly once, inside
    // their std::call_once, and are immutable after it returns. Nothing
    // here may ever be guarded by a mutex — lock-free reads after
    // publication are the point (see file comment in source.hh).
    std::string name;
    std::optional<WorkloadSpec> spec;
    std::shared_ptr<const WorkloadProfile> fixedProfile;
    std::string tracePath; ///< file-backed source; empty otherwise
    uint64_t fileBytes = 0;

    std::once_flag traceOnce;
    std::once_flag columnarOnce;
    std::optional<WorkloadTrace> trace;    ///< written once in traceOnce
    std::optional<ColumnarTrace> columnar; ///< written once in columnarOnce
};

WorkloadSource::WorkloadSource(WorkloadSpec spec)
    : state_(std::make_shared<State>())
{
    state_->name = spec.name;
    state_->spec = std::move(spec);
}

WorkloadSource::WorkloadSource(WorkloadTrace trace)
    : state_(std::make_shared<State>())
{
    state_->name = trace.name;
    state_->trace = std::move(trace);
}

WorkloadSource::WorkloadSource(ColumnarTrace trace)
    : state_(std::make_shared<State>())
{
    state_->name = trace.name;
    state_->columnar = std::move(trace);
}

WorkloadSource::WorkloadSource(WorkloadProfile profile)
    : state_(std::make_shared<State>())
{
    state_->name = profile.name;
    state_->fixedProfile =
        std::make_shared<const WorkloadProfile>(std::move(profile));
}

WorkloadSource::WorkloadSource(std::shared_ptr<State> state)
    : state_(std::move(state))
{
}

WorkloadSource
WorkloadSource::fromTraceFile(const std::string &path)
{
    auto state = std::make_shared<State>();
    // Index the container now: the workload name and file size come out
    // of the header walk, and a truncated or corrupt file is rejected at
    // registration instead of at first profile request.
    FdFile file(path);
    const TraceFileLayout layout = indexTraceFile(file);
    state->name = layout.name;
    state->tracePath = path;
    state->fileBytes = layout.fileSize;
    return WorkloadSource(std::move(state));
}

const std::string &
WorkloadSource::name() const
{
    return state_->name;
}

bool
WorkloadSource::hasTrace() const
{
    return state_->spec.has_value() || state_->trace.has_value() ||
        state_->columnar.has_value() || !state_->tracePath.empty();
}

const WorkloadTrace &
WorkloadSource::trace(unsigned jobs) const
{
    State &s = *state_;
    // An exception inside call_once (profile-only source) leaves the
    // flag unset, so every caller observes the same failure.
    std::call_once(s.traceOnce, [&] {
        if (s.trace)
            return; // trace-backed source: published at construction
        if (s.columnar || !s.tracePath.empty()) {
            // Columnar- or file-backed source: reconstruct the AoS form
            // from the columnar view (the conversion is lossless in
            // both directions; columnar() maps the file if needed).
            s.trace = columnar(jobs).toWorkload();
            return;
        }
        if (!s.spec) {
            throw std::logic_error(
                "WorkloadSource '" + s.name +
                "' is profile-only: no trace available");
        }
        s.trace = generateWorkload(*s.spec, jobs);
    });
    return *s.trace;
}

const ColumnarTrace &
WorkloadSource::columnar(unsigned jobs) const
{
    // Both members are immutable once their call_once returns, so the
    // references stay valid forever.
    State &s = *state_;
    std::call_once(s.columnarOnce, [&] {
        if (s.columnar)
            return; // columnar-backed source: published at construction
        if (!s.tracePath.empty()) {
            // File-backed source whose consumer needs the in-memory
            // view: a zero-copy mmap view keeps the page cache as the
            // backing store.
            s.columnar = loadTraceViewFromFile(s.tracePath);
            return;
        }
        s.columnar = ColumnarTrace::fromWorkload(trace(jobs), jobs);
    });
    return *s.columnar;
}

std::shared_ptr<const WorkloadProfile>
WorkloadSource::profile(const ProfilerOptions &opts,
                        ProfileCache &cache) const
{
    if (state_->fixedProfile)
        return state_->fixedProfile;
    return cache.getOrCompute(name(), opts, [this, &opts] {
        const State &s = *state_;
        if (!s.tracePath.empty() &&
            (opts.streamChunkRecords > 0 ||
             s.fileBytes >= kStreamFileBytesThreshold)) {
            // Big file, or an explicit chunk size: profile out-of-core
            // straight from the container, never materializing the
            // trace. Bit-identical to the in-memory engines, so cache
            // artifacts are interchangeable either way.
            return profileWorkloadStreamingFile(s.tracePath, opts);
        }
        return profileWorkload(columnar(opts.jobs), opts);
    });
}

} // namespace rppm
