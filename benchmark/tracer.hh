/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call into a library layer, timed from the benchmark's
 * side of the boundary: name, start, end, the span that was open on the
 * same thread when it began (its parent) and a request id shared by
 * every span of one query or grid. Spans stay in memory until the run
 * ends; the program then dumps them raw and run.py turns them into
 * Chrome trace-event JSON with per-span self time.
 *
 * Untraced runs pass a null Tracer: a ScopedSpan then costs one pointer
 * test, so the end-to-end numbers carry no recording cost.
 */

#ifndef RPPM_BENCHMARK_TRACER_HH
#define RPPM_BENCHMARK_TRACER_HH

#include <pthread.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rppm::benchmark {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    int64_t startNs = 0; ///< since the tracer's origin
    int64_t endNs = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t request = 0; ///< shared by the spans of one query or grid
    uint32_t thread = 0;  ///< small per-run thread number
};

class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    uint64_t
    newId()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return ++lastId_;
    }

    void
    record(Span span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        span.thread = threadNumber();
        spans_.push_back(std::move(span));
    }

    /** The recorded spans; call only after every recording thread has
     *  been joined. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    uint32_t
    threadNumber()
    {
        const pthread_t self = pthread_self();
        for (size_t i = 0; i < threads_.size(); ++i) {
            if (pthread_equal(threads_[i], self))
                return static_cast<uint32_t>(i + 1);
        }
        threads_.push_back(self);
        return static_cast<uint32_t>(threads_.size());
    }

    const Clock::time_point origin_;
    std::mutex mutex_;
    uint64_t lastId_ = 0;
    std::vector<Span> spans_;
    std::vector<pthread_t> threads_;
};

/**
 * RAII span. A span opened with newRequest = true starts a request: it
 * and every span nested inside it on this thread share its id as their
 * request id. Other spans inherit the enclosing request and take the
 * innermost open span on this thread as their parent.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, bool newRequest = false)
        : tracer_(tracer)
    {
        if (!tracer_)
            return;
        span_.name = name;
        span_.id = tracer_->newId();
        span_.parent = current().parent;
        span_.request = newRequest ? span_.id : current().request;
        saved_ = current();
        current() = {span_.id, span_.request};
        span_.startNs = tracer_->nowNs();
    }

    ~ScopedSpan()
    {
        if (!tracer_)
            return;
        span_.endNs = tracer_->nowNs();
        current() = saved_;
        tracer_->record(std::move(span_));
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    struct Open
    {
        uint64_t parent = 0;
        uint64_t request = 0;
    };

    static Open &
    current()
    {
        thread_local Open open;
        return open;
    }

    Tracer *tracer_;
    Span span_;
    Open saved_;
};

} // namespace rppm::benchmark

#endif // RPPM_BENCHMARK_TRACER_HH
