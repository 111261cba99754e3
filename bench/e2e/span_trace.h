/**
 * @file
 * In-memory span recorder of the end-to-end benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code, around calls into
 * the library's public functions (one span per layer call); nothing
 * inside the library is instrumented. A span carries a name such as
 * "core.solve", start and end on the steady clock, the span that
 * caused it, the request it belongs to and a display track. The
 * recorder is single-threaded by design: the benchmark makes every
 * traced call from its one generator thread.
 *
 * A layer's self time is its span's duration minus the time its
 * direct children cover. Spans are kept in memory and written once,
 * as Chrome trace-event JSON (open it in Perfetto or chrome://tracing).
 */

#ifndef ACCPAR_BENCH_E2E_SPAN_TRACE_H
#define ACCPAR_BENCH_E2E_SPAN_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace accpar::bench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two steady-clock points. */
inline std::int64_t
nanosBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
        .count();
}

/** Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<double>(nanosBetween(from, to)) / 1e6;
}

/** One timed call. Times are nanoseconds since the trace's origin. */
struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the causing span; -1 for a root. */
    int parent = -1;
    std::int64_t request = 0;
    /** Display lane (Chrome "tid"): 0 for in-process calls, the
     *  connection number + 1 for network round trips. */
    int track = 0;
};

/** Self time and call count of one span name. */
struct SelfTime
{
    double selfNs = 0.0;
    double totalNs = 0.0;
    std::int64_t calls = 0;
};

class SpanTrace
{
  public:
    SpanTrace();

    /** Opens a span nested under the innermost open one. */
    int begin(const std::string &name, std::int64_t request);

    /** Closes the innermost open span, which must be @p index. */
    void end(int index);

    /** Adds a finished root span (network round trips, which overlap
     *  on the one generator thread and so cannot nest). */
    void add(const std::string &name, Clock::time_point start,
             Clock::time_point end, std::int64_t request, int track);

    const std::vector<SpanRecord> &spans() const { return _spans; }

    /** Self time per span name over every recorded span. */
    std::map<std::string, SelfTime> selfTimes() const;

    /** Writes the Chrome trace-event document; throws on I/O error. */
    void writeChrome(const std::string &path) const;

  private:
    Clock::time_point _origin;
    std::vector<SpanRecord> _spans;
    std::vector<int> _open;
};

/** Scoped span: begins on construction, ends on destruction. */
class Span
{
  public:
    Span(SpanTrace &trace, const char *name, std::int64_t request)
        : _trace(trace), _index(trace.begin(name, request))
    {
    }
    ~Span() { _trace.end(_index); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanTrace &_trace;
    int _index;
};

} // namespace accpar::bench

#endif // ACCPAR_BENCH_E2E_SPAN_TRACE_H
