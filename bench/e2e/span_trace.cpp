#include "span_trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/error.h"
#include "util/json.h"

namespace accpar::bench {

SpanTrace::SpanTrace() : _origin(Clock::now()) {}

int
SpanTrace::begin(const std::string &name, std::int64_t request)
{
    SpanRecord span;
    span.name = name;
    span.parent = _open.empty() ? -1 : _open.back();
    span.request = request;
    span.startNs = nanosBetween(_origin, Clock::now());
    _spans.push_back(std::move(span));
    const int index = static_cast<int>(_spans.size()) - 1;
    _open.push_back(index);
    return index;
}

void
SpanTrace::end(int index)
{
    const std::int64_t now = nanosBetween(_origin, Clock::now());
    if (_open.empty() || _open.back() != index) {
        // Spans nest strictly on one thread; anything else is a bug in
        // the benchmark, and a mis-nested trace would misattribute time.
        std::fputs("span_trace: spans closed out of order\n", stderr);
        std::abort();
    }
    _open.pop_back();
    _spans[static_cast<std::size_t>(index)].endNs = now;
}

void
SpanTrace::add(const std::string &name, Clock::time_point start,
               Clock::time_point end, std::int64_t request, int track)
{
    SpanRecord span;
    span.name = name;
    span.startNs = nanosBetween(_origin, start);
    span.endNs = nanosBetween(_origin, end);
    span.request = request;
    span.track = track;
    _spans.push_back(std::move(span));
}

std::map<std::string, SelfTime>
SpanTrace::selfTimes() const
{
    std::vector<double> child_ns(_spans.size(), 0.0);
    for (const SpanRecord &span : _spans)
        if (span.parent >= 0)
            child_ns[static_cast<std::size_t>(span.parent)] +=
                static_cast<double>(span.endNs - span.startNs);

    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const double total =
            static_cast<double>(_spans[i].endNs - _spans[i].startNs);
        SelfTime &entry = out[_spans[i].name];
        entry.totalNs += total;
        entry.selfNs += total - child_ns[i];
        entry.calls += 1;
    }
    return out;
}

void
SpanTrace::writeChrome(const std::string &path) const
{
    util::Json events{util::Json::Array{}};
    for (const SpanRecord &span : _spans) {
        util::Json event = util::Json::Object{};
        event["name"] = span.name;
        event["cat"] = span.name.substr(0, span.name.find('.'));
        event["ph"] = "X";
        event["ts"] = static_cast<double>(span.startNs) / 1e3;
        event["dur"] = static_cast<double>(span.endNs - span.startNs) / 1e3;
        event["pid"] = 1;
        event["tid"] = span.track;
        util::Json args = util::Json::Object{};
        args["request"] = span.request;
        if (span.parent >= 0)
            args["parent"] =
                _spans[static_cast<std::size_t>(span.parent)].name;
        event["args"] = std::move(args);
        events.push(std::move(event));
    }
    util::Json doc = util::Json::Object{};
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";

    std::ofstream out(path);
    out << doc.dump() << '\n';
    if (!out.good())
        throw util::ConfigError("cannot write trace file " + path);
}

} // namespace accpar::bench
