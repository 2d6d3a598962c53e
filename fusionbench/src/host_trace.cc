#include "host_trace.h"

#include <cstdio>

#include "common/status.h"
#include "common/walltime.h"
#include "metric_math.h"

namespace fusionbench {

uint32_t
HostTracer::begin(const char *name, uint64_t request)
{
    if (!enabled_)
        return 0;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? 0 : open_.back();
    span.request = request;
    span.beginNs = fusion::walltime::monotonicNanos();
    spans_.push_back(span);
    uint32_t id = static_cast<uint32_t>(spans_.size());
    open_.push_back(id);
    return id;
}

void
HostTracer::end(uint32_t id)
{
    if (id == 0)
        return;
    spans_[id - 1].endNs = fusion::walltime::monotonicNanos();
    FUSION_CHECK_MSG(!open_.empty() && open_.back() == id,
                     "host spans must close innermost-first");
    open_.pop_back();
}

std::map<std::string, HostTracer::NameStats>
HostTracer::nameStats() const
{
    std::vector<std::vector<Interval>> children(spans_.size());
    for (const Span &s : spans_)
        if (s.parent != 0 && s.endNs != 0)
            children[s.parent - 1].push_back({s.beginNs, s.endNs});
    std::map<std::string, NameStats> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs == 0)
            continue;
        NameStats &stats = out[s.name];
        ++stats.calls;
        stats.totalNs += s.endNs - s.beginNs;
        stats.selfNs += selfLength(children[i], {s.beginNs, s.endNs});
    }
    return out;
}

std::string
HostTracer::toChromeJson() const
{
    std::string out = "{\"traceEvents\": [\n";
    uint64_t origin = spans_.empty() ? 0 : spans_.front().beginNs;
    char buf[256];
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs == 0)
            continue;
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"id\": %zu, \"parent\": %u, \"request\": %llu}}",
                      first ? "" : ",\n", s.name,
                      static_cast<double>(s.beginNs - origin) / 1e3,
                      static_cast<double>(s.endNs - s.beginNs) / 1e3, i + 1,
                      s.parent, static_cast<unsigned long long>(s.request));
        out += buf;
        first = false;
    }
    out += "\n]}\n";
    return out;
}

} // namespace fusionbench
