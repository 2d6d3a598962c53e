/**
 * @file
 * Host-time spans recorded by the benchmark around every public call
 * it makes into the store (parse, queryAsync/submit, awaitAny, engine
 * step slices, appendAsync, put, compaction folds). Spans carry name,
 * start, end, parent and a request id shared by every span of one
 * query or append; they stay in memory and are written out when the run
 * ends. Timestamps come from common/walltime, the repository's only
 * sanctioned clock. A disabled tracer records nothing and reads no
 * clock, so untraced runs pay one branch per call.
 */
#ifndef FUSIONBENCH_HOST_TRACE_H
#define FUSIONBENCH_HOST_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fusionbench {

class HostTracer
{
  public:
    struct Span {
        const char *name = "";
        uint32_t parent = 0; // 1-based span id, 0 for a root
        uint64_t request = 0;
        uint64_t beginNs = 0;
        uint64_t endNs = 0; // 0 while open
    };

    /** Per-name totals over closed spans. */
    struct NameStats {
        uint64_t calls = 0;
        uint64_t totalNs = 0;
        uint64_t selfNs = 0; // total minus the union of child spans
    };

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Opens a span nested in the innermost open one; returns its
     *  1-based id, or 0 when disabled. */
    uint32_t begin(const char *name, uint64_t request = 0);
    /** Closes span `id` (no-op for 0); spans must close innermost-first. */
    void end(uint32_t id);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(HostTracer &tracer, const char *name, uint64_t request = 0)
            : tracer_(tracer), id_(tracer.begin(name, request))
        {
        }
        ~Scope() { tracer_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostTracer &tracer_;
        uint32_t id_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Self and total time per span name, sorted by name. */
    std::map<std::string, NameStats> nameStats() const;

    /** Chrome trace_event JSON of every closed span. */
    std::string toChromeJson() const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<uint32_t> open_; // stack of open span ids
};

} // namespace fusionbench

#endif // FUSIONBENCH_HOST_TRACE_H
