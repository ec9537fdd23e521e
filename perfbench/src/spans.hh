/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is a named [start, end) interval on the steady clock with a
 * parent span and a point id; every span recorded while one sweep point
 * executes carries that point's id. Spans are appended under a mutex
 * (a traced batch records a few thousand of them) and written out once
 * the run ends. Counters are recorded at the same call boundaries.
 *
 * When tracing is off ScopedSpan costs one branch, and the untraced
 * benchmark paths do not construct spans at all.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

constexpr std::int32_t kNoSpan = -1;
constexpr std::uint32_t kNoPoint = 0xffffffffu;

struct Span
{
    const char* name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = kNoSpan;
    std::uint32_t point = kNoPoint;
};

/** Per-name totals derived from the recorded spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalS = 0.0;
    /** Duration minus the union of child intervals, summed. */
    double selfS = 0.0;
};

class Tracer
{
  public:
    static Tracer& instance();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    std::int32_t begin(const char* name, std::uint32_t point,
                       std::int32_t parent);
    void end(std::int32_t span);

    /** Add @p v to counter @p name. */
    void count(const std::string& name, double v);

    std::vector<Span> spans() const;
    std::map<std::string, double> counters() const;

    /** Spans recorded so far (a batch's spans start at this index). */
    size_t size() const;

    /** Totals and self times per span name, over spans [from, end). */
    std::map<std::string, SpanTotals> totals(size_t from = 0) const;

    /** Spans, per-name totals and counters as one JSON document. */
    void writeJson(std::ostream& os) const;

    static std::int64_t nowNs();

  private:
    bool enabled_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::string, double> counters_;
};

/**
 * RAII span. The parent defaults to the innermost open span of the
 * calling thread and the point id to that span's point; a sweep job
 * running on a pool thread passes both explicitly.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char* name);
    ScopedSpan(const char* name, std::uint32_t point, std::int32_t parent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::int32_t id() const { return id_; }

  private:
    std::int32_t id_ = kNoSpan;
    std::int32_t prevParent_ = kNoSpan;
    std::uint32_t prevPoint_ = kNoPoint;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
