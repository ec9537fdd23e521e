#include "spans.hh"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

thread_local std::int32_t tlParent = kNoSpan;
thread_local std::uint32_t tlPoint = kNoPoint;

} // namespace

Tracer&
Tracer::instance()
{
    static Tracer t;
    return t;
}

std::int64_t
Tracer::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int32_t
Tracer::begin(const char* name, std::uint32_t point, std::int32_t parent)
{
    Span s;
    s.name = name;
    s.point = point;
    s.parent = parent;
    s.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
Tracer::end(std::int32_t span)
{
    std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(span)].endNs = t;
}

void
Tracer::count(const std::string& name, double v)
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += v;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, double>
Tracer::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::map<std::string, SpanTotals>
Tracer::totals(size_t from) const
{
    std::vector<Span> all = spans();
    std::vector<std::vector<std::int32_t>> children(all.size());
    for (size_t i = from; i < all.size(); ++i)
        if (all[i].parent != kNoSpan)
            children[static_cast<size_t>(all[i].parent)].push_back(
                static_cast<std::int32_t>(i));

    std::map<std::string, SpanTotals> out;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (size_t i = from; i < all.size(); ++i) {
        const Span& s = all[i];
        std::int64_t dur = s.endNs - s.startNs;
        // Children of a sweep span run concurrently on several workers,
        // so subtract the union of their intervals, not their sum.
        iv.clear();
        for (std::int32_t c : children[i])
            iv.emplace_back(all[static_cast<size_t>(c)].startNs,
                            all[static_cast<size_t>(c)].endNs);
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto& [a, b] : iv) {
            std::int64_t lo = std::max(a, reach);
            if (b > lo) {
                covered += b - lo;
                reach = b;
            }
        }
        SpanTotals& t = out[s.name];
        ++t.count;
        t.totalS += static_cast<double>(dur) * 1e-9;
        t.selfS += static_cast<double>(dur - covered) * 1e-9;
    }
    return out;
}

void
Tracer::writeJson(std::ostream& os) const
{
    std::vector<Span> all = spans();
    std::int64_t epoch = all.empty() ? 0 : all.front().startNs;
    os << "{\n  \"spans\": [\n";
    for (size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        os << "    {\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"parent\": " << s.parent << ", \"point\": "
           << (s.point == kNoPoint ? -1 : static_cast<long long>(s.point))
           << ", \"start_ns\": " << (s.startNs - epoch)
           << ", \"end_ns\": " << (s.endNs - epoch) << "}"
           << (i + 1 < all.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"totals\": {\n";
    std::map<std::string, SpanTotals> tot = totals();
    size_t n = 0;
    for (const auto& [name, t] : tot) {
        os << "    \"" << name << "\": {\"count\": " << t.count
           << ", \"total_s\": " << t.totalS << ", \"self_s\": " << t.selfS
           << "}" << (++n < tot.size() ? ",\n" : "\n");
    }
    os << "  },\n  \"counters\": {\n";
    std::map<std::string, double> ctr = counters();
    n = 0;
    for (const auto& [name, v] : ctr)
        os << "    \"" << name << "\": " << v
           << (++n < ctr.size() ? ",\n" : "\n");
    os << "  }\n}\n";
}

ScopedSpan::ScopedSpan(const char* name)
    : ScopedSpan(name, tlPoint, tlParent)
{
}

ScopedSpan::ScopedSpan(const char* name, std::uint32_t point,
                       std::int32_t parent)
{
    Tracer& t = Tracer::instance();
    if (!t.enabled())
        return;
    prevParent_ = tlParent;
    prevPoint_ = tlPoint;
    id_ = t.begin(name, point, parent);
    tlParent = id_;
    tlPoint = point;
}

ScopedSpan::~ScopedSpan()
{
    if (id_ == kNoSpan)
        return;
    Tracer::instance().end(id_);
    tlParent = prevParent_;
    tlPoint = prevPoint_;
}

} // namespace perfbench
