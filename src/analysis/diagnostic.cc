#include "analysis/diagnostic.hh"

#include "common/log.hh"

namespace unimem {

const char*
severityName(Severity s)
{
    switch (s) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    panic("severityName: bad severity %d", static_cast<int>(s));
}

const char*
diagName(DiagId id)
{
    switch (id) {
      case DiagId::ReadBeforeWrite: return "read-before-write";
      case DiagId::RegOutOfRange: return "reg-out-of-range";
      case DiagId::SharedOutOfBounds: return "shared-out-of-bounds";
      case DiagId::SharedUnallocated: return "shared-unallocated";
      case DiagId::LocalOutsideAperture: return "local-outside-aperture";
      case DiagId::GlobalInLocalAperture:
        return "global-in-local-aperture";
      case DiagId::ImpossibleLaneSpread: return "impossible-lane-spread";
      case DiagId::MisalignedAddress: return "misaligned-address";
      case DiagId::LineCrossingAccess: return "line-crossing-access";
      case DiagId::BadArity: return "bad-arity";
      case DiagId::MissingDst: return "missing-dst";
      case DiagId::UnexpectedDst: return "unexpected-dst";
      case DiagId::InvalidSrcOperand: return "invalid-src-operand";
      case DiagId::EmptyActiveMask: return "empty-active-mask";
      case DiagId::BadAccessBytes: return "bad-access-bytes";
      case DiagId::LowOrfCapture: return "low-orf-capture";
      case DiagId::BarrierDivergence: return "barrier-divergence";
      case DiagId::TraceBoundExceeded: return "trace-bound-exceeded";
      case DiagId::DeadLoadOverwrite: return "dead-load-overwrite";
      case DiagId::OrfWindowWaw: return "orf-window-waw";
      case DiagId::AllocInfeasibleLaunch:
        return "alloc-infeasible-launch";
      case DiagId::AllocOverSubscribed: return "alloc-over-subscribed";
      case DiagId::AllocPartitionOverlap:
        return "alloc-partition-overlap";
    }
    panic("diagName: bad diag id %d", static_cast<int>(id));
}

Severity
diagDefaultSeverity(DiagId id)
{
    switch (id) {
      // Advisory metrics: never gate the suite. Dead loads and
      // window WAWs are wasted work, not broken semantics — the
      // synthetic benchmark generators produce both routinely.
      case DiagId::LowOrfCapture:
      case DiagId::OrfWindowWaw:
      case DiagId::DeadLoadOverwrite:
        return Severity::Info;
      // Suspicious but survivable: a misaligned access inside one line
      // is timed like any other (only a line-crossing one is illegal);
      // it usually indicates address-generation sloppiness, not a
      // model-corrupting bug. A truncated whole-trace scan likewise
      // weakens a proof without evidencing a defect.
      case DiagId::MisalignedAddress:
      case DiagId::TraceBoundExceeded:
        return Severity::Warning;
      default:
        return Severity::Error;
    }
}

void
verifyDiagRegistry()
{
    // Dense and unique: every id names itself and no name repeats.
    for (u32 i = 0; i < kNumDiagIds; ++i) {
        const char* name = diagName(static_cast<DiagId>(i));
        if (name == nullptr || name[0] == '\0')
            panic("verifyDiagRegistry: id %u has no name", i);
        for (char c : std::string(name))
            if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '-'))
                panic("verifyDiagRegistry: '%s' is not kebab-case",
                      name);
        for (u32 j = 0; j < i; ++j)
            if (std::string(name) == diagName(static_cast<DiagId>(j)))
                panic("verifyDiagRegistry: ids %u and %u share '%s'", j,
                      i, name);
        severityName(diagDefaultSeverity(static_cast<DiagId>(i)));
    }
}

std::string
DiagLoc::str() const
{
    std::string s = kernel + ":cta" + std::to_string(ctaId) + ":w" +
                    std::to_string(warpInCta);
    if (instrIndex != kNoInstr)
        s += ":i" + std::to_string(instrIndex);
    return s;
}

std::string
Diagnostic::str() const
{
    std::string s = loc.str() + ": " + severityName(severity) + ": " +
                    message + " [" + diagName(id) + "]";
    if (occurrences > 1)
        s += " (x" + std::to_string(occurrences) + ")";
    return s;
}

void
DiagnosticEngine::report(DiagId id, const DiagLoc& loc, std::string message)
{
    std::string key = std::to_string(static_cast<u32>(id)) + "|" +
                      loc.kernel + "|" + std::to_string(loc.ctaId) + "|" +
                      std::to_string(loc.warpInCta) + "|" + message;
    Severity sev = diagDefaultSeverity(id);
    if (opt_.werror && sev == Severity::Warning)
        sev = Severity::Error;
    auto it = index_.find(key);
    if (it != index_.end()) {
        ++diags_[it->second].occurrences;
        return;
    }
    if (sitesPerId_[static_cast<u32>(id)] >= opt_.maxSitesPerId) {
        ++suppressed_;
        return;
    }
    ++sitesPerId_[static_cast<u32>(id)];

    Diagnostic d;
    d.id = id;
    d.severity = sev;
    d.loc = loc;
    d.message = std::move(message);
    index_.emplace(std::move(key), diags_.size());
    diags_.push_back(std::move(d));
}

u64
DiagnosticEngine::count(Severity s) const
{
    u64 n = 0;
    for (const Diagnostic& d : diags_)
        if (d.severity == s)
            ++n;
    return n;
}

u64
DiagnosticEngine::countOf(DiagId id) const
{
    u64 n = 0;
    for (const Diagnostic& d : diags_)
        if (d.id == id)
            ++n;
    return n;
}

void
DiagnosticEngine::print(std::ostream& os) const
{
    for (const Diagnostic& d : diags_)
        os << d.str() << "\n";
    if (suppressed_ > 0)
        os << "(" << suppressed_
           << " further sites suppressed by the per-check cap)\n";
}

} // namespace unimem
