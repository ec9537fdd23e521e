/**
 * @file
 * Diagnostic vocabulary and collection engine for the static trace
 * analyzer (analysis/lint.hh).
 *
 * Modeled on a compiler driver: every finding is a named diagnostic with
 * a severity and a source location (kernel, CTA, warp, instruction
 * index). The engine deduplicates repeated findings (a loop that reads
 * an uninitialized register reports once, with an occurrence count),
 * caps the number of distinct sites kept per diagnostic kind, and
 * supports -Werror-style severity promotion.
 */

#ifndef UNIMEM_ANALYSIS_DIAGNOSTIC_HH
#define UNIMEM_ANALYSIS_DIAGNOSTIC_HH

#include <array>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace unimem {

/** Diagnostic severity, ordered so that higher is worse. */
enum class Severity : u8
{
    Info,
    Warning,
    Error,
};

const char* severityName(Severity s);

/**
 * Every check the analyzer can report (DESIGN.md Sections 7 and 11).
 * Ids leave the process only by name (diagName), so the numbering is
 * free to change.
 */
enum class DiagId : u16
{
    // (a) dataflow
    ReadBeforeWrite, ///< register read with no prior def, not live-in

    // (b) declared register footprint
    RegOutOfRange, ///< register id >= params().regsPerThread

    // (c) address-space invariants
    SharedOutOfBounds,     ///< scratchpad access outside the CTA's slab
    SharedUnallocated,     ///< shared access with sharedBytesPerCta == 0
    LocalOutsideAperture,  ///< local access below kLocalBase
    GlobalInLocalAperture, ///< global/tex access inside the local window
    ImpossibleLaneSpread,  ///< one warp access spanning > 1 GB
    MisalignedAddress,     ///< lane address not accessBytes-aligned
    LineCrossingAccess,    ///< lane access crossing its 128-byte line

    // (d) instruction well-formedness
    BadArity,          ///< numSrc outside the opcode's shape
    MissingDst,        ///< opcode produces a value but dst is invalid
    UnexpectedDst,     ///< store/barrier carrying a destination
    InvalidSrcOperand, ///< src[i] == kInvalidReg for i < numSrc
    EmptyActiveMask,   ///< memory op with no active lanes
    BadAccessBytes,    ///< memory op failing validAccessBytes()

    // (e) derived-metric advisories
    LowOrfCapture, ///< ORF-reachable read fraction below the paper's band

    // (f) barrier synchronization
    BarrierDivergence,  ///< warps of one CTA reach unequal Bar counts
    TraceBoundExceeded, ///< whole-trace scan hit its instruction budget

    // (g) register hazards across ORF capture windows
    DeadLoadOverwrite, ///< LL-load result overwritten with zero reads
    OrfWindowWaw,      ///< same-window redefinition with zero reads

    // (h) unified-pool allocation legality
    AllocInfeasibleLaunch,  ///< allocation cannot fit the launch shape
    AllocOverSubscribed,    ///< partitions exceed the pool capacity
    AllocPartitionOverlap,  ///< cache/scratch/RF partition overlap
};

constexpr u32 kNumDiagIds =
    static_cast<u32>(DiagId::AllocPartitionOverlap) + 1;

/** Stable kebab-case name, e.g. "read-before-write". */
const char* diagName(DiagId id);

/** Built-in severity of @p id before any -Werror promotion. */
Severity diagDefaultSeverity(DiagId id);

/**
 * Assert the diagnostic registry's integrity: every id in
 * [0, kNumDiagIds) has a non-empty kebab-case name and no two ids share
 * a name. Panics on violation.
 */
void verifyDiagRegistry();

/** Where a diagnostic fired. */
struct DiagLoc
{
    std::string kernel;
    u32 ctaId = 0;
    u32 warpInCta = 0;

    /** Instruction index within the warp's trace, or kNoInstr. */
    u64 instrIndex = kNoInstr;

    static constexpr u64 kNoInstr = ~u64(0);

    /** "kernel:cta0:w1:i42" (omits the instruction when kNoInstr). */
    std::string str() const;
};

/** One deduplicated finding. */
struct Diagnostic
{
    DiagId id = DiagId::ReadBeforeWrite;
    Severity severity = Severity::Error;
    DiagLoc loc;
    std::string message;

    /** Times this (id, warp, message) site fired; first location kept. */
    u64 occurrences = 1;

    /** "kernel:cta0:w1:i42: error: message [read-before-write] (x3)" */
    std::string str() const;
};

/** Collection policy of a DiagnosticEngine. */
struct DiagnosticOptions
{
    /** Promote warnings to errors at report time (-Werror). */
    bool werror = false;

    /** Distinct stored sites per DiagId; further ones are counted. */
    u32 maxSitesPerId = 16;
};

/**
 * Collects diagnostics with deduplication and severity gating.
 *
 * Deduplication key: (id, kernel, ctaId, warpInCta, message) — the first
 * occurrence keeps its location, later ones bump the count. Per
 * diagnostic id at most maxSitesPerId distinct sites are stored;
 * overflow sites are only counted (suppressedCount). All state is
 * deterministic: insertion order is trace order.
 */
class DiagnosticEngine
{
  public:
    explicit DiagnosticEngine(const DiagnosticOptions& opt = {})
        : opt_(opt)
    {
    }

    /** Report a finding with the id's default (possibly promoted)
     *  severity. */
    void report(DiagId id, const DiagLoc& loc, std::string message);

    /** Findings in first-occurrence order. */
    const std::vector<Diagnostic>& diagnostics() const { return diags_; }

    /** Findings (deduplicated sites) at exactly @p s. */
    u64 count(Severity s) const;

    /** Deduplicated sites with the given id. */
    u64 countOf(DiagId id) const;

    /** Sites dropped by the per-id cap. */
    u64 suppressedCount() const { return suppressed_; }

    bool hasErrors() const { return count(Severity::Error) > 0; }

    /** One line per finding, plus a suppression note when applicable. */
    void print(std::ostream& os) const;

  private:
    DiagnosticOptions opt_;
    std::vector<Diagnostic> diags_;

    /** Dedup key -> index into diags_. */
    std::map<std::string, size_t> index_;

    /** Stored sites per id (enforces maxSitesPerId). */
    std::array<u64, kNumDiagIds> sitesPerId_{};

    u64 suppressed_ = 0;
};

} // namespace unimem

#endif // UNIMEM_ANALYSIS_DIAGNOSTIC_HH
