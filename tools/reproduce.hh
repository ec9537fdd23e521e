/**
 * @file
 * Registry of the paper's evaluation exhibits — Tables 1/4/5/6, Figures
 * 2-4 and 7-11 — plus three extensions, driven by
 * `unimem_cli reproduce <exhibit|all>`. DESIGN.md Section 4 maps each
 * exhibit to the paper and to the modules it exercises.
 */

#ifndef UNIMEM_TOOLS_REPRODUCE_HH
#define UNIMEM_TOOLS_REPRODUCE_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace unimem {

/** The flags an exhibit may read; each ignores the ones it has no use for. */
struct ExhibitConfig
{
    /** Workload scale; 0 selects the exhibit's default. */
    double scale = 0.0;

    /** Sweep workers (0: every hardware thread). */
    u32 jobs = 0;

    /** fig7 / fig9 ablation: false runs both designs without ORF/LRF. */
    bool rfHierarchy = true;

    /** ext_chip_validation: SM count and quantum. */
    u32 sms = 8;
    Cycle quantum = 64;
};

/** One reproducible exhibit. */
struct Exhibit
{
    const char* name;

    /** Scale used when ExhibitConfig::scale is 0 (0: simulates nothing). */
    double defaultScale;

    /** What it reproduces, for --list. */
    const char* title;

    /** Print the exhibit to @p os; the config's scale is resolved. */
    void (*run)(const ExhibitConfig& cfg, std::ostream& os);
};

/** Every exhibit, in paper order. */
const std::vector<Exhibit>& allExhibits();

/** Print the registry (name, default scale, title) as a table. */
void listExhibits(std::ostream& os);

/**
 * Run exhibit @p name, or every exhibit in registry order for "all",
 * in this process (so the result cache dedupes points across
 * exhibits). An unknown name, an SM count outside 1 to
 * ChipConfig::kMaxSms, and a scale that gives a kernel 2^32 or more
 * CTAs are fatal before anything is printed.
 */
void reproduce(const std::string& name, const ExhibitConfig& cfg,
               std::ostream& os);

} // namespace unimem

#endif // UNIMEM_TOOLS_REPRODUCE_HH
