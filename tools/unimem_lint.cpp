/**
 * @file
 * unimem-lint: the trace validator over the shipped kernel models.
 *
 * Runs lintKernel() (analysis/lint.hh) over every registry benchmark —
 * or a --kernel subset — in parallel on a WorkerPool, prints a
 * per-kernel metrics table plus every diagnostic, and exits nonzero
 * when any kernel has findings. This is the gate
 * scripts/check.sh and CI run so a kernel-model edit that violates its
 * declared KernelParams fails the build instead of silently corrupting
 * figures.
 *
 * `unimem_lint --help` lists the flags.
 *
 * Exit status: 0 clean, 1 warnings only (or a fatal() flag error), 2
 * lint errors, 3 stray positional argument.
 */

#include <iostream>
#include <sstream>

#include "analysis/lint.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "common/worker_pool.hh"
#include "kernels/registry.hh"

using namespace unimem;

namespace {

std::vector<std::string>
selectKernels(const CliArgs& args)
{
    std::vector<std::string> names;
    if (args.has("kernel")) {
        std::stringstream ss(args.getString("kernel", ""));
        std::string item;
        while (std::getline(ss, item, ','))
            if (!item.empty()) {
                if (findBenchmark(item) == nullptr)
                    fatal("unknown benchmark '%s' (try 'unimem_cli "
                          "list')",
                          item.c_str());
                names.push_back(item);
            }
        if (names.empty())
            fatal("--kernel given but no benchmark names parsed");
    } else {
        for (const BenchmarkInfo& info : allBenchmarks())
            names.push_back(info.name);
    }
    return names;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

void
printJson(std::ostream& os, const std::vector<LintReport>& reports)
{
    os << "{\"schema_version\":3,\"kernels\":[";
    for (size_t i = 0; i < reports.size(); ++i) {
        const LintReport& r = reports[i];
        const LintMetrics& m = r.metrics;
        os << (i ? "," : "") << "{\"name\":\"" << jsonEscape(r.kernel)
           << "\",\"errors\":" << r.errors()
           << ",\"warnings\":" << r.warnings()
           << ",\"infos\":" << r.infos()
           << ",\"suppressed\":" << r.diags.suppressedCount()
           << ",\"metrics\":{"
           << "\"instrs\":" << m.instrs << ",\"memOps\":" << m.memOps
           << ",\"sharedOps\":" << m.sharedOps
           << ",\"regPressure\":" << m.regPressure
           << ",\"orfReachableFraction\":"
           << Table::num(m.orfReachableFraction(), 4)
           << ",\"avgSharedConflictDegree\":"
           << Table::num(m.avgSharedConflictDegree(), 4)
           << ",\"maxSharedConflictDegree\":" << m.sharedDegreeMax
           << "},\"diagnostics\":[";
        const auto& ds = r.diags.diagnostics();
        for (size_t j = 0; j < ds.size(); ++j) {
            const Diagnostic& d = ds[j];
            os << (j ? "," : "") << "{\"id\":\"" << diagName(d.id)
               << "\",\"severity\":\"" << severityName(d.severity)
               << "\",\"location\":\"" << jsonEscape(d.loc.str())
               << "\",\"message\":\"" << jsonEscape(d.message)
               << "\",\"occurrences\":" << d.occurrences << "}";
        }
        os << "]}";
    }
    os << "]}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    const char* usage = "usage: unimem_lint [flags]";
    CliArgs args(
        argc, argv, usage,
        {{"kernel", "a,b,c", "lint only these benchmarks (default: all 26)"},
         {"scale", "F", "workload scale (default 0.5, as unimem_cli)"},
         {"jobs", "N", "worker threads (default: all cores)"},
         {"Werror", "", "treat warnings as errors"},
         {"max-instrs", "N",
          "trace-prefix bound per sampled warp (default 4096)"},
         {"json", "",
          "machine-readable report on stdout (summary line on stderr)"},
         {"quiet", "", "suppress per-diagnostic lines (summary table only)"}});
    if (!args.positional().empty()) {
        std::cerr << usage << " (see --help)\n";
        return 3;
    }

    std::vector<std::string> names = selectKernels(args);
    double scale = args.getDouble("scale", 0.5);
    u32 jobs = args.getCount("jobs", 0);

    LintOptions opt;
    opt.werror = args.getBool("Werror", false);
    opt.maxInstrsPerWarp = args.getCount("max-instrs", 4096);

    // Each kernel writes its LintReport into its own slot, so the
    // report vector is identical at any worker count.
    std::vector<LintReport> reports(names.size());
    WorkerPool(jobs).dispatch(static_cast<u32>(names.size()), [&](u32 i) {
        reports[i] = lintKernel(*createBenchmark(names[i], scale), opt);
    });

    u64 errors = 0, warnings = 0;
    for (const LintReport& r : reports) {
        errors += r.errors();
        warnings += r.warnings();
    }
    int exit_code = errors > 0 ? 2 : warnings > 0 ? 1 : 0;

    std::ostringstream summary;
    summary << "lint: " << names.size() << " kernels, " << errors
            << " errors, " << warnings << " warnings\n";
    if (args.getBool("json", false)) {
        printJson(std::cout, reports);
        std::cerr << summary.str();
        return exit_code;
    }

    Table t({"kernel", "instrs", "errors", "warns", "infos", "pressure",
             "orf-reach", "shared-degree avg/max"});
    for (const LintReport& r : reports) {
        const LintMetrics& m = r.metrics;
        t.addRow({r.kernel, std::to_string(m.instrs),
                  std::to_string(r.errors()), std::to_string(r.warnings()),
                  std::to_string(r.infos()),
                  std::to_string(m.regPressure),
                  Table::num(m.orfReachableFraction(), 3),
                  Table::num(m.avgSharedConflictDegree(), 2) + " / " +
                      std::to_string(m.sharedDegreeMax)});
    }
    t.print(std::cout);

    if (!args.getBool("quiet", false))
        for (const LintReport& r : reports)
            r.diags.print(std::cout);

    std::cout << summary.str();
    return exit_code;
}
