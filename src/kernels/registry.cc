#include "kernels/registry.hh"

#include <cmath>

#include "common/log.hh"
#include "kernels/workloads.hh"

namespace unimem {

u32
scaledCtas(u32 base, double scale)
{
    // Every kernel's grid, and so every --scale a tool or example
    // reads, comes through here. Converting an out-of-range double to
    // u32 is undefined behaviour.
    if (!(scale > 0.0) || !std::isfinite(scale))
        fatal("workload scale %g: must be a positive finite number", scale);
    double v = static_cast<double>(base) * scale + 0.5;
    if (v >= 4294967296.0)
        fatal("workload scale %g: %.0f CTAs do not fit in 32 bits", scale,
              v - 0.5);
    u32 ctas = static_cast<u32>(v);
    return ctas == 0 ? 1 : ctas;
}

const char*
categoryName(WorkloadCategory c)
{
    switch (c) {
      case WorkloadCategory::SharedLimited: return "shared-limited";
      case WorkloadCategory::CacheLimited: return "cache-limited";
      case WorkloadCategory::RegisterLimited: return "register-limited";
      case WorkloadCategory::Balanced: return "balanced";
    }
    panic("categoryName: bad category %d", static_cast<int>(c));
}

const std::vector<BenchmarkInfo>&
allBenchmarks()
{
    using WC = WorkloadCategory;
    static const std::vector<BenchmarkInfo> table = {
        // name, category, benefits, regs, shared B/thr, dram 0/64K/256K
        {"needle", WC::SharedLimited, true, 18, 264.1, 0.85, 1.00, 1.00},
        {"sto", WC::SharedLimited, false, 33, 127.0, 3.95, 1.00, 1.00},
        {"lu", WC::SharedLimited, true, 20, 96.0, 1.94, 1.46, 1.00},
        {"gpu-mummer", WC::CacheLimited, true, 21, 0.0, 1.48, 1.01, 1.00},
        {"bfs", WC::CacheLimited, true, 9, 0.0, 1.46, 1.13, 1.00},
        {"backprop", WC::CacheLimited, false, 17, 2.125, 1.56, 1.00, 1.00},
        {"matrixmul", WC::CacheLimited, false, 17, 8.0, 4.77, 1.00, 1.00},
        {"nbody", WC::CacheLimited, false, 23, 0.0, 3.52, 1.00, 1.00},
        {"vectoradd", WC::CacheLimited, false, 9, 0.0, 3.88, 1.00, 1.00},
        {"srad", WC::CacheLimited, true, 18, 24.0, 1.22, 1.20, 1.00},
        {"dgemm", WC::RegisterLimited, true, 57, 66.5, 1.00, 1.00, 1.00},
        {"pcr", WC::RegisterLimited, true, 33, 20.0, 2.88, 1.29, 1.00},
        {"bicubictexture", WC::RegisterLimited, false, 33, 0.0, 1.00, 1.00,
         1.00},
        {"hwt", WC::RegisterLimited, false, 35, 23.0, 1.00, 1.00, 1.00},
        {"ray", WC::RegisterLimited, true, 42, 0.0, 1.02, 1.07, 1.00},
        {"hotspot", WC::Balanced, false, 22, 12.0, 1.44, 1.00, 1.00},
        {"recursivegaussian", WC::Balanced, false, 23, 2.125, 1.04, 1.03,
         1.00},
        {"sad", WC::Balanced, false, 31, 0.0, 1.01, 1.01, 1.00},
        {"scalarprod", WC::Balanced, false, 18, 16.0, 1.00, 1.00, 1.00},
        {"sgemv", WC::Balanced, false, 14, 4.0, 1.01, 1.01, 1.00},
        {"sobolqrng", WC::Balanced, false, 12, 2.0, 1.00, 1.00, 1.00},
        {"aes", WC::Balanced, false, 28, 24.0, 1.00, 1.00, 1.00},
        {"dct8x8", WC::Balanced, false, 26, 0.0, 1.00, 1.00, 1.00},
        {"dwthaar1d", WC::Balanced, false, 14, 8.0, 1.00, 1.00, 1.00},
        {"lps", WC::Balanced, false, 15, 19.0, 1.48, 1.00, 1.00},
        {"nn", WC::Balanced, false, 13, 0.0, 20.81, 1.07, 1.00},
    };
    return table;
}

const BenchmarkInfo*
findBenchmark(const std::string& name)
{
    for (const BenchmarkInfo& info : allBenchmarks())
        if (name == info.name)
            return &info;
    return nullptr;
}

std::vector<std::string>
benefitBenchmarkNames()
{
    std::vector<std::string> out;
    for (const BenchmarkInfo& info : allBenchmarks())
        if (info.benefits)
            out.push_back(info.name);
    return out;
}

std::vector<std::string>
noBenefitBenchmarkNames()
{
    std::vector<std::string> out;
    for (const BenchmarkInfo& info : allBenchmarks())
        if (!info.benefits)
            out.push_back(info.name);
    return out;
}

std::unique_ptr<KernelModel>
createBenchmark(const std::string& name, double scale)
{
    if (name == "needle")
        return makeNeedle(32, scale);
    if (name == "sto")
        return makeSto(scale);
    if (name == "lu")
        return makeLu(scale);
    if (name == "gpu-mummer")
        return makeMummer(scale);
    if (name == "bfs")
        return makeBfs(scale);
    if (name == "backprop")
        return makeBackprop(scale);
    if (name == "matrixmul")
        return makeMatrixMul(scale);
    if (name == "nbody")
        return makeNbody(scale);
    if (name == "vectoradd")
        return makeVectorAdd(scale);
    if (name == "srad")
        return makeSrad(scale);
    if (name == "dgemm")
        return makeDgemm(scale);
    if (name == "pcr")
        return makePcr(scale);
    if (name == "bicubictexture")
        return makeBicubicTexture(scale);
    if (name == "hwt")
        return makeHwt(scale);
    if (name == "ray")
        return makeRay(scale);
    if (name == "hotspot")
        return makeHotspot(scale);
    if (name == "recursivegaussian")
        return makeRecursiveGaussian(scale);
    if (name == "sad")
        return makeSad(scale);
    if (name == "scalarprod")
        return makeScalarProd(scale);
    if (name == "sgemv")
        return makeSgemv(scale);
    if (name == "sobolqrng")
        return makeSobolQrng(scale);
    if (name == "aes")
        return makeAes(scale);
    if (name == "dct8x8")
        return makeDct8x8(scale);
    if (name == "dwthaar1d")
        return makeDwtHaar1d(scale);
    if (name == "lps")
        return makeLps(scale);
    if (name == "nn")
        return makeNn(scale);
    fatal("createBenchmark: unknown benchmark '%s'", name.c_str());
}

} // namespace unimem
