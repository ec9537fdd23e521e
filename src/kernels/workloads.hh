/**
 * @file
 * Factory functions for the 26 synthetic workload models (paper Table 1).
 * Each model reproduces its benchmark's resource footprint (registers per
 * thread, scratchpad bytes, spill curve) and memory behaviour (working
 * set, coalescing, reuse pattern); see DESIGN.md Section 6.
 *
 * @param scale multiplies the amount of work (grid CTAs); 1.0 is the
 *        default evaluation size, tests use smaller values.
 */

#ifndef UNIMEM_KERNELS_WORKLOADS_HH
#define UNIMEM_KERNELS_WORKLOADS_HH

#include <memory>

#include "arch/kernel_model.hh"

namespace unimem {

/**
 * Scale a base CTA count, keeping at least one CTA. fatal() unless
 * @p scale is finite and > 0 and the scaled count fits in 32 bits.
 */
u32 scaledCtas(u32 base, double scale);

/** Common base for the synthetic kernels: stores the KernelParams. */
class SyntheticKernel : public KernelModel
{
  public:
    const KernelParams& params() const override { return params_; }

  protected:
    KernelParams params_;
};

// Shared-memory-limited workloads.
std::unique_ptr<KernelModel> makeNeedle(u32 blockingFactor, double scale);
std::unique_ptr<KernelModel> makeSto(double scale);
std::unique_ptr<KernelModel> makeLu(double scale);

// Cache-limited workloads.
std::unique_ptr<KernelModel> makeMummer(double scale);
std::unique_ptr<KernelModel> makeBfs(double scale);
std::unique_ptr<KernelModel> makeBackprop(double scale);
std::unique_ptr<KernelModel> makeMatrixMul(double scale);
std::unique_ptr<KernelModel> makeNbody(double scale);
std::unique_ptr<KernelModel> makeVectorAdd(double scale);
std::unique_ptr<KernelModel> makeSrad(double scale);

// Register-limited workloads.
std::unique_ptr<KernelModel> makeDgemm(double scale);
std::unique_ptr<KernelModel> makePcr(double scale);
std::unique_ptr<KernelModel> makeBicubicTexture(double scale);
std::unique_ptr<KernelModel> makeHwt(double scale);
std::unique_ptr<KernelModel> makeRay(double scale);

// Balanced / minimal-requirement workloads.
std::unique_ptr<KernelModel> makeHotspot(double scale);
std::unique_ptr<KernelModel> makeRecursiveGaussian(double scale);
std::unique_ptr<KernelModel> makeSad(double scale);
std::unique_ptr<KernelModel> makeScalarProd(double scale);
std::unique_ptr<KernelModel> makeSgemv(double scale);
std::unique_ptr<KernelModel> makeSobolQrng(double scale);
std::unique_ptr<KernelModel> makeAes(double scale);
std::unique_ptr<KernelModel> makeDct8x8(double scale);
std::unique_ptr<KernelModel> makeDwtHaar1d(double scale);
std::unique_ptr<KernelModel> makeLps(double scale);
std::unique_ptr<KernelModel> makeNn(double scale);

} // namespace unimem

#endif // UNIMEM_KERNELS_WORKLOADS_HH
