/**
 * @file
 * The Table 5 breakdown of warp instructions by the maximum number of
 * accesses any one bank received (paper Section 6.1). The per-bank
 * counting itself is core/conflict_model's.
 */

#ifndef UNIMEM_MEM_BANK_CONFLICTS_HH
#define UNIMEM_MEM_BANK_CONFLICTS_HH

#include <array>

#include "common/types.hh"

namespace unimem {

/**
 * Table 5 histogram: warp instructions bucketed by the maximum number of
 * accesses any single bank received (<=1, 2, 3, 4, >4).
 */
class ConflictHistogram
{
  public:
    void
    record(u32 maxAccesses)
    {
        ++total_;
        if (maxAccesses <= 1)
            ++buckets_[0];
        else if (maxAccesses == 2)
            ++buckets_[1];
        else if (maxAccesses == 3)
            ++buckets_[2];
        else if (maxAccesses == 4)
            ++buckets_[3];
        else
            ++buckets_[4];
    }

    /** Fraction of instructions in bucket @p b (0: <=1 ... 4: >4). */
    double
    fraction(u32 b) const
    {
        return total_ == 0
                   ? 0.0
                   : static_cast<double>(buckets_[b]) /
                         static_cast<double>(total_);
    }

    u64 total() const { return total_; }
    u64 bucket(u32 b) const { return buckets_[b]; }

    void
    merge(const ConflictHistogram& o)
    {
        total_ += o.total_;
        for (u32 i = 0; i < 5; ++i)
            buckets_[i] += o.buckets_[i];
    }

    static constexpr u32 kNumBuckets = 5;
    static const char* bucketName(u32 b);

  private:
    std::array<u64, kNumBuckets> buckets_{};
    u64 total_ = 0;
};

} // namespace unimem

#endif // UNIMEM_MEM_BANK_CONFLICTS_HH
