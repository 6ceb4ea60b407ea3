/**
 * @file
 * Deterministic Zipfian rank sampling for the heavy-traffic generators.
 *
 * Key popularity in production KV stores and multi-tenant request rates
 * both follow power laws (YCSB's default is Zipf with s = 0.99). The
 * sampler draws by binary search over the normalized CDF on a single
 * uniform variate, so draws cost O(log n), depend only on the Rng
 * stream, and are bit-identical across hosts.
 *
 * The CDF is immutable, so samplers with the same (n, exponent) share
 * one table. It is computed the first time a process asks for that
 * pair and then lives until the process exits: building a workload
 * costs no std::pow after the first trial. A table costs 8 bytes per
 * rank; the repository's generators use three (4,096, 2,048 and 64
 * ranks, about 50 KB together).
 */

#ifndef SECPB_WORKLOAD_ZIPF_HH
#define SECPB_WORKLOAD_ZIPF_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/rng.hh"

namespace secpb
{

/** Zipf(s) sampler over ranks [0, n); rank 0 is the most popular. */
class ZipfSampler
{
  public:
    /** Borrow (or build) the shared CDF. @p n must be in [1, 2^24]
     *  (table memory). */
    ZipfSampler(std::uint64_t n, double exponent);

    /** Draw one rank using (exactly) one uniform variate from @p rng. */
    std::uint64_t
    sample(Rng &rng) const
    {
        const std::vector<double> &cdf = *_cdf;
        const double u = rng.uniform();
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        return static_cast<std::uint64_t>(it - cdf.begin());
    }

    /** Probability mass of the @p k most popular ranks. */
    double
    headMass(std::uint64_t k) const
    {
        if (k == 0)
            return 0.0;
        return (*_cdf)[std::min<std::uint64_t>(k, _cdf->size()) - 1];
    }

    /** The CDF, shared by every sampler with the same (n, exponent). */
    const std::vector<double> &table() const { return *_cdf; }

  private:
    /** cdf[r] = P(rank <= r), ascending. */
    std::shared_ptr<const std::vector<double>> _cdf;
};

} // namespace secpb

#endif // SECPB_WORKLOAD_ZIPF_HH
