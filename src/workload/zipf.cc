#include "workload/zipf.hh"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "sim/logging.hh"

namespace secpb
{

namespace
{

/** The normalized CDF of Zipf(@p exponent) over @p n ranks. */
std::vector<double>
buildCdf(std::uint64_t n, double exponent)
{
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
        cdf[r] = sum;
    }
    const double inv = 1.0 / sum;
    for (double &c : cdf)
        c *= inv;
    cdf.back() = 1.0;  // guard against rounding at the tail
    return cdf;
}

} // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double exponent)
{
    fatal_if(n == 0, "ZipfSampler needs at least one rank");
    fatal_if(n > (1ULL << 24),
             "ZipfSampler rank count %llu too large (max 2^24)",
             static_cast<unsigned long long>(n));
    fatal_if(exponent < 0.0 || !std::isfinite(exponent),
             "Zipf exponent %f must be finite and >= 0", exponent);

    // Sweep workers build trials concurrently; the lock makes each
    // table's one build visible to all of them.
    using Table = std::shared_ptr<const std::vector<double>>;
    static std::mutex lock;
    static std::map<std::pair<std::uint64_t, double>, Table> tables;
    const std::lock_guard<std::mutex> guard(lock);
    Table &table = tables[{n, exponent}];
    if (!table)
        table = std::make_shared<const std::vector<double>>(
            buildCdf(n, exponent));
    _cdf = table;
}

} // namespace secpb
