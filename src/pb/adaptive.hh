/**
 * @file
 * Adaptive drain policy: occupancy bound from live battery headroom.
 *
 * The static SecPB watermarks assume the battery can always absorb a
 * full buffer's worst-case drain. When the crash budget comes from a
 * physical Capacitor that ages, browns out, or was provisioned below
 * worst case, that assumption breaks silently. The adaptive policy
 * closes the loop: the sensing half is the live priced
 * predictCrashDrainWork() probe (the same probe the obs Sampler
 * exports), the actuating half tightens the effective high/low
 * watermarks and gates new allocations so the priced drain prediction
 * never exceeds what the capacitor can deliver.
 *
 * The invariant it preserves (see DESIGN.md): whenever an allocation is
 * admitted, priced-predicted-drain + one worst-case entry + one
 * worst-case in-flight regeneration still fits in deliverableEnergyJ().
 * Timed drains only ever lower the prediction (removing an entry saves
 * more than the <= 2 metadata blocks it can dirty), so the bound holds
 * at any later crash instant until the battery itself is derated by an
 * external event (brownout), after which the policy re-tightens on the
 * next allocation.
 */

#ifndef SECPB_PB_ADAPTIVE_HH
#define SECPB_PB_ADAPTIVE_HH

#include <cmath>

namespace secpb
{

/** Knobs for battery-aware watermark modulation (off by default). */
struct AdaptiveDrainConfig
{
    /** Master switch; disabled keeps the static watermarks bit-exact. */
    bool enabled = false;
};

/**
 * Occupancy bound for watermark modulation: the largest entry count n
 * such that n worst-case entries plus the fixed floor (metadata-cache
 * flush) plus a one-entry margin -- the admission the gate is deciding
 * -- fit in the deliverable energy. Returns @p num_entries (no
 * constraint) when an entry costs nothing.
 */
inline unsigned
adaptiveOccupancyBound(double deliverable_j, double fixed_floor_j,
                       double worst_entry_j, unsigned num_entries)
{
    if (worst_entry_j <= 0.0) {
        return num_entries;
    }
    const double avail = deliverable_j - fixed_floor_j - worst_entry_j;
    if (avail <= 0.0) {
        return 0;
    }
    const double n = std::floor(avail / worst_entry_j);
    if (n >= double(num_entries)) {
        return num_entries;
    }
    return n <= 0.0 ? 0u : unsigned(n);
}

} // namespace secpb

#endif // SECPB_PB_ADAPTIVE_HH
