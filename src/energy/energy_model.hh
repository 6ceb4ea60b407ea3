/**
 * @file
 * Drain-energy and battery-capacity model (paper Section V-B, Tables III,
 * V, VI).
 *
 * The battery (or supercapacitor) must provision, at worst case, the
 * energy to drain every SecPB entry and complete whatever memory-tuple
 * work the chosen scheme deferred. Worst-case assumptions (1)-(6) of the
 * paper are encoded literally: every block is dirty, every metadata cache
 * access misses, BMT update paths never overlap, MACs need computing but
 * not fetching, and XOR/increment energy is negligible.
 *
 * Energy densities: the paper quotes 1e-4 Wh (SuperCap) and 1e-2 Wh
 * (Li-thin-film) energy densities; interpreting them per cm^3 reproduces
 * Table V's volumes from Table III's per-byte costs, so that is the
 * calibration used here (documented in DESIGN.md / EXPERIMENTS.md). Each
 * density lives in its technology's row of the technology table
 * (capacitor.cc), next to that technology's cell physics; sizing takes
 * the cell and reads the density through it.
 * Footprint area assumes a cubic cell: area = volume^(2/3), compared
 * against a 5.37 mm^2 client-class core.
 */

#ifndef SECPB_ENERGY_ENERGY_MODEL_HH
#define SECPB_ENERGY_ENERGY_MODEL_HH

#include <cstdint>

#include "energy/capacitor.hh"
#include "secpb/scheme.hh"
#include "secpb/secpb.hh"

namespace secpb
{

/** Per-byte energy costs, J/B (Table III). */
namespace cost
{
inline constexpr double MovePbToPm = 11.839e-9;  ///< SecPB -> PM.
inline constexpr double MoveL1ToPm = 11.839e-9;  ///< L1D -> PM.
inline constexpr double MoveL2ToPm = 11.228e-9;  ///< L2 -> PM.
inline constexpr double MoveL3ToPm = 11.228e-9;  ///< L3 -> PM.
inline constexpr double MoveMcToPm = 11.228e-9;  ///< MC <-> PM, either way.
inline constexpr double ShaPerByte = 79.29e-9;   ///< SHA-512 (BMT node, MAC).
inline constexpr double AesPerByte = 30e-9;      ///< AES-192 (OTP).
} // namespace cost

/** The client-class core the footprint ratio compares against (mm^2). */
inline constexpr double CoreAreaMm2 = 5.37;

/**
 * Table I's data-cache capacities: the lines an eADR battery flushes.
 * No simulated cache holds these tags -- the profiles draw load latency
 * directly, and SecPB data caches never write back (Section IV-C(a)).
 */
struct DataCacheCapacity
{
    std::uint64_t l1Bytes, l2Bytes, l3Bytes;

    constexpr std::uint64_t lines() const
    { return (l1Bytes + l2Bytes + l3Bytes) / BlockSize; }
};

/** 64 KB L1D / 512 KB L2 / 4 MB L3 (Table I). */
inline constexpr DataCacheCapacity TableIDataCaches{
    64 * 1024, 512 * 1024, 4 * 1024 * 1024};

/** A battery sizing estimate. */
struct BatteryEstimate
{
    double energyJ = 0.0;
    double volumeMm3 = 0.0;
    double areaRatioToCore = 0.0;  ///< Cubic-cell footprint / core area.
};

/**
 * The analytical drain-energy / battery-capacity model.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(unsigned bmt_levels = 8) : _bmtLevels(bmt_levels) {}

    /**
     * Worst-case energy to complete the deferred ("late") tuple work for
     * one SecPB entry under @p scheme and drain it to PM.
     */
    double entryDrainEnergy(Scheme scheme) const;

    /**
     * Worst-case battery energy for a @p entries-entry SecPB running
     * @p scheme: all entries drained plus one full in-flight tuple update
     * (a crash may land mid-update).
     */
    double secPbBatteryEnergy(Scheme scheme, unsigned entries) const;

    /** Battery energy for insecure BBB (drain only). */
    double bbbBatteryEnergy(unsigned entries) const;

    /**
     * ADR provisioning for the SP baseline: the WPQ is the persistence
     * domain, and every queued block may still need its full tuple
     * completed when power fails.
     */
    double spAdrEnergy(unsigned wpq_entries) const;

    /**
     * Worst-case battery provisioning for @p scheme: dispatches to the
     * SecPB, BBB, or SP(ADR) sizing rule. This is the budget ceiling that
     * bounded-battery fault experiments scale down from.
     */
    double provisionedEnergy(Scheme scheme, unsigned secpb_entries,
                             unsigned wpq_entries) const;

    /**
     * Battery energy for insecure eADR: flush every line of the Table I
     * hierarchy (TableIDataCaches) to PM.
     */
    double eadrBatteryEnergy() const;

    /**
     * Battery energy for secure eADR: every cache line dirty, each needing
     * the full worst-case tuple update (assumptions (1)-(5)).
     */
    double sEadrBatteryEnergy() const;

    /**
     * The paper's flat sizing of @p energy_j on @p cell's technology:
     * every stored joule usable, so volume = energy_j / density. Also
     * gives the core-area ratio.
     */
    BatteryEstimate size(double energy_j, const CapacitorParams &cell) const;

    /**
     * Size @p energy_j on @p cell under its physics: the cell must hold
     * energy_j *usable* joules, so the flat volume is inflated by the
     * voltage window (only (V^2 - Vcut^2)/V^2 of the stored energy sits
     * above the regulator cutoff) and by the end-of-life capacity
     * derate: (energy_j / (window * derate)) / density. The flat sizing
     * is the special case window == 1, derate == 1.
     */
    BatteryEstimate sizeWithPhysics(double energy_j,
                                    const CapacitorParams &cell) const;

    /**
     * Energy actually consumed by a specific post-crash drain, from the
     * work accounting the SecPB reports. Always <= the worst case the
     * battery was provisioned for.
     */
    double actualCrashEnergy(const CrashWork &work) const;

    /** Worst-case full late-tuple work for one block (all deferred). */
    double fullLateTupleEnergy() const;

    /**
     * Bytes of SecPB entry state the battery must move out on a drain:
     * the tracked fields of Figure 5 (Dp always; O, Dc, M, C for schemes
     * that pre-compute them). NoGap's 260-byte entry is the paper's
     * Table I "Entry size".
     */
    static unsigned entryFootprintBytes(const SchemeTraits &t);

  private:
    /** Late work for one entry given which components were deferred. */
    double lateWorkEnergy(const SchemeTraits &t) const;

    unsigned _bmtLevels;
};

} // namespace secpb

#endif // SECPB_ENERGY_ENERGY_MODEL_HH
