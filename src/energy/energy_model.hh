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
 * The crash-work ledger (CrashLedger) states once what one unit of each
 * CrashWork count costs: its joules, its PM reads and writes, and its
 * crypto latency. The spend of an actual crash, the late tuple work the
 * sizing rules charge per entry, the observer-blocked window
 * (recovery/drain_latency.hh) and the sum of two CrashWorks all read it.
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

/** One row of the crash-work ledger: what one unit of a count costs. */
struct CrashLedgerRow
{
    std::uint64_t CrashWork::*count;  ///< The CrashWork count priced.
    double joules;                    ///< Battery joules per unit.
    unsigned pmReads;                 ///< PM block reads per unit.
    unsigned pmWrites;                ///< PM block writes per unit.
    Cycles CryptoLatencies::*crypto;  ///< Crypto latency per unit, or none.
};

/**
 * The crash-work ledger, one row per CrashWork count. The joules are
 * Table III's per-byte costs for one 64-byte block under the worst-case
 * assumptions (1)-(6); actualCrashEnergy sums them in row order. The PM
 * traffic and crypto latency price the observer-blocked window
 * (drainWindow, recovery/drain_latency.hh), and CrashWork::operator+=
 * sums the counts. A row with 0 J is counted but not priced; its comment
 * says why.
 */
inline constexpr CrashLedgerRow CrashLedger[] = {
    // The entry's footprint moves PB -> PM; its block writes are
    // pmBlockWrites.
    {&CrashWork::entriesDrained, BlockSize * cost::MovePbToPm, 0, 0, nullptr},
    // (6) The increment is negligible; a miss is a counterFetches unit.
    {&CrashWork::countersIncremented, 0, 0, 0, nullptr},
    // (2) The counter block misses on-chip and is fetched from PM.
    {&CrashWork::counterFetches, BlockSize * cost::MoveMcToPm, 1, 0, nullptr},
    // (5) One pad per ciphertext.
    {&CrashWork::otpsGenerated, BlockSize * cost::AesPerByte, 0, 0,
     &CryptoLatencies::aesPad},
    // The walk is priced per level (bmtLevelsWalked).
    {&CrashWork::bmtRootUpdates, 0, 0, 0, nullptr},
    // (3) No path overlap: each level fetches its node from PM and hashes.
    {&CrashWork::bmtLevelsWalked,
     BlockSize * cost::MoveMcToPm + BlockSize * cost::ShaPerByte, 1, 0,
     &CryptoLatencies::bmtHash},
    // (4) MACs need computing but not fetching.
    {&CrashWork::macsComputed, BlockSize * cost::ShaPerByte, 0, 0,
     &CryptoLatencies::macHash},
    // (6) The ciphertext XOR is negligible.
    {&CrashWork::ciphertexts, 0, 0, 0, nullptr},
    {&CrashWork::pmBlockWrites, BlockSize * cost::MoveMcToPm, 0, 1, nullptr},
    // Already counted in pmBlockWrites.
    {&CrashWork::mdcBlockFlushes, 0, 0, 0, nullptr},
    // eADR's hierarchy flush, priced at the MC <-> PM leg alone: below
    // what sEadrBatteryEnergy provisions (ROADMAP item 3).
    {&CrashWork::cacheLinesFlushed, BlockSize * cost::MoveMcToPm, 0, 1,
     nullptr},
    // Triad-NVM's rebuild runs on mains power at recovery: window time
    // (one node read and hash each), no battery joules.
    {&CrashWork::bmtNodesRebuilt, 0, 1, 0, &CryptoLatencies::bmtHash},
    // An absorbed store's tuple is priced in the rows above.
    {&CrashWork::absorbedApplied, 0, 0, 0, nullptr},
    {&CrashWork::absorbedLost, 0, 0, 0, nullptr},
};

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
    explicit EnergyModel(unsigned bmt_levels) : _bmtLevels(bmt_levels) {}

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
     * Energy actually consumed by a specific post-crash drain: the
     * ledger's joules for the work the SecPB reports. It can exceed
     * provisionedEnergy(): a full drain charges each entry's PB -> PM
     * move and its MC -> PM block writes, and the metadata-cache flush on
     * top, while the provisioning charges the footprint alone. The worst
     * unbounded crash of a 40-store script spends 2.27x the provisioning
     * for nogap, stream and sec_wt (ROADMAP item 3).
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
