/**
 * @file
 * Top-level system configuration (defaults reproduce paper Table I).
 */

#ifndef SECPB_CORE_CONFIG_HH
#define SECPB_CORE_CONFIG_HH

#include <cstdint>

#include "cpu/trace_cpu.hh"
#include "energy/capacitor.hh"
#include "pb/adaptive.hh"
#include "crypto/cipher.hh"
#include "mem/pcm.hh"
#include "mem/set_assoc.hh"
#include "metadata/walker.hh"
#include "secpb/scheme.hh"
#include "secpb/secpb.hh"

namespace secpb
{

/** Metadata caches: 128 KB, 8-way, 2-cycle (Table I). */
inline constexpr CacheGeometry MetadataCacheGeom{128 * 1024, 8, 64};
inline constexpr Cycles MetadataCacheHitLatency = 2;

/**
 * Observability knobs: epoch time-series sampling of simulator state.
 * Sampling is read-only instrumentation -- a sampled run computes
 * bit-identical results to an unsampled one.
 */
struct ObsConfig
{
    /** Sample the built-in channels every this many ticks (0 = off). */
    Tick samplePeriod = 0;
};

/**
 * A system-owned physical battery (energy/capacitor.hh). When enabled,
 * the system builds a Capacitor sized to provisionFraction times the
 * worst-case crash energy and crashNow() budgets the drain from its
 * live deliverable energy instead of an explicit CrashOptions value.
 * With ideal capacitor params and provisionFraction f this is
 * bit-identical to the flat FaultPlan.batteryFraction = f budget.
 */
struct BatteryConfig
{
    /** Build a Capacitor and use it as the crash-drain budget source. */
    bool enabled = false;

    /** Physics of the cell (voltage window, ESR, leakage, derate). */
    CapacitorParams cap;

    /**
     * Usable capacity as a fraction of provisionedCrashEnergy(); 1.0 is
     * the paper's worst-case sizing, < 1 an under-provisioned part.
     */
    double provisionFraction = 1.0;

    /** Battery-aware watermark modulation (pb/adaptive.hh). */
    AdaptiveDrainConfig adaptive;
};

/** Everything needed to build a SecPbSystem. */
struct SystemConfig
{
    /** Which secure-persistency scheme to run (Table II). */
    Scheme scheme = Scheme::Cobcm;

    /**
     * Root name of the system's stat tree. Single-core systems keep the
     * historical "system" root (stat dumps are byte-stable); the
     * multi-core engine names each per-core slice "core<N>".
     */
    const char *statsName = "system";

    SecPbConfig secpb;
    PcmConfig pcm;
    WalkerConfig walker;

    /** The counter cache (the BMT and MAC caches are
     *  MetadataCacheGeom). */
    CacheGeometry ctrCacheGeom = MetadataCacheGeom;

    unsigned wpqEntries = 32;

    /** Protected PM capacity (8 GB). */
    std::uint64_t pmDataBytes = 8ULL << 30;

    SecurityKeys keys;

    LoadPenalties loadPenalties;
    unsigned storeBufferEntries = 56;

    /**
     * Battery-back the core store buffer (paper Section IV-C(b)): stores
     * that retired but have not reached the SecPB are absorbed by the
     * battery on a crash. Needed when strict persistency is layered on a
     * relaxed consistency model; off by default (TSO-style operation).
     */
    bool batteryBackedStoreBuffer = false;

    /**
     * Speculative integrity verification (PoisonIvy-style), assumed by
     * the paper for all models (Section V-A): data returned from PM is
     * used while its MAC/BMT checks complete in the background. Turning
     * it off adds the verification latency to every PM load -- an
     * ablation of how load-bearing that assumption is.
     */
    bool speculativeVerification = true;

    ObsConfig obs;

    BatteryConfig battery;
};

} // namespace secpb

#endif // SECPB_CORE_CONFIG_HH
