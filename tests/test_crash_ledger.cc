/**
 * @file
 * Unit tests for the crash-work ledger (CrashLedger, energy_model.hh):
 * the joules, the drain window and the sizing rules that read it equal
 * the per-member formulas it replaced, bit for bit, and CrashWork's sum
 * covers every count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>

#include "energy/energy_model.hh"
#include "recovery/drain_latency.hh"

using namespace secpb;

namespace
{

// The formulas each module stated before the ledger, written out member
// by member.

double
refActualCrashEnergy(const CrashWork &work)
{
    const double block = static_cast<double>(BlockSize);
    double e = 0.0;
    e += work.entriesDrained * block * cost::MovePbToPm;
    e += work.counterFetches * block * cost::MoveMcToPm;
    e += work.otpsGenerated * block * cost::AesPerByte;
    e += work.bmtLevelsWalked *
         (block * cost::MoveMcToPm + block * cost::ShaPerByte);
    e += work.macsComputed * block * cost::ShaPerByte;
    e += work.pmBlockWrites * block * cost::MoveMcToPm;
    e += work.cacheLinesFlushed * block * cost::MoveMcToPm;
    return e;
}

double
refLateWorkEnergy(const SchemeTraits &t, unsigned bmt_levels)
{
    const double block = static_cast<double>(BlockSize);
    double e = 0.0;
    if (!t.earlyCounter)
        e += block * cost::MoveMcToPm;
    if (!t.earlyOtp)
        e += block * cost::AesPerByte;
    if (!t.earlyBmt)
        e += bmt_levels *
             (block * cost::MoveMcToPm + block * cost::ShaPerByte);
    if (!t.earlyMac)
        e += block * cost::ShaPerByte;
    return e;
}

double
refEntryDrainEnergy(Scheme scheme, unsigned bmt_levels)
{
    const SchemeTraits &t = schemeTraits(scheme);
    double e = EnergyModel::entryFootprintBytes(t) * cost::MovePbToPm;
    if (t.secure)
        e += refLateWorkEnergy(t, bmt_levels);
    return e;
}

double
refSecPbBatteryEnergy(Scheme scheme, unsigned entries, unsigned bmt_levels)
{
    return (entries + 1) * refEntryDrainEnergy(scheme, bmt_levels);
}

double
refProvisionedEnergy(Scheme scheme, unsigned entries, unsigned wpq,
                     unsigned bmt_levels)
{
    const SchemeTraits &t = schemeTraits(scheme);
    const double block = static_cast<double>(BlockSize);
    const double full_late =
        refLateWorkEnergy(schemeTraits(Scheme::Cobcm), bmt_levels);
    if (t.wpqPersistDomain)
        return wpq * (block * cost::MoveMcToPm + full_late);
    if (t.flushesHierarchy) {
        const DataCacheCapacity &h = TableIDataCaches;
        const double eadr =
            static_cast<double>(h.l1Bytes) * cost::MoveL1ToPm +
            static_cast<double>(h.l2Bytes) * cost::MoveL2ToPm +
            static_cast<double>(h.l3Bytes) * cost::MoveL3ToPm;
        return eadr + static_cast<double>(h.lines()) * full_late;
    }
    if (t.secure)
        return refSecPbBatteryEnergy(scheme, entries, bmt_levels);
    return entries * block * cost::MovePbToPm;
}

Cycles
refDrainWindow(const CrashWork &work, const CryptoLatencies &lat,
               const PcmConfig &pcm)
{
    const std::uint64_t compute =
        work.otpsGenerated * lat.aesPad + work.macsComputed * lat.macHash +
        (work.bmtLevelsWalked + work.bmtNodesRebuilt) * lat.bmtHash;
    const std::uint64_t reads =
        work.counterFetches + work.bmtLevelsWalked + work.bmtNodesRebuilt;
    const std::uint64_t writes = work.pmBlockWrites + work.cacheLinesFlushed;
    const std::uint64_t pm_traffic =
        reads * pcm.readLatency + writes * pcm.writeLatency;
    const Cycles compute_window = static_cast<Cycles>(compute / 4);
    const Cycles pm_window =
        static_cast<Cycles>(pm_traffic / std::max(1u, pcm.numBanks));
    const Cycles tail = pcm.readLatency + lat.aesPad + 8 * lat.bmtHash +
                        lat.macHash + pcm.writeLatency;
    return std::max(compute_window, pm_window) + tail;
}

/** Every count member, in declaration order. */
constexpr std::uint64_t CrashWork::*Counts[] = {
    &CrashWork::entriesDrained,  &CrashWork::countersIncremented,
    &CrashWork::counterFetches,  &CrashWork::otpsGenerated,
    &CrashWork::bmtRootUpdates,  &CrashWork::bmtLevelsWalked,
    &CrashWork::macsComputed,    &CrashWork::ciphertexts,
    &CrashWork::pmBlockWrites,   &CrashWork::mdcBlockFlushes,
    &CrashWork::cacheLinesFlushed, &CrashWork::bmtNodesRebuilt,
    &CrashWork::absorbedApplied, &CrashWork::absorbedLost,
};

} // namespace

TEST(CrashLedger, OneRowPerCount)
{
    ASSERT_EQ(std::size(CrashLedger), std::size(Counts));
    for (auto count : Counts)
        EXPECT_EQ(std::count_if(std::begin(CrashLedger),
                                std::end(CrashLedger),
                                [&](const CrashLedgerRow &r) {
                                    return r.count == count;
                                }),
                  1);
}

TEST(CrashLedger, SumDoublesEveryCount)
{
    CrashWork a;
    std::uint64_t v = 1;
    for (auto count : Counts)
        a.*count = v++;
    a.energySpentJ = 0.5;
    a.mandatoryJ = 0.25;
    a.drainedBlocks = {0x40};
    a.abandoned = {{0x80, 3}};
    const CrashWork b = a;
    a += b;
    v = 1;
    for (auto count : Counts)
        EXPECT_EQ(a.*count, 2 * v++);
    EXPECT_EQ(a.energySpentJ, 1.0);
    EXPECT_EQ(a.mandatoryJ, 0.5);
    EXPECT_EQ(a.drainedBlocks.size(), 2u);
    EXPECT_EQ(a.abandoned.size(), 2u);
}

TEST(CrashLedger, JoulesAndWindowMatchThePerMemberFormulas)
{
    std::mt19937_64 rng(35);
    const auto draw = [&](std::uint64_t bound) {
        // One draw in four is zero, as many counts of a real crash are.
        return rng() % 4 == 0 ? 0 : rng() % bound;
    };
    const EnergyModel model(8);
    for (int i = 0; i < 300; ++i) {
        CrashWork w;
        for (auto count : Counts)
            w.*count = draw(std::uint64_t{1} << (i % 40 + 1));

        // Distinct latencies, so a row priced on the wrong unit shows.
        CryptoLatencies lat;
        lat.aesPad = 1 + rng() % 100;
        lat.macHash = 1 + rng() % 100;
        lat.bmtHash = 1 + rng() % 100;
        PcmConfig pcm;
        pcm.readLatency = 1 + rng() % 1000;
        pcm.writeLatency = 1 + rng() % 1000;
        pcm.numBanks = static_cast<unsigned>(rng() % 64);

        EXPECT_EQ(model.actualCrashEnergy(w), refActualCrashEnergy(w))
            << "work " << i;
        EXPECT_EQ(drainWindow(w, lat, pcm), refDrainWindow(w, lat, pcm))
            << "work " << i;
        EXPECT_EQ(drainWindow(w, CryptoLatencies{}, PcmConfig{}),
                  refDrainWindow(w, CryptoLatencies{}, PcmConfig{}))
            << "work " << i;
    }
}

TEST(CrashLedger, SizingRulesMatchThePerMemberFormulas)
{
    for (unsigned levels : {1u, 3u, 8u, 11u}) {
        const EnergyModel model(levels);
        EXPECT_EQ(model.fullLateTupleEnergy(),
                  refLateWorkEnergy(schemeTraits(Scheme::Cobcm), levels));
        for (const SchemeTraits &t : SchemeTable) {
            SCOPED_TRACE(std::string(t.name) + " levels " +
                         std::to_string(levels));
            EXPECT_EQ(model.entryDrainEnergy(t.scheme),
                      refEntryDrainEnergy(t.scheme, levels));
            for (unsigned entries : {1u, 8u, 32u, 64u}) {
                EXPECT_EQ(model.secPbBatteryEnergy(t.scheme, entries),
                          refSecPbBatteryEnergy(t.scheme, entries, levels));
                EXPECT_EQ(model.provisionedEnergy(t.scheme, entries, 32),
                          refProvisionedEnergy(t.scheme, entries, 32,
                                               levels));
            }
        }
    }
}
