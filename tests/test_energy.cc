/**
 * @file
 * Unit tests for the energy / battery-sizing model (Tables III, V, VI).
 * Absolute checks pin the rows the paper reports; relational checks pin
 * the orderings the design space promises.
 */

#include <gtest/gtest.h>

#include "energy/energy_model.hh"

using namespace secpb;

namespace
{

const EnergyModel &
model()
{
    static EnergyModel em(/*bmt_levels=*/8);
    return em;
}

/** The two Table V technologies' rows of the technology table. */
const CapacitorParams SuperCap = capacitorPresetFor("supercap");
const CapacitorParams LiThin = capacitorPresetFor("li-thin");

double
scVolume(Scheme s, unsigned entries)
{
    return model().size(model().secPbBatteryEnergy(s, entries), SuperCap)
        .volumeMm3;
}

} // namespace

TEST(Energy, EntryFootprintsMatchFigure5)
{
    EXPECT_EQ(EnergyModel::entryFootprintBytes(schemeTraits(Scheme::Cobcm)),
              64u);
    EXPECT_EQ(EnergyModel::entryFootprintBytes(schemeTraits(Scheme::Obcm)),
              65u);
    EXPECT_EQ(EnergyModel::entryFootprintBytes(schemeTraits(Scheme::Bcm)),
              129u);
    EXPECT_EQ(EnergyModel::entryFootprintBytes(schemeTraits(Scheme::Cm)),
              129u);
    EXPECT_EQ(EnergyModel::entryFootprintBytes(schemeTraits(Scheme::M)),
              193u);
    // NoGap tracks every field: the paper's 260 B entry (Table I).
    EXPECT_EQ(EnergyModel::entryFootprintBytes(schemeTraits(Scheme::NoGap)),
              257u);
}

TEST(Energy, LazierSchemesNeedBiggerBatteries)
{
    const unsigned n = 32;
    EXPECT_GT(scVolume(Scheme::Cobcm, n), scVolume(Scheme::Cm, n));
    EXPECT_GT(scVolume(Scheme::Cm, n), scVolume(Scheme::NoGap, n));
    EXPECT_GE(scVolume(Scheme::Obcm, n) * 1.001,
              scVolume(Scheme::Bcm, n));
    EXPECT_GE(scVolume(Scheme::Cobcm, n) * 1.001,
              scVolume(Scheme::Obcm, n));
}

TEST(Energy, TableVValuesWithinTolerance)
{
    // Paper Table V, SuperCap volumes (mm^3), 32-entry SecPB.
    EXPECT_NEAR(scVolume(Scheme::Cobcm, 32), 4.89, 4.89 * 0.10);
    EXPECT_NEAR(scVolume(Scheme::Obcm, 32), 4.82, 4.82 * 0.10);
    EXPECT_NEAR(scVolume(Scheme::Bcm, 32), 4.72, 4.72 * 0.10);
    EXPECT_NEAR(scVolume(Scheme::Cm, 32), 0.73, 0.73 * 0.20);
    EXPECT_NEAR(scVolume(Scheme::M, 32), 0.67, 0.67 * 0.10);
    EXPECT_NEAR(scVolume(Scheme::NoGap, 32), 0.28, 0.28 * 0.10);
}

TEST(Energy, BbbAndEadrRows)
{
    const auto bbb =
        model().size(model().bbbBatteryEnergy(32), SuperCap);
    EXPECT_NEAR(bbb.volumeMm3, 0.07, 0.01);
    const auto eadr =
        model().size(model().eadrBatteryEnergy(), SuperCap);
    EXPECT_NEAR(eadr.volumeMm3, 149.32, 149.32 * 0.01);
}

TEST(Energy, CoreAreaRatiosMatchPaper)
{
    // COBCM 32-entry: 53.6% of a 5.37 mm^2 core (SuperCap), 2.5% Li-Thin.
    const double e = model().secPbBatteryEnergy(Scheme::Cobcm, 32);
    EXPECT_NEAR(model().size(e, SuperCap).areaRatioToCore, 0.536,
                0.06);
    EXPECT_NEAR(model().size(e, LiThin).areaRatioToCore, 0.025,
                0.004);
}

TEST(Energy, LiThinIsHundredTimesDenser)
{
    const double e = 1.0e-3;
    EXPECT_NEAR(model().size(e, SuperCap).volumeMm3 /
                    model().size(e, LiThin).volumeMm3,
                100.0, 1e-6);
}

TEST(Energy, BatteryScalesLinearlyWithEntries)
{
    // Table VI shape: doubling the SecPB roughly doubles the battery.
    for (Scheme s : {Scheme::Cobcm, Scheme::NoGap}) {
        const double v64 = scVolume(s, 64);
        const double v128 = scVolume(s, 128);
        EXPECT_NEAR(v128 / v64, 2.0, 0.05) << schemeName(s);
    }
}

TEST(Energy, TableVISpotValues)
{
    EXPECT_NEAR(scVolume(Scheme::Cobcm, 8), 1.33, 1.33 * 0.10);
    EXPECT_NEAR(scVolume(Scheme::Cobcm, 512), 76.10, 76.10 * 0.10);
    EXPECT_NEAR(scVolume(Scheme::NoGap, 512), 4.35, 4.35 * 0.05);
}

TEST(Energy, SEadrDwarfsSecPb)
{
    const double s_eadr = model().sEadrBatteryEnergy();
    const double cobcm = model().secPbBatteryEnergy(Scheme::Cobcm, 32);
    // Paper reports 753x; our worst-case accounting yields a few
    // thousand (documented deviation in EXPERIMENTS.md). The claim that
    // survives either way: orders of magnitude apart.
    EXPECT_GT(s_eadr / cobcm, 500.0);
}

TEST(Energy, ActualCrashEnergyAccountsComponents)
{
    CrashWork w;
    w.entriesDrained = 2;
    w.otpsGenerated = 2;
    w.macsComputed = 2;
    w.bmtLevelsWalked = 16;
    w.pmBlockWrites = 6;
    const double e = model().actualCrashEnergy(w);
    EXPECT_GT(e, 0.0);
    CrashWork w2 = w;
    w2.bmtLevelsWalked = 0;
    EXPECT_LT(model().actualCrashEnergy(w2), e);
}

TEST(Energy, WorstCaseBoundsActualForFullBuffer)
{
    // A fully lazy 32-entry drain can never exceed the provisioned
    // worst case (which assumes every metadata access misses).
    CrashWork w;
    w.entriesDrained = 32;
    w.countersIncremented = 32;
    w.counterFetches = 32;
    w.otpsGenerated = 32;
    w.macsComputed = 32;
    w.ciphertexts = 32;
    w.bmtRootUpdates = 32;
    w.bmtLevelsWalked = 32 * 8;
    w.pmBlockWrites = 96;
    EXPECT_LE(model().actualCrashEnergy(w),
              model().secPbBatteryEnergy(Scheme::Cobcm, 32) * 1.05);
}

TEST(Energy, SizeWithPhysicsInflatesByVoltageWindow)
{
    // Realistic sizing: only the (V^2 - Vcut^2)/V^2 window of a cell's
    // stored energy is usable above the regulator cutoff, so the part
    // grows by exactly 1/window relative to the paper's ideal sizing.
    const double e = model().secPbBatteryEnergy(Scheme::Cobcm, 32);
    const BatteryEstimate ideal = model().size(e, SuperCap);
    const BatteryEstimate real = model().sizeWithPhysics(e, SuperCap);
    EXPECT_NEAR(real.volumeMm3 / ideal.volumeMm3,
                1.0 / usableWindowFraction(SuperCap), 1e-9);

    // Li-thin window is 7/16 exactly, so the inflation is 16/7.
    const BatteryEstimate li_real = model().sizeWithPhysics(e, LiThin);
    EXPECT_NEAR(li_real.volumeMm3 / model().size(e, LiThin).volumeMm3,
                16.0 / 7.0, 1e-9);
}

TEST(Energy, SizeWithPhysicsDerateCompoundsWithWindow)
{
    // End-of-life derating compounds multiplicatively with the voltage
    // window: half the rated capacitance means twice the part.
    const BatteryEstimate full = model().sizeWithPhysics(1e-3, SuperCap);
    const BatteryEstimate derated =
        model().sizeWithPhysics(1e-3, capacitorPresetFor("supercap", 0.5));
    EXPECT_NEAR(derated.volumeMm3 / full.volumeMm3, 2.0, 1e-9);
    // The usable requirement reported is the caller's, not the inflated
    // stored energy the part must hold.
    EXPECT_DOUBLE_EQ(derated.energyJ, 1e-3);
}

TEST(Energy, SizeWithPhysicsIdealParamsMatchIdealSizing)
{
    // A cell still carries its voltage window; with the window forced
    // to 1 (and no derate) the realistic path degenerates to size().
    CapacitorParams p = SuperCap;
    p.cutoffVoltage = 0.0;
    const BatteryEstimate a = model().sizeWithPhysics(1e-3, p);
    const BatteryEstimate b = model().size(1e-3, SuperCap);
    EXPECT_DOUBLE_EQ(a.volumeMm3, b.volumeMm3);
}

TEST(Energy, TableVVolumesArePinnedToTheBit)
{
    // COBCM's 32-entry energy on each Table V cell at derate 0.8: flat
    // energy / density, physical (energy / (window * derate)) / density.
    // Any reordering of that arithmetic moves a bit here.
    const double e = model().secPbBatteryEnergy(Scheme::Cobcm, 32);
    EXPECT_EQ(e, 0x1.da333eafe99ep-10);
    const CapacitorParams sc = capacitorPresetFor("supercap", 0.8);
    const CapacitorParams li = capacitorPresetFor("li-thin", 0.8);
    EXPECT_EQ(model().size(e, sc).volumeMm3, 0x1.41966b588543ep+2);
    EXPECT_EQ(model().size(e, li).volumeMm3, 0x1.9ba1d1152575ap-5);
    EXPECT_EQ(model().sizeWithPhysics(e, sc).volumeMm3,
              0x1.d1e499aef1e76p+2);
    EXPECT_EQ(model().sizeWithPhysics(e, li).volumeMm3,
              0x1.2605de7cd19d2p-3);
}

TEST(EnergyDeath, SizeWithPhysicsRejectsBadDerate)
{
    CapacitorParams p = capacitorPresetFor("supercap");
    p.capacitanceDerate = 0.0;
    EXPECT_EXIT(model().sizeWithPhysics(1e-3, p),
                ::testing::ExitedWithCode(1), "out of \\(0, 1\\]");
    p.capacitanceDerate = 1.0001;
    EXPECT_EXIT(model().sizeWithPhysics(1e-3, p),
                ::testing::ExitedWithCode(1), "out of \\(0, 1\\]");
}

TEST(EnergyDeath, SizeWithPhysicsRejectsEmptyVoltageWindow)
{
    CapacitorParams p = SuperCap;
    p.ratedVoltage = p.cutoffVoltage = 2.0;  // zero usable window
    EXPECT_EXIT(model().sizeWithPhysics(1e-3, p),
                ::testing::ExitedWithCode(1), "must exceed cutoff");
}

TEST(EnergyDeath, TheIdealCellHasNoTableVDensity)
{
    EXPECT_EXIT(model().size(1e-3, CapacitorParams{}),
                ::testing::ExitedWithCode(1), "no Table V density");
}
