/**
 * @file
 * Capacitor physics model tests: sizing exactness (the byte-identity
 * contract with the flat budget), voltage-window math, ESR losses,
 * leakage, aging, and the brownout reserve clamp.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "energy/capacitor.hh"

using namespace secpb;

TEST(Capacitor, IdealSizedForDeliversExactlyWhatItWasSizedFor)
{
    // The contract that keeps fixed-seed capacitor runs byte-identical
    // to the flat scalar budget: ideal params, full charge, exact
    // equality -- not approximate.
    const double e = 0.123456789;
    Capacitor c = Capacitor::sizedFor(e);
    EXPECT_EQ(c.capacityJ(), e);
    EXPECT_EQ(c.storedEnergyJ(), e);
    EXPECT_EQ(c.dischargeEfficiency(), 1.0);
    EXPECT_EQ(c.deliverableEnergyJ(), e);
}

TEST(Capacitor, DefaultConstructedDeliversNothing)
{
    Capacitor c;
    EXPECT_EQ(c.capacityJ(), 0.0);
    EXPECT_EQ(c.deliverableEnergyJ(), 0.0);
    EXPECT_EQ(c.deliver(1.0), 0.0);
}

TEST(Capacitor, UsableWindowFractions)
{
    // supercap: (2.7^2 - 1^2) / 2.7^2; li-thin: (16 - 9) / 16 exactly.
    EXPECT_NEAR(usableWindowFraction(capacitorPresetFor("supercap")),
                (2.7 * 2.7 - 1.0) / (2.7 * 2.7), 1e-12);
    EXPECT_DOUBLE_EQ(usableWindowFraction(capacitorPresetFor("li-thin")),
                     0.4375);
    EXPECT_DOUBLE_EQ(usableWindowFraction(CapacitorParams{}),
                     (25.0 - 1.0) / 25.0);
}

TEST(Capacitor, VoltageSpansRatedToCutoff)
{
    CapacitorParams p = capacitorPresetFor("supercap");
    Capacitor c = Capacitor::sizedFor(1.0, p);
    EXPECT_NEAR(c.voltage(), p.ratedVoltage, 1e-12);
    c.setChargeFraction(0.0);
    EXPECT_NEAR(c.voltage(), p.cutoffVoltage, 1e-12);
    c.setChargeFraction(0.5);
    EXPECT_GT(c.voltage(), p.cutoffVoltage);
    EXPECT_LT(c.voltage(), p.ratedVoltage);
}

TEST(Capacitor, CapacitanceMatchesEnergyWindow)
{
    CapacitorParams p = capacitorPresetFor("supercap");
    Capacitor c = Capacitor::sizedFor(2.0, p);
    const double v2 = p.ratedVoltage * p.ratedVoltage;
    const double c2 = p.cutoffVoltage * p.cutoffVoltage;
    // E_usable = 1/2 C (V^2 - Vcut^2).
    EXPECT_NEAR(0.5 * c.capacitanceF() * (v2 - c2), c.capacityJ(), 1e-12);
}

TEST(Capacitor, EsrBurnsEnergyOnDelivery)
{
    CapacitorParams p = capacitorPresetFor("supercap");
    Capacitor c = Capacitor::sizedFor(1.0, p);
    const double eff = c.dischargeEfficiency();
    EXPECT_LT(eff, 1.0);
    EXPECT_GT(eff, 0.9);  // 0.5 A * 0.05 ohm over 2.7 V is a small drop.

    const double before = c.storedEnergyJ();
    EXPECT_DOUBLE_EQ(c.deliver(0.1), 0.1);
    // The storage gave up more than the load received.
    EXPECT_GT(before - c.storedEnergyJ(), 0.1);
}

TEST(Capacitor, DeliverClampsAtEmpty)
{
    Capacitor c = Capacitor::sizedFor(0.5);
    EXPECT_DOUBLE_EQ(c.deliver(2.0), 0.5);
    EXPECT_EQ(c.storedEnergyJ(), 0.0);
    EXPECT_EQ(c.deliver(0.1), 0.0);
}

TEST(Capacitor, RechargePathsClampAtCapacity)
{
    // A reboot recharges the cell to a fraction of its capacity.
    Capacitor c = Capacitor::sizedFor(1.0);
    c.setChargeFraction(0.25);
    EXPECT_DOUBLE_EQ(c.storedEnergyJ(), 0.25);
    c.setChargeFraction(1.5);
    EXPECT_DOUBLE_EQ(c.storedEnergyJ(), 1.0);
}

TEST(Capacitor, BrownoutBleedsCharge)
{
    Capacitor c = Capacitor::sizedFor(1.0);
    c.applyBrownout(0.3);
    EXPECT_DOUBLE_EQ(c.storedEnergyJ(), 0.3);
    c.applyBrownout(0.0);
    EXPECT_EQ(c.storedEnergyJ(), 0.0);
}

TEST(Capacitor, BrownoutRespectsProtectedReserve)
{
    Capacitor c = Capacitor::sizedFor(1.0);
    // The BBU isolation diode: the sag keeps the deliverable energy at
    // (or above) the committed reserve.
    c.applyBrownout(0.1, /*reserve_j=*/0.6);
    EXPECT_GE(c.deliverableEnergyJ(), 0.6 - 1e-12);
    EXPECT_LT(c.storedEnergyJ(), 1.0);

    // The diode cannot create charge: a reserve above what is stored
    // just suppresses the sag entirely.
    Capacitor low = Capacitor::sizedFor(1.0);
    low.setChargeFraction(0.2);
    low.applyBrownout(0.1, /*reserve_j=*/0.5);
    EXPECT_DOUBLE_EQ(low.storedEnergyJ(), 0.2);
}

TEST(Capacitor, BrownoutReserveClampWorksWithEsr)
{
    // With ESR the deliverable is nonlinear in the stored energy; the
    // bisection still has to land the deliverable on the reserve.
    CapacitorParams p = capacitorPresetFor("supercap");
    Capacitor c = Capacitor::sizedFor(1.0, p);
    c.applyBrownout(0.01, /*reserve_j=*/0.4);
    EXPECT_GE(c.deliverableEnergyJ(), 0.4 - 1e-9);
    EXPECT_LT(c.deliverableEnergyJ(), 0.45);
}

TEST(Capacitor, AgingFadesCapacity)
{
    CapacitorParams p = capacitorPresetFor("supercap");
    Capacitor c = Capacitor::sizedFor(1.0, p);
    c.age(0.8);
    EXPECT_DOUBLE_EQ(c.capacityJ(), 0.8);
    EXPECT_DOUBLE_EQ(c.storedEnergyJ(), 0.8);  // Charge clamps to fit.
}

TEST(Capacitor, ConstructionDerateShrinksThePart)
{
    CapacitorParams p;
    p.capacitanceDerate = 0.5;
    Capacitor c = Capacitor::sizedFor(1.0, p);
    EXPECT_DOUBLE_EQ(c.capacityJ(), 0.5);
}

TEST(Capacitor, LeakageDrainsOverTime)
{
    CapacitorParams p = capacitorPresetFor("supercap");  // 1 uW leak.
    Capacitor c = Capacitor::sizedFor(1.0, p);
    c.leak(1000.0);
    EXPECT_NEAR(c.storedEnergyJ(), 1.0 - 1e-3, 1e-12);
    c.leak(1e12);  // Clamped at empty, never negative.
    EXPECT_EQ(c.storedEnergyJ(), 0.0);

    Capacitor ideal = Capacitor::sizedFor(1.0);  // No leakage term.
    ideal.leak(1e12);
    EXPECT_EQ(ideal.storedEnergyJ(), 1.0);
}

TEST(Capacitor, PresetsRoundTrip)
{
    EXPECT_EQ(capacitorPresetFor("ideal").tech, "ideal");
    EXPECT_EQ(capacitorPresetFor("").tech, "ideal");
    EXPECT_EQ(capacitorPresetFor("supercap").tech, "supercap");
    EXPECT_EQ(capacitorPresetFor("li-thin").tech, "li-thin");
}

TEST(CapacitorDeath, UnknownTechIsFatal)
{
    EXPECT_EXIT(capacitorPresetFor("plutonium"),
                ::testing::ExitedWithCode(1), "unknown battery tech");
}

TEST(CapacitorDeath, BadDerateIsFatal)
{
    CapacitorParams p;
    p.capacitanceDerate = 0.0;
    EXPECT_EXIT(Capacitor::sizedFor(1.0, p),
                ::testing::ExitedWithCode(1), "capacitanceDerate");
    p.capacitanceDerate = 1.5;
    EXPECT_EXIT(Capacitor::sizedFor(1.0, p),
                ::testing::ExitedWithCode(1), "capacitanceDerate");
}

TEST(CapacitorDeath, InvertedVoltageWindowIsFatal)
{
    CapacitorParams p;
    p.ratedVoltage = 1.0;
    p.cutoffVoltage = 2.0;
    EXPECT_EXIT(Capacitor::sizedFor(1.0, p),
                ::testing::ExitedWithCode(1), "must exceed cutoff");
}
