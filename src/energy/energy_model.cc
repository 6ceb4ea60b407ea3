#include "energy/energy_model.hh"

#include <cmath>

#include "sim/types.hh"

namespace secpb
{

double
EnergyModel::lateWorkEnergy(const SchemeTraits &t) const
{
    // Every deferred component at its worst case: the counter block
    // misses on-chip, the tree update walks every level, and the pad and
    // MAC are computed. The ciphertext XOR costs nothing (6).
    CrashWork w;
    w.counterFetches = !t.earlyCounter;
    w.otpsGenerated = !t.earlyOtp;
    w.bmtLevelsWalked = t.earlyBmt ? 0 : _bmtLevels;
    w.macsComputed = !t.earlyMac;
    return actualCrashEnergy(w);
}

double
EnergyModel::fullLateTupleEnergy() const
{
    return lateWorkEnergy(schemeTraits(Scheme::Cobcm));
}

unsigned
EnergyModel::entryFootprintBytes(const SchemeTraits &t)
{
    // Dp (64B) always; O (64B) if the OTP is pre-computed; Dc (64B) if
    // the ciphertext is; M (64B, the 512-bit MAC field) if the MAC is;
    // C (1B counter snapshot) if the counter is; the B bit is noise.
    unsigned bytes = BlockSize;
    if (t.earlyOtp)
        bytes += BlockSize;
    if (t.earlyCiphertext)
        bytes += BlockSize;
    if (t.earlyMac)
        bytes += BlockSize;
    if (t.earlyCounter)
        bytes += 1;
    return bytes;
}

double
EnergyModel::entryDrainEnergy(Scheme scheme) const
{
    const SchemeTraits t = schemeTraits(scheme);
    double e = entryFootprintBytes(t) * cost::MovePbToPm;
    if (t.secure)
        e += lateWorkEnergy(t);
    return e;
}

double
EnergyModel::secPbBatteryEnergy(Scheme scheme, unsigned entries) const
{
    // All entries drained, plus one more entry's worth as the in-flight
    // margin: a crash may land mid-acceptance, with the write and its
    // deferred metadata generation still pending (Section V-B).
    return (entries + 1) * entryDrainEnergy(scheme);
}

double
EnergyModel::bbbBatteryEnergy(unsigned entries) const
{
    return entries * static_cast<double>(BlockSize) * cost::MovePbToPm;
}

double
EnergyModel::spAdrEnergy(unsigned wpq_entries) const
{
    return wpq_entries * (static_cast<double>(BlockSize) *
                              cost::MoveMcToPm +
                          fullLateTupleEnergy());
}

double
EnergyModel::provisionedEnergy(Scheme scheme, unsigned secpb_entries,
                               unsigned wpq_entries) const
{
    const SchemeTraits &t = schemeTraits(scheme);
    if (t.wpqPersistDomain)
        return spAdrEnergy(wpq_entries);
    if (t.flushesHierarchy) {
        // eADR: the persist domain is the whole cache hierarchy, every
        // line assumed dirty with a full late tuple owed (the secure
        // eADR row of the Table V comparison).
        return sEadrBatteryEnergy();
    }
    if (t.secure)
        return secPbBatteryEnergy(scheme, secpb_entries);
    return bbbBatteryEnergy(secpb_entries);
}

double
EnergyModel::eadrBatteryEnergy() const
{
    const DataCacheCapacity &h = TableIDataCaches;
    return static_cast<double>(h.l1Bytes) * cost::MoveL1ToPm +
           static_cast<double>(h.l2Bytes) * cost::MoveL2ToPm +
           static_cast<double>(h.l3Bytes) * cost::MoveL3ToPm;
}

double
EnergyModel::sEadrBatteryEnergy() const
{
    // Assumption (1): every cache line is dirty and needs its full
    // security-metadata tuple generated under the same worst-case
    // assumptions as a fully lazy SecPB entry.
    const double lines = static_cast<double>(TableIDataCaches.lines());
    return eadrBatteryEnergy() + lines * fullLateTupleEnergy();
}

BatteryEstimate
EnergyModel::size(double energy_j, const CapacitorParams &cell) const
{
    BatteryEstimate est;
    est.energyJ = energy_j;
    est.volumeMm3 = energy_j / cellDensityJPerMm3(cell);
    const double footprint = std::pow(est.volumeMm3, 2.0 / 3.0);
    est.areaRatioToCore = footprint / CoreAreaMm2;
    return est;
}

BatteryEstimate
EnergyModel::sizeWithPhysics(double energy_j,
                             const CapacitorParams &cell) const
{
    // The cell stores energy_j / window total joules so that energy_j
    // sits above the cutoff, and is built 1/derate larger so the worn
    // end-of-life part still provisions the worst case.
    const double window = usableWindowFraction(cell);
    BatteryEstimate est =
        size(energy_j / (window * cell.capacitanceDerate), cell);
    est.energyJ = energy_j;  // Report the *usable* requirement.
    return est;
}

double
EnergyModel::actualCrashEnergy(const CrashWork &work) const
{
    double e = 0.0;
    for (const CrashLedgerRow &r : CrashLedger)
        if (r.joules != 0.0)
            e += work.*r.count * r.joules;
    return e;
}

} // namespace secpb
