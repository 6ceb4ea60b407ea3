/**
 * @file
 * Supercapacitor / thin-film battery physics for the crash-drain budget.
 *
 * The flat energy model (energy_model.hh) answers "how big must the
 * energy source be"; this class answers "how much can the one we built
 * actually deliver right now". State is the usable stored energy above
 * the regulator cutoff; capacitance and terminal voltage are derived
 * views, so an *ideal* capacitor (no ESR, no leakage, derate 1) sized
 * for E joules delivers exactly E -- bit-identical to the old
 * "fraction of worst case" scalar budget, which sizedFor() replaces.
 *
 * Physics knobs (all optional, all off by default):
 *  - voltage window: usable energy is 1/2 C (V^2 - Vcut^2); a realistic
 *    window wastes the below-cutoff tail, so a real part must be sized
 *    1/usableWindowFraction() larger than the flat model suggests;
 *  - ESR: a series resistance burns I^2 R during the drain, modelled as
 *    a terminal-voltage-dependent discharge efficiency;
 *  - leakage: self-discharge at a constant power while the machine sits
 *    powered off between crash and recovery;
 *  - aging/derating: capacity fade, either applied up front (a worn
 *    part) or per power cycle; a brownout event sags the charge.
 */

#ifndef SECPB_ENERGY_CAPACITOR_HH
#define SECPB_ENERGY_CAPACITOR_HH

#include <string>

namespace secpb
{

/** Physical parameters of one energy-storage cell. */
struct CapacitorParams
{
    /** Fully-charged terminal voltage. */
    double ratedVoltage = 5.0;

    /** Regulator cutoff: energy below this voltage is unusable. */
    double cutoffVoltage = 1.0;

    /** Equivalent series resistance (ohms); 0 = lossless discharge. */
    double esrOhms = 0.0;

    /** Nominal drain current (amps) for the ESR loss term. */
    double dischargeCurrentA = 1.0;

    /** Self-discharge power (watts) while sitting idle; 0 = none. */
    double leakagePowerW = 0.0;

    /**
     * Capacity fade applied at construction, in (0, 1]: 1 = fresh part,
     * 0.8 = a cell that has lost 20% of its rated capacity to aging.
     */
    double capacitanceDerate = 1.0;

    /** Technology: names its row of the technology table, which also
     *  holds the Table V density that sizing reads. */
    std::string tech = "ideal";
};

/**
 * The cell of technology @p tech ("ideal", "supercap" or "li-thin"; ""
 * is ideal) at end-of-life capacity derate @p derate: a copy of that
 * technology's row of the technology table (capacitor.cc), which states
 * each technology's Table V energy density and cell physics once. Dies
 * on an unknown technology or a derate outside (0, 1].
 */
CapacitorParams capacitorPresetFor(const std::string &tech,
                                   double derate = 1.0);

/**
 * Table V energy density of @p cell's technology (J/mm^3): SuperCap
 * 1e-4 Wh/cm^3, Li thin-film 1e-2 Wh/cm^3. The ideal cell has none, so
 * sizing it dies.
 */
double cellDensityJPerMm3(const CapacitorParams &cell);

/**
 * Fraction of a cell's total stored energy that sits above the cutoff
 * voltage: (V^2 - Vcut^2) / V^2. The flat sizing tables divide by this
 * (and by the aging derate) to get a realistically-provisioned volume.
 * Every consumer of a cell goes through here, so it is also the one
 * check of a cell: it dies unless the derate lies in (0, 1] and the
 * rated voltage exceeds the cutoff.
 */
double usableWindowFraction(const CapacitorParams &p);

/** One battery-backed energy source with explicit state of charge. */
class Capacitor
{
  public:
    /** A zero-capacity placeholder (delivers nothing). */
    Capacitor() = default;

    /**
     * Size a cell so that, fully charged, it delivers @p usable_j usable
     * joules (after the construction-time capacitanceDerate). Starts
     * fully charged. With ideal params the deliverable energy equals
     * @p usable_j exactly -- the byte-identity contract with the flat
     * budget model.
     */
    static Capacitor sizedFor(double usable_j,
                              const CapacitorParams &params = {});

    const CapacitorParams &params() const { return _params; }

    /** Usable energy above cutoff at full charge (post-derate). */
    double capacityJ() const { return _capacityJ; }

    /** Usable energy above cutoff currently stored. */
    double storedEnergyJ() const { return _storedJ; }

    /** Derived capacitance (farads) from capacity and voltage window. */
    double capacitanceF() const;

    /** Terminal voltage at the current state of charge. */
    double voltage() const;

    /**
     * Discharge efficiency at the current terminal voltage:
     * 1 - I*ESR/V, clamped to [0, 1]. Exactly 1.0 when ESR is zero.
     */
    double dischargeEfficiency() const;

    /**
     * Energy the drain circuitry can extract right now: stored energy
     * times the discharge efficiency. This is the crash-drain budget.
     */
    double deliverableEnergyJ() const;

    /**
     * Deliver @p load_j joules to the load, drawing load/efficiency from
     * storage (the ESR share is dissipated). Clamps at empty.
     * @return energy actually delivered to the load.
     */
    double deliver(double load_j);

    /** Set the state of charge to @p fraction of capacity, in [0, 1]. */
    void setChargeFraction(double fraction);

    /**
     * Brownout: the supply sags and the cell retains only @p retain of
     * its stored energy (charge bleeds into the dying rails). A nonzero
     * @p reserve_j models the BBU's isolation diode protecting the
     * charge committed to the crash drain: the sag never takes the
     * deliverable energy below reserve_j (clamped to what is stored --
     * the diode cannot create charge).
     */
    void applyBrownout(double retain, double reserve_j = 0.0);

    /**
     * Age the cell mid-life: multiply capacity by @p capacity_fade,
     * clamping the charge.
     */
    void age(double capacity_fade);

    /** Self-discharge for @p seconds of powered-off time. */
    void leak(double seconds);

    /** One-line description for reproducer output. */
    std::string describe() const;

  private:
    CapacitorParams _params;
    double _capacityJ = 0.0;  ///< Usable energy at full charge.
    double _storedJ = 0.0;    ///< Usable energy currently stored.
};

} // namespace secpb

#endif // SECPB_ENERGY_CAPACITOR_HH
