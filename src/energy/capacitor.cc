#include "energy/capacitor.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace secpb
{

namespace
{

/** One energy-storage technology: its Table V density and its cell. */
struct CellTech
{
    double densityJPerMm3;  ///< Usable J/mm^3; 0 = no Table V density.
    CapacitorParams cell;
};

/** The technology table: each technology stated once, by name. */
const CellTech &
cellTech(const std::string &name)
{
    static const CellTech Techs[] = {
        // The lossless cell: every stored joule usable, nothing leaks.
        {0.0, CapacitorParams{}},
        // 1e-4 Wh/cm^3. A small EDLC bank: wide voltage swing,
        // noticeable ESR.
        {3.6e-4, {.ratedVoltage = 2.7, .cutoffVoltage = 1.0,
                  .esrOhms = 0.05, .dischargeCurrentA = 0.5,
                  .leakagePowerW = 1.0e-6, .tech = "supercap"}},
        // 1e-2 Wh/cm^3. Thin-film lithium: flat discharge curve,
        // narrow usable window.
        {3.6e-2, {.ratedVoltage = 4.0, .cutoffVoltage = 3.0,
                  .esrOhms = 0.02, .dischargeCurrentA = 0.5,
                  .leakagePowerW = 1.0e-7, .tech = "li-thin"}},
    };
    for (const CellTech &t : Techs)
        if (t.cell.tech == (name.empty() ? "ideal" : name))
            return t;
    fatal("unknown battery tech '%s' (want ideal|supercap|li-thin)",
          name.c_str());
}

} // namespace

CapacitorParams
capacitorPresetFor(const std::string &tech, double derate)
{
    CapacitorParams p = cellTech(tech).cell;
    p.capacitanceDerate = derate;
    usableWindowFraction(p); // checks the derate
    return p;
}

double
cellDensityJPerMm3(const CapacitorParams &cell)
{
    const double d = cellTech(cell.tech).densityJPerMm3;
    fatal_if(d <= 0.0,
             "battery sizing: the %s cell has no Table V density "
             "(size supercap or li-thin)",
             cell.tech.c_str());
    return d;
}

double
usableWindowFraction(const CapacitorParams &p)
{
    fatal_if(!(p.capacitanceDerate > 0.0 && p.capacitanceDerate <= 1.0),
             "battery derate %.3f out of (0, 1] (--battery-derate, "
             "capacitanceDerate)",
             p.capacitanceDerate);
    fatal_if(p.ratedVoltage <= p.cutoffVoltage,
             "capacitor rated voltage %.3f V must exceed cutoff %.3f V",
             p.ratedVoltage, p.cutoffVoltage);
    const double v2 = p.ratedVoltage * p.ratedVoltage;
    const double c2 = p.cutoffVoltage * p.cutoffVoltage;
    return (v2 - c2) / v2;
}

Capacitor
Capacitor::sizedFor(double usable_j, const CapacitorParams &params)
{
    fatal_if(usable_j < 0.0, "capacitor sized for negative energy");
    usableWindowFraction(params); // validates the cell
    Capacitor c;
    c._params = params;
    // The derate is a fabrication/aging haircut on the same nominal
    // part: capacity (and charge) shrink, the voltage window does not.
    c._capacityJ = usable_j * params.capacitanceDerate;
    c._storedJ = c._capacityJ;
    return c;
}

double
Capacitor::capacitanceF() const
{
    const double v2 = _params.ratedVoltage * _params.ratedVoltage;
    const double c2 = _params.cutoffVoltage * _params.cutoffVoltage;
    return 2.0 * _capacityJ / (v2 - c2);
}

double
Capacitor::voltage() const
{
    if (_capacityJ <= 0.0) {
        return _params.cutoffVoltage;
    }
    const double v2 = _params.ratedVoltage * _params.ratedVoltage;
    const double c2 = _params.cutoffVoltage * _params.cutoffVoltage;
    return std::sqrt(c2 + (v2 - c2) * (_storedJ / _capacityJ));
}

double
Capacitor::dischargeEfficiency() const
{
    if (_params.esrOhms <= 0.0) {
        return 1.0;
    }
    const double v = voltage();
    if (v <= 0.0) {
        return 0.0;
    }
    const double drop = _params.dischargeCurrentA * _params.esrOhms;
    return std::clamp(1.0 - drop / v, 0.0, 1.0);
}

double
Capacitor::deliverableEnergyJ() const
{
    return _storedJ * dischargeEfficiency();
}

double
Capacitor::deliver(double load_j)
{
    if (load_j <= 0.0) {
        return 0.0;
    }
    const double eff = dischargeEfficiency();
    if (eff <= 0.0) {
        return 0.0;
    }
    const double draw = load_j / eff;
    if (draw >= _storedJ) {
        const double delivered = _storedJ * eff;
        _storedJ = 0.0;
        return delivered;
    }
    _storedJ -= draw;
    return load_j;
}

void
Capacitor::setChargeFraction(double fraction)
{
    _storedJ = std::clamp(fraction, 0.0, 1.0) * _capacityJ;
}

void
Capacitor::applyBrownout(double retain, double reserve_j)
{
    double target = _storedJ * std::clamp(retain, 0.0, 1.0);
    if (reserve_j > 0.0 && target < _storedJ) {
        // Raise the sag floor until the deliverable energy covers the
        // protected reserve (deliverable is monotone in the stored
        // energy, so bisection converges; the reserve caps at what the
        // cell actually holds).
        auto deliverableAt = [this](double stored) {
            const double saved = _storedJ;
            _storedJ = stored;
            const double d = deliverableEnergyJ();
            _storedJ = saved;
            return d;
        };
        if (deliverableAt(_storedJ) <= reserve_j) {
            return; // Already at (or below) the reserve: no sag at all.
        }
        double lo = target, hi = _storedJ;
        if (deliverableAt(lo) < reserve_j) {
            for (int i = 0; i < 64; ++i) {
                const double mid = 0.5 * (lo + hi);
                (deliverableAt(mid) < reserve_j ? lo : hi) = mid;
            }
            target = hi;
        }
    }
    _storedJ = target;
}

void
Capacitor::age(double capacity_fade)
{
    fatal_if(capacity_fade <= 0.0 || capacity_fade > 1.0,
             "capacity fade %.3f out of (0, 1]", capacity_fade);
    _capacityJ *= capacity_fade;
    _storedJ = std::min(_storedJ, _capacityJ);
}

void
Capacitor::leak(double seconds)
{
    if (seconds > 0.0 && _params.leakagePowerW > 0.0) {
        _storedJ = std::max(0.0, _storedJ -
                                     _params.leakagePowerW * seconds);
    }
}

std::string
Capacitor::describe() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s cap=%.4gJ stored=%.4gJ V=%.3f eff=%.4f",
                  _params.tech.c_str(), _capacityJ, _storedJ, voltage(),
                  dischargeEfficiency());
    return buf;
}

} // namespace secpb
