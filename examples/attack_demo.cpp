/**
 * @file
 * Threat-model demonstration: every attack class the paper's security
 * mechanisms exist for, launched against the recovered PM image.
 *
 *  - Spoofing: flip ciphertext bits in the NVDIMM      -> MAC catches it.
 *  - Splicing: swap two blocks' ciphertexts            -> MAC (address-
 *    bound) catches it.
 *  - Counter tampering: bump a counter in PM           -> BMT catches it.
 *  - Full-tuple replay: roll (ct, counter, MAC) back
 *    to an older, mutually-consistent version          -> only the BMT
 *    root register (in the TCB) can and does catch it.
 */

#include <cstdio>

#include "core/simulation.hh"
#include "recovery/verifier.hh"
#include "workload/scripted.hh"

using namespace secpb;

namespace
{

/** Run a fresh system, persist some data, crash+drain cleanly. */
void
runAndDrain(SecPbSystem &sys)
{
    ScriptedGenerator gen;
    for (Addr a = 0; a < 32 * BlockSize; a += BlockSize)
        gen.store(a, 0xD00D0000 + a);
    sys.run(gen);
    CrashReport cr = sys.crashNow();
    if (cr.verdict != CrashVerdict::Pass)
        std::fprintf(stderr, "unexpected: clean drain failed recovery\n");
}

/** A fresh single-core machine through the facade. */
Simulation
makeSim(const SystemConfig &cfg)
{
    SimulationSpec spec;
    spec.base = cfg;
    return Simulation(spec);
}

int failures = 0;

void
report(const char *attack, const RecoveryReport &r, const char *expect)
{
    const bool detected = !r.ok();
    std::printf("  %-18s -> %s (mac=%llu bmt=%llu) %s\n", attack,
                detected ? "DETECTED" : "missed",
                static_cast<unsigned long long>(r.macFailures),
                static_cast<unsigned long long>(r.bmtFailures), expect);
    if (!detected)
        ++failures;
}

} // namespace

int
main()
{
    setQuietLogging(true);
    SystemConfig cfg;
    cfg.scheme = Scheme::Cobcm;

    std::printf("SecPB attack demonstration (scheme %s)\n\n",
                schemeName(cfg.scheme));

    // --- Spoofing -------------------------------------------------------
    {
        Simulation sim = makeSim(cfg);
        SecPbSystem &sys = sim.system();
        runAndDrain(sys);
        sys.pm().tamperData(0x040, 9, 0x80);
        RecoveryVerifier v(sys.layout(), cfg.keys);
        report("spoofing", v.verifyAll(sys.pm(), sys.tree(), sys.oracle()),
               "[expect MAC failure]");
    }

    // --- Splicing --------------------------------------------------------
    {
        Simulation sim = makeSim(cfg);
        SecPbSystem &sys = sim.system();
        runAndDrain(sys);
        const BlockData a = sys.pm().readData(0x000);
        const BlockData b = sys.pm().readData(0x040);
        sys.pm().writeData(0x000, b);
        sys.pm().writeData(0x040, a);
        RecoveryVerifier v(sys.layout(), cfg.keys);
        report("splicing", v.verifyAll(sys.pm(), sys.tree(), sys.oracle()),
               "[expect MAC failures]");
    }

    // --- Counter tampering ------------------------------------------------
    {
        Simulation sim = makeSim(cfg);
        SecPbSystem &sys = sim.system();
        runAndDrain(sys);
        sys.pm().tamperCounter(0, 3);
        RecoveryVerifier v(sys.layout(), cfg.keys);
        report("counter tamper",
               v.verifyAll(sys.pm(), sys.tree(), sys.oracle()),
               "[expect BMT failure]");
    }

    // --- Full-tuple replay -------------------------------------------------
    {
        Simulation sim = makeSim(cfg);
        SecPbSystem &sys = sim.system();
        // Persist version 1 of block 0 and capture its whole tuple.
        ScriptedGenerator gen1;
        gen1.store(0x000, 0x1111);
        sys.run(gen1);
        sys.secpb().drainAll(nullptr);
        sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
        const BlockData old_ct = sys.pm().readData(0x000);
        const CounterBlock old_cb = sys.pm().readCounterBlock(0);
        const MacValue old_mac = sys.pm().readMac(0x000);

        // Persist version 2, then roll PM back to version 1.
        sys.storeBuffer().tryPush(0x000, 0x2222);
        sys.runUntil(sys.eventQueue().curTick() + 1'000'000);
        CrashReport cr = sys.crashNow();
        if (cr.verdict != CrashVerdict::Pass)
            std::fprintf(stderr, "unexpected recovery failure\n");
        sys.pm().writeBlock(0x000, old_ct, old_mac);
        sys.pm().writeCounterBlock(0, old_cb);

        RecoveryVerifier v(sys.layout(), cfg.keys);
        report("tuple replay",
               v.verifyAll(sys.pm(), sys.tree(), sys.oracle()),
               "[expect BMT/plaintext failure: root register is fresh]");
    }

    std::printf("\n%s\n", failures == 0
                ? "all four attack classes detected at recovery"
                : "SOME ATTACKS WENT UNDETECTED");
    return failures == 0 ? 0 : 1;
}
