/**
 * @file
 * A crash-consistent key-value store on secure persistent memory.
 *
 * The motivating scenario for persistent hierarchies: with the SecPB,
 * every store is durable the moment it retires -- no clwb/fence pairs --
 * so a write-ahead-logged KV store is just "append log record, write
 * bucket". Strict persistency then guarantees log-before-data ordering.
 *
 * This example:
 *  1. performs a series of put() operations through the simulated system
 *     under COBCM;
 *  2. crashes the machine mid-workload and battery-drains the SecPB;
 *  3. recovers by DECRYPTING the PM image (counters fetched from PM, pads
 *     regenerated, MACs and the BMT root verified) and parsing the
 *     application's own layout out of the recovered plaintext;
 *  4. checks the log-before-data invariant: every recovered bucket entry
 *     must be covered by a recovered log record.
 */

#include <cinttypes>
#include <cstdio>
#include <map>

#include "core/simulation.hh"
#include "recovery/verifier.hh"
#include "workload/scripted.hh"

using namespace secpb;

namespace
{

/** Application PM layout: a log region and a bucket array. */
constexpr Addr LogBase = 0x0000;
constexpr Addr BucketBase = 0x100000;  // 1 MB up
constexpr unsigned NumBuckets = 1024;

/** One log record: (key, value) in two adjacent 8-byte words. */
struct KvTrace
{
    ScriptedGenerator gen;
    Addr logCursor = LogBase;

    void
    put(std::uint64_t key, std::uint64_t value)
    {
        // Write-ahead: log record first...
        gen.store(logCursor, key);
        gen.store(logCursor + 8, value);
        logCursor += 16;
        // ...then the in-place bucket update.
        const Addr slot = BucketBase + (key % NumBuckets) * 8;
        gen.store(slot, value);
        // A little compute between operations.
        gen.instr(40);
    }
};

/** Decrypt one PM block the way the recovery firmware would. */
BlockData
recoverBlock(SecPbSystem &sys, Addr addr)
{
    const auto &layout = sys.layout();
    const CounterBlock cb =
        sys.pm().readCounterBlock(layout.pageIndex(addr));
    const BlockCounter ctr = cb.counterFor(layout.blockInPage(addr));
    const BlockData pad =
        generatePad(sys.config().keys, blockAlign(addr), ctr);
    return decryptBlock(sys.pm().readData(addr), pad);
}

} // namespace

int
main()
{
    setQuietLogging(true);

    SimulationSpec spec;
    spec.base.scheme = Scheme::Cobcm;
    const SystemConfig &cfg = spec.base;
    Simulation sim(spec);
    SecPbSystem &sys = sim.system();

    // --- 1. Run a put() workload and crash it mid-way ------------------
    KvTrace trace;
    std::map<std::uint64_t, std::uint64_t> intended;
    for (std::uint64_t i = 1; i <= 500; ++i) {
        const std::uint64_t key = 7919 * i % 2048;
        const std::uint64_t value = 0xFACE0000 + i;
        trace.put(key, value);
        intended[key] = value;
    }

    sys.start(trace.gen);
    sys.runUntil(2'500);  // crash mid-workload
    CrashReport cr = sys.crashNow();
    std::printf("kvstore: crash at cycle 2500 under %s\n",
                schemeName(cfg.scheme));
    std::printf("  battery drained %" PRIu64 " SecPB entries "
                "(%.2f uJ of %.2f uJ provisioned)\n",
                cr.work.entriesDrained, cr.actualEnergyJ * 1e6,
                cr.provisionedEnergyJ * 1e6);
    std::printf("  integrity at recovery: %s\n",
                cr.verdict == CrashVerdict::Pass ? "verified" : "FAILED");
    if (cr.verdict != CrashVerdict::Pass)
        return 1;

    // --- 2. Parse the recovered log ------------------------------------
    std::map<std::uint64_t, std::uint64_t> logged;  // last logged value
    std::uint64_t log_records = 0;
    for (Addr rec = LogBase; rec < trace.logCursor; rec += 16) {
        if (!sys.oracle().touched(rec))
            break;  // persistence stopped here
        const BlockData block = recoverBlock(sys, rec);
        const std::uint64_t key = blockWord(block, blockOffset(rec) / 8);
        const Addr vaddr = rec + 8;
        const BlockData vblock = recoverBlock(sys, vaddr);
        const std::uint64_t value =
            blockWord(vblock, blockOffset(vaddr) / 8);
        if (key == 0 && value == 0)
            break;  // tail not persisted
        logged[key] = value;
        ++log_records;
    }

    // --- 3. Check the log-before-data invariant ------------------------
    // Any bucket value visible after recovery must appear in the log:
    // strict persistency ordered the log append before the bucket write.
    std::uint64_t buckets_checked = 0, violations = 0;
    for (unsigned b = 0; b < NumBuckets; ++b) {
        const Addr slot = BucketBase + b * 8;
        if (!sys.oracle().touched(slot))
            continue;
        const BlockData block = recoverBlock(sys, slot);
        const std::uint64_t value =
            blockWord(block, blockOffset(slot) / 8);
        if (value == 0)
            continue;
        ++buckets_checked;
        bool in_log = false;
        for (const auto &kv : logged)
            if (kv.second == value)
                in_log = true;
        if (!in_log)
            ++violations;
    }

    std::printf("\nrecovered state:\n");
    std::printf("  log records persisted : %" PRIu64 " of 500\n",
                log_records);
    std::printf("  bucket slots recovered: %" PRIu64 "\n", buckets_checked);
    std::printf("  log-before-data violations: %" PRIu64 " %s\n",
                violations, violations == 0 ? "(invariant holds)" : "!!");

    return violations == 0 ? 0 : 1;
}
