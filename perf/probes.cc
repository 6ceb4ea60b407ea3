/**
 * @file
 * Layer microbenchmarks of the traced run: one or two per src/ layer,
 * each calling that layer's public functions on fixed inputs (the
 * workload seed never reaches them) and reporting the best of 5 reps.
 * Their unit costs price the per-layer counts of a workload, giving the
 * rough host-time decomposition that run.py prints.
 */

#include <memory>

#include "bench.hh"
#include "core/simulation.hh"
#include "crypto/engine.hh"
#include "mem/flat_map.hh"
#include "mem/pcm.hh"
#include "mem/wpq.hh"
#include "metadata/metadata_cache.hh"
#include "metadata/walker.hh"
#include "sim/logging.hh"
#include "workload/registry.hh"
#include "workload/synthetic.hh"

namespace perf
{

using namespace secpb;

namespace
{

constexpr unsigned kReps = 5;

/** Best of kReps; @p body returns the seconds of its timed part. */
template <typename Body>
double
bestOf(Body &&body)
{
    double best = 0.0;
    for (unsigned r = 0; r < kReps; ++r) {
        const double s = body();
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

/** Best-of-kReps seconds of running all of @p body. */
template <typename Body>
double
bestOfWhole(Body &&body)
{
    return bestOf([&] {
        const auto t0 = Clock::now();
        body();
        return secondsSince(t0);
    });
}

double
mops(double ops, double secs)
{
    return ops / secs / 1e6;
}

/** Waves of events: schedule a burst, drain it, repeat. */
double
eventBurstMops()
{
    constexpr std::uint64_t kWaves = 200, kPerWave = 2'000;
    const double secs = bestOfWhole([] {
        EventQueue eq;
        std::uint64_t sink = 0;
        for (std::uint64_t w = 0; w < kWaves; ++w) {
            const Tick base = eq.curTick();
            for (std::uint64_t i = 0; i < kPerWave; ++i)
                eq.schedule(base + 1 + i % 97, [&sink] { ++sink; });
            eq.run();
        }
        fatal_if(sink != kWaves * kPerWave, "event_burst dropped events");
    });
    return mops(kWaves * kPerWave, secs);
}

/** One self-rescheduling event: the schedule/pop round trip. */
double
eventChainMops()
{
    constexpr std::uint64_t kLength = 400'000;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *left;
        void
        operator()()
        {
            if (--*left > 0)
                eq->scheduleIn(3, *this);
        }
    };
    const double secs = bestOfWhole([] {
        EventQueue eq;
        std::uint64_t left = kLength;
        eq.schedule(0, Chain{&eq, &left});
        eq.run();
        fatal_if(left != 0, "event_chain terminated early");
    });
    return mops(kLength, secs);
}

/** Ops per second of draining @p make()'s generator, nothing attached. */
template <typename Make>
double
generatorMops(Make &&make)
{
    std::uint64_t ops = 0;
    const double secs = bestOf([&] {
        std::unique_ptr<WorkloadGenerator> gen = make();
        const auto t0 = Clock::now();
        TraceOp op;
        std::uint64_t n = 0;
        while (gen->next(op))
            ++n;
        ops = n;
        return secondsSince(t0);
    });
    return mops(static_cast<double>(ops), secs);
}

SimulationSpec
gamessCobcm(std::uint64_t instructions)
{
    SimulationSpec spec;
    spec.base = SecPbSystem::configFor(Scheme::Cobcm,
                                       profileByName("gamess"));
    spec.instructions = instructions;
    spec.seed = 1;
    return spec;
}

/**
 * Offer one store and run events until the SecPB unblocks it, running
 * the drain engine whenever the buffer is full.
 * @return false when the buffer rejected it and @p retry is off.
 */
bool
acceptOne(SecPb &pb, EventQueue &eq, Addr addr, std::uint64_t value,
          bool retry = true)
{
    bool unblocked = false;
    while (!pb.tryAcceptStore(addr, value,
                              [&unblocked] { unblocked = true; })) {
        if (!retry)
            return false;
        fatal_if(!eq.step(), "accept probe: full buffer with no drain");
    }
    while (!unblocked)
        fatal_if(!eq.step(), "accept probe: store never unblocked");
    return true;
}

/** tryAcceptStore on COBCM: half coalescing hits, half allocations,
 *  including the drains the allocations trigger. */
double
acceptMops()
{
    constexpr std::uint64_t kStores = 100'000;
    const double secs = bestOf([] {
        Simulation sim(gamessCobcm(kStores));
        SecPb &pb = sim.system().secpb();
        EventQueue &eq = sim.system().eventQueue();
        Rng rng(1);
        Addr recent[4] = {};
        Addr fresh = 0;
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kStores; ++i) {
            Addr addr;
            if (i >= 4 && rng.chance(0.5)) {
                addr = recent[rng.below(4)] + 8 * rng.below(8);
            } else {
                fresh += BlockSize;
                addr = fresh;
                recent[i % 4] = fresh;
            }
            acceptOne(pb, eq, addr, i);
        }
        eq.run();
        return secondsSince(t0);
    });
    return mops(kStores, secs);
}

/** predictCrashDrainWork on a full buffer over warm, dirty caches. */
double
predictDrainUs()
{
    constexpr std::uint64_t kWarm = 200'000, kCalls = 2'000;
    Simulation sim(gamessCobcm(kWarm));
    SyntheticGenerator gen(profileByName("gamess"), kWarm, 1);
    sim.run(gen);
    SecPb &pb = sim.system().secpb();
    EventQueue &eq = sim.system().eventQueue();
    // Fresh pages far above the profile's working set fill the buffer.
    for (Addr a = 1ULL << 30; acceptOne(pb, eq, a, 1, false); a += PageSize)
        ;
    fatal_if(pb.occupancy() != pb.config().numEntries,
             "predict probe: buffer not full");
    std::uint64_t sink = 0;
    const double secs = bestOf([&] {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kCalls; ++i)
            sink += pb.predictCrashDrainWork().entriesDrained;
        return secondsSince(t0);
    });
    fatal_if(sink == 0, "predict probe: empty prediction");
    return secs / kCalls * 1e6;
}

/** Page-regeneration bursts: 64 pads + 64 MACs per burst. */
double
regenBurstMops()
{
    constexpr std::uint64_t kBursts = 4'000, kPerBurst = 64;
    const double secs = bestOfWhole([] {
        EventQueue eq;
        StatGroup g("perf");
        CryptoEngine eng(eq, CryptoLatencies{}, g);
        Tick sink = 0;
        for (std::uint64_t b = 0; b < kBursts; ++b) {
            CryptoEngine::RegenBurst burst(eng);
            for (std::uint64_t i = 0; i < kPerBurst; ++i)
                sink += burst.otp() + burst.mac();
        }
        fatal_if(sink == 0, "regen probe priced nothing");
    });
    return mops(2.0 * kBursts * kPerBurst, secs);
}

/** Pipelined BMT root updates with a warm node cache. */
double
walkerUpdateMops()
{
    constexpr std::uint64_t kUpdates = 100'000;
    const double secs = bestOfWhole([] {
        EventQueue eq;
        StatGroup g("perf");
        MetadataLayout layout{8ULL << 30};
        BonsaiMerkleTree tree(layout.numPages());
        PcmModel pcm(eq, PcmConfig{}, g);
        MetadataCache bmt_cache("bmt$", CacheGeometry{}, 2, pcm, g, false);
        BmtWalker walker(eq, WalkerConfig{}, layout, tree, bmt_cache, pcm,
                         CryptoLatencies{}, g);
        // 64 pages cycle through the pipe: in-flight walks merge rarely
        // and the node cache stays warm after the first lap.
        for (std::uint64_t i = 0; i < kUpdates; ++i) {
            const auto leaf =
                static_cast<secpb::Digest>(i * 0x9e3779b97f4a7c15ULL);
            walker.update((i % 64) * PageSize, leaf);
            if ((i & 1023) == 1023)
                eq.run();
        }
        eq.run();
    });
    return mops(kUpdates, secs);
}

/** Counter-cache reads and writes, 80% to a resident hot set. */
double
cacheAccessMops()
{
    constexpr std::uint64_t kAccesses = 400'000;
    std::vector<Addr> addrs(kAccesses);
    Rng rng(1);
    for (Addr &a : addrs)
        a = (rng.chance(0.8) ? rng.below(1024) : 1024 + rng.below(7168)) *
            BlockSize;
    const double secs = bestOf([&] {
        EventQueue eq;
        StatGroup g("perf");
        PcmModel pcm(eq, PcmConfig{}, g);
        MetadataCache cache("ctr$", CacheGeometry{}, 2, pcm, g);
        const auto t0 = Clock::now();
        Cycles sink = 0;
        for (std::uint64_t i = 0; i < kAccesses; ++i)
            sink += (i & 1) ? cache.writeAccess(addrs[i])
                            : cache.readAccess(addrs[i]);
        fatal_if(sink == 0, "cache probe measured nothing");
        return secondsSince(t0);
    });
    return mops(kAccesses, secs);
}

/** cleanDirty(4), the adaptive policy's shedding step, on a cache whose
 *  2048 lines start dirty. */
double
dirtyScanUs()
{
    constexpr std::uint64_t kLines = 2'048, kCalls = 256;
    EventQueue eq;
    StatGroup g("perf");
    PcmModel pcm(eq, PcmConfig{}, g);
    MetadataCache cache("ctr$", CacheGeometry{}, 2, pcm, g);
    const double secs = bestOf([&] {
        for (std::uint64_t b = 0; b < kLines; ++b)
            cache.writeAccess(b * BlockSize);
        const auto t0 = Clock::now();
        std::size_t cleaned = 0;
        for (std::uint64_t i = 0; i < kCalls; ++i)
            cleaned += cache.cleanDirty(4);
        fatal_if(cleaned != 4 * kCalls, "dirty-scan probe: short clean");
        return secondsSince(t0);
    });
    return secs / kCalls * 1e6;
}

/** WPQ pushes (one in eight coalescing) and the PCM writes retiring
 *  them. */
double
wpqPushMops()
{
    constexpr std::uint64_t kPushes = 200'000;
    const double secs = bestOfWhole([] {
        EventQueue eq;
        StatGroup g("perf");
        PcmModel pcm(eq, PcmConfig{}, g);
        WritePendingQueue wpq(eq, pcm, 32, g);
        for (std::uint64_t i = 0; i < kPushes; ++i) {
            const Addr addr = (i % 8 == 7 ? i - 1 : i) * BlockSize;
            while (!wpq.push(addr))
                fatal_if(!eq.step(), "wpq probe: full queue, no writes");
        }
        eq.run();
    });
    return mops(kPushes, secs);
}

/** FlatMap insert / find / erase over a sliding window of 4096 keys. */
double
flatMapMops()
{
    constexpr std::uint64_t kKeys = 200'000;
    const double secs = bestOfWhole([] {
        FlatMap<Addr, std::uint64_t> m;
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < kKeys; ++i) {
            m.insert(i * BlockSize, i);
            if (i >= 2'048)
                sink += *m.find((i - 2'048) * BlockSize);
            if (i >= 4'096)
                m.erase((i - 4'096) * BlockSize);
        }
        fatal_if(sink == 0, "flat-map probe found nothing");
    });
    return mops(3.0 * kKeys, secs);
}

} // namespace

std::map<std::string, double>
runProbes()
{
    std::map<std::string, double> out;
    auto probe = [&out](const char *name, auto &&fn) {
        static const std::string label = "probe";
        const auto t0 = Clock::now();
        out[name] = fn();
        recordSpan(name, t0, 0, &label);
    };
    probe("sim.event_burst_mops", eventBurstMops);
    probe("sim.event_chain_mops", eventChainMops);
    probe("workload.synthetic_gen_mops", [] {
        return generatorMops([] {
            return std::make_unique<SyntheticGenerator>(
                profileByName("gamess"), 1'000'000, 1);
        });
    });
    probe("workload.kv_wal_gen_mops", [] {
        return generatorMops(
            [] { return makeWorkload("kv_wal", 500'000, 1); });
    });
    probe("secpb.accept_mops", acceptMops);
    probe("pb.predict_drain_us", predictDrainUs);
    probe("crypto.regen_burst_mops", regenBurstMops);
    probe("metadata.walker_update_mops", walkerUpdateMops);
    probe("metadata.cache_access_mops", cacheAccessMops);
    probe("metadata.dirty_scan_us", dirtyScanUs);
    probe("mem.wpq_push_mops", wpqPushMops);
    probe("mem.flatmap_mops", flatMapMops);
    return out;
}

} // namespace perf
