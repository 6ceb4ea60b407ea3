/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot primitives:
 * hashing, pad generation, counter pack/unpack, BMT updates and
 * verification, tag-array operations, and the event queue. These bound
 * the simulator's own throughput (host-side), which is what determines
 * how many simulated instructions per second the table/figure harnesses
 * can sustain.
 *
 * This binary stays on google-benchmark (its timing loop is the right
 * tool for host-side microbenchmarks), but it honors the shared bench
 * CLI's `--json PATH` by mapping it to
 * --benchmark_out=PATH --benchmark_out_format=json, so every binary in
 * bench/ takes the same flag for machine-readable results.
 */

#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "crypto/cipher.hh"
#include "mem/set_assoc.hh"
#include "metadata/bmt.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace secpb;

namespace
{

void
BM_HashBlock(benchmark::State &state)
{
    BlockData b{};
    std::uint64_t i = 0;
    for (auto _ : state) {
        setBlockWord(b, 0, ++i);
        benchmark::DoNotOptimize(hashBlock(b, 0x1234));
    }
}
BENCHMARK(BM_HashBlock);

void
BM_GeneratePad(benchmark::State &state)
{
    SecurityKeys keys;
    BlockCounter ctr{1, 2};
    Addr addr = 0;
    for (auto _ : state) {
        addr += BlockSize;
        benchmark::DoNotOptimize(generatePad(keys, addr, ctr));
    }
}
BENCHMARK(BM_GeneratePad);

void
BM_CounterPackUnpack(benchmark::State &state)
{
    CounterBlock cb;
    for (unsigned i = 0; i < BlocksPerPage; ++i)
        cb.minors[i] = static_cast<std::uint8_t>(i * 2 + 1);
    cb.major = 0x123456789abcULL;
    for (auto _ : state) {
        BlockData raw = cb.pack();
        benchmark::DoNotOptimize(CounterBlock::unpack(raw));
    }
}
BENCHMARK(BM_CounterPackUnpack);

void
BM_BmtUpdateLeaf(benchmark::State &state)
{
    BonsaiMerkleTree tree(1u << 21);
    Rng rng(99);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.updateLeaf(rng.below(1u << 21), rng.next()));
    }
}
BENCHMARK(BM_BmtUpdateLeaf);

void
BM_BmtVerifyLeaf(benchmark::State &state)
{
    BonsaiMerkleTree tree(1u << 21);
    Rng rng(99);
    Digest d = rng.next();
    tree.updateLeaf(1234, d);
    for (auto _ : state)
        benchmark::DoNotOptimize(tree.verifyLeaf(1234, d));
}
BENCHMARK(BM_BmtVerifyLeaf);

void
BM_SetAssocAccess(benchmark::State &state)
{
    SetAssocCache cache(CacheGeometry{128 * 1024, 8, 64});
    Rng rng(7);
    for (Addr a = 0; a < 128 * 1024; a += 64)
        cache.insert(a);
    for (auto _ : state) {
        const Addr a = (rng.below(4096)) * 64;
        benchmark::DoNotOptimize(cache.access(a));
    }
}
BENCHMARK(BM_SetAssocAccess);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<Tick>(i * 3 % 97), [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

} // namespace

int
main(int argc, char **argv)
{
    // Translate the shared bench CLI's --json into google-benchmark's
    // output flags; pass everything else through untouched.
    std::string json_path;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else
            args.push_back(argv[i]);
    }
    std::string out_flag, fmt_flag;
    if (!json_path.empty()) {
        out_flag = "--benchmark_out=" + json_path;
        fmt_flag = "--benchmark_out_format=json";
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }

    int filtered_argc = static_cast<int>(args.size());
    benchmark::Initialize(&filtered_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
