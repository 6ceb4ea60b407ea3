#include "workload/registry.hh"

#include <algorithm>

#include "sim/kv_spec.hh"
#include "sim/logging.hh"
#include "workload/generators.hh"
#include "workload/synthetic.hh"
#include "workload/trace_file.hh"

namespace secpb
{

namespace
{

/** Wrap @p inner in the burst modulator if the spec asks for it. */
std::unique_ptr<WorkloadGenerator>
applyBurst(std::unique_ptr<WorkloadGenerator> inner, KvSpec &spec)
{
    const auto period = spec.count<std::uint64_t>("burst_period", 0);
    const double duty = spec.number("burst_duty", 0.25);
    const auto bundle = spec.count<std::uint32_t>("burst_bundle", 64);
    if (period == 0) {
        fatal_if(spec.has("burst_duty") || spec.has("burst_bundle"),
                 "workload '%s': burst_duty/burst_bundle need "
                 "burst_period to be set",
                 spec.name.c_str());
        return inner;
    }
    BurstParams bp;
    bp.onOps = period;
    bp.duty = duty;
    bp.idleBundle = std::max<std::uint32_t>(1, bundle);
    return std::make_unique<BurstyArrivalGenerator>(std::move(inner), bp);
}

} // namespace

const std::vector<std::string> &
registeredWorkloadNames()
{
    static const std::vector<std::string> names = {
        "kv_wal", "fs_journal", "pstore", "zipf_mix", "replay", "spec",
    };
    return names;
}

bool
isRegisteredWorkload(const std::string &name)
{
    const auto &names = registeredWorkloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<WorkloadGenerator>
makeWorkload(const std::string &text, std::uint64_t instructions,
             std::uint64_t seed)
{
    KvSpec spec = KvSpec::parse(text, "workload");
    std::unique_ptr<WorkloadGenerator> gen;

    if (spec.name == "kv_wal") {
        KvWalParams kp;
        kp.puts = spec.number("puts", kp.puts);
        kp.scans = spec.number("scans", kp.scans);
        kp.keys = spec.count("keys", kp.keys);
        kp.zipf = spec.number("zipf", kp.zipf);
        kp.valueWords = spec.count("value_words", kp.valueWords);
        kp.walWords = spec.count("wal_words", kp.walWords);
        kp.scanLength = spec.count("scan_len", kp.scanLength);
        kp.thinkInstrs = spec.count("think", kp.thinkInstrs);
        kp.checkpointEvery = spec.count("ckpt_every", kp.checkpointEvery);
        kp.checkpointBlocks = spec.count("ckpt_blocks", kp.checkpointBlocks);
        gen = std::make_unique<KvWalGenerator>(kp, instructions, seed);
    } else if (spec.name == "fs_journal" || spec.name == "pstore") {
        JournalParams jp;
        if (spec.name == "pstore") {
            // Panic-dump personality: rarer, bigger commits plus dumps.
            jp.dumpEvery = 64;
            jp.commitEvery = 8;
        }
        jp.txnStores = spec.count("txn_stores", jp.txnStores);
        jp.metaBlocks = spec.count("meta_blocks", jp.metaBlocks);
        jp.commitEvery = spec.count("commit_every", jp.commitEvery);
        jp.journalBlocks = spec.count("journal_blocks", jp.journalBlocks);
        jp.thinkInstrs = spec.count("think", jp.thinkInstrs);
        jp.dumpEvery = spec.count("dump_every", jp.dumpEvery);
        jp.dumpBlocks = spec.count("dump_blocks", jp.dumpBlocks);
        gen = std::make_unique<JournalGenerator>(jp, instructions, seed);
    } else if (spec.name == "zipf_mix") {
        ZipfMixParams zp;
        zp.tenants = spec.count("tenants", zp.tenants);
        zp.tenantZipf = spec.number("tenant_zipf", zp.tenantZipf);
        zp.keysPerTenant = spec.count("keys", zp.keysPerTenant);
        zp.keyZipf = spec.number("key_zipf", zp.keyZipf);
        zp.puts = spec.number("puts", zp.puts);
        zp.thinkInstrs = spec.count("think", zp.thinkInstrs);
        zp.commitEvery = spec.count("commit_every", zp.commitEvery);
        gen = std::make_unique<ZipfMixGenerator>(zp, instructions, seed);
    } else if (spec.name == "replay") {
        const std::string file = spec.text("file");
        fatal_if(file.empty(),
                 "replay workload needs file=<path> "
                 "(or use --trace-in PATH)");
        gen = std::make_unique<ReplayGenerator>(file);
    } else if (spec.name == "spec") {
        const std::string profile = spec.text("profile");
        fatal_if(profile.empty(),
                 "spec workload needs profile=<name> (e.g. "
                 "spec:profile=mcf)");
        gen = std::make_unique<SyntheticGenerator>(
            profileByName(profile), instructions, seed);
    } else {
        fatal("unknown workload '%s' (registered: %s)",
              spec.name.c_str(),
              joinNames(registeredWorkloadNames()).c_str());
    }

    gen = applyBurst(std::move(gen), spec);
    spec.finish();
    return gen;
}

const BenchmarkProfile &
serverWorkloadProfile()
{
    // Only the core-side fields matter here (the generators own their
    // locality): a server core with healthy MLP that still pays for a
    // meaningful slice of each PCM miss.
    static const BenchmarkProfile profile = [] {
        BenchmarkProfile p;
        p.name = "server";
        p.nonMemCpi = 0.40;
        p.memOverlap = 0.55;
        return p;
    }();
    return profile;
}

} // namespace secpb
