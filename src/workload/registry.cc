#include "workload/registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>

#include "sim/logging.hh"
#include "workload/generators.hh"
#include "workload/synthetic.hh"
#include "workload/trace_file.hh"

namespace secpb
{

namespace
{

/**
 * Typed accessor over a spec's params that tracks which keys were
 * consumed, so a trailing check can reject typos instead of silently
 * running the default workload the user did not ask for.
 */
class ParamReader
{
  public:
    explicit ParamReader(const WorkloadSpec &spec) : _spec(spec) {}

    double
    number(const std::string &key, double fallback)
    {
        const std::string raw = take(key);
        return raw.empty() ? fallback : parse(key, raw);
    }

    /**
     * A whole count that fits @p T. Negative and fractional values die,
     * and so do values past T's maximum or past 2^53 - 1, beyond which
     * a double no longer holds every whole number (2^53 + 1 parses as
     * 2^53); the diagnostic names the maximum.
     */
    template <typename T>
    T
    count(const std::string &key, T fallback)
    {
        static_assert(std::is_unsigned_v<T>, "counts are unsigned");
        const std::string raw = take(key);
        if (raw.empty())
            return fallback;
        const double v = parse(key, raw);
        fatal_if(!(v >= 0) || v != std::floor(v),
                 "workload '%s': parameter %s=%s must be a whole count",
                 _spec.name.c_str(), key.c_str(), raw.c_str());
        constexpr std::uint64_t max = std::min<std::uint64_t>(
            std::numeric_limits<T>::max(), (1ULL << 53) - 1);
        fatal_if(v > static_cast<double>(max),
                 "workload '%s': parameter %s=%s exceeds the maximum %llu",
                 _spec.name.c_str(), key.c_str(), raw.c_str(),
                 static_cast<unsigned long long>(max));
        return static_cast<T>(v);
    }

    std::string
    text(const std::string &key, const std::string &fallback = "")
    {
        const std::string raw = take(key);
        return raw.empty() ? fallback : raw;
    }

    /** Fatal if any parameter was never consumed. */
    void
    finish() const
    {
        for (const auto &[k, v] : _spec.params) {
            fatal_if(!_used.count(k),
                     "workload '%s' does not take a parameter '%s'",
                     _spec.name.c_str(), k.c_str());
        }
    }

  private:
    double
    parse(const std::string &key, const std::string &raw) const
    {
        char *end = nullptr;
        const double v = std::strtod(raw.c_str(), &end);
        fatal_if(end == raw.c_str() || *end != '\0',
                 "workload '%s': parameter %s=%s is not a number",
                 _spec.name.c_str(), key.c_str(), raw.c_str());
        return v;
    }

    std::string
    take(const std::string &key)
    {
        _used.insert(key);
        return _spec.get(key);
    }

    const WorkloadSpec &_spec;
    std::set<std::string> _used;
};

/** Wrap @p inner in the burst modulator if the spec asks for it. */
std::unique_ptr<WorkloadGenerator>
applyBurst(std::unique_ptr<WorkloadGenerator> inner, ParamReader &p,
           const WorkloadSpec &spec)
{
    const auto period = p.count<std::uint64_t>("burst_period", 0);
    const double duty = p.number("burst_duty", 0.25);
    const auto bundle = p.count<std::uint32_t>("burst_bundle", 64);
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

WorkloadSpec
WorkloadSpec::parse(const std::string &text)
{
    WorkloadSpec spec;
    const auto colon = text.find(':');
    spec.name = text.substr(0, colon);
    fatal_if(spec.name.empty(), "empty workload name in '%s'",
             text.c_str());

    if (colon == std::string::npos)
        return spec;

    std::string rest = text.substr(colon + 1);
    std::istringstream ss(rest);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const auto eq = item.find('=');
        fatal_if(eq == std::string::npos || eq == 0,
                 "workload '%s': parameter '%s' is not key=value",
                 spec.name.c_str(), item.c_str());
        const std::string key = item.substr(0, eq);
        fatal_if(spec.has(key),
                 "workload '%s': duplicate parameter '%s'",
                 spec.name.c_str(), key.c_str());
        spec.params.emplace_back(key, item.substr(eq + 1));
    }
    return spec;
}

std::string
WorkloadSpec::canonical() const
{
    std::string out = name;
    for (std::size_t i = 0; i < params.size(); ++i) {
        out += i == 0 ? ':' : ',';
        out += params[i].first + "=" + params[i].second;
    }
    return out;
}

bool
WorkloadSpec::has(const std::string &key) const
{
    for (const auto &[k, v] : params)
        if (k == key)
            return true;
    return false;
}

std::string
WorkloadSpec::get(const std::string &key, const std::string &fallback) const
{
    for (const auto &[k, v] : params)
        if (k == key)
            return v;
    return fallback;
}

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
makeWorkload(const WorkloadSpec &spec, std::uint64_t instructions,
             std::uint64_t seed)
{
    ParamReader p(spec);
    std::unique_ptr<WorkloadGenerator> gen;

    if (spec.name == "kv_wal") {
        KvWalParams kp;
        kp.puts = p.number("puts", kp.puts);
        kp.scans = p.number("scans", kp.scans);
        kp.keys = p.count("keys", kp.keys);
        kp.zipf = p.number("zipf", kp.zipf);
        kp.valueWords = p.count("value_words", kp.valueWords);
        kp.walWords = p.count("wal_words", kp.walWords);
        kp.scanLength = p.count("scan_len", kp.scanLength);
        kp.thinkInstrs = p.count("think", kp.thinkInstrs);
        kp.checkpointEvery = p.count("ckpt_every", kp.checkpointEvery);
        kp.checkpointBlocks = p.count("ckpt_blocks", kp.checkpointBlocks);
        gen = std::make_unique<KvWalGenerator>(kp, instructions, seed);
    } else if (spec.name == "fs_journal" || spec.name == "pstore") {
        JournalParams jp;
        if (spec.name == "pstore") {
            // Panic-dump personality: rarer, bigger commits plus dumps.
            jp.dumpEvery = 64;
            jp.commitEvery = 8;
        }
        jp.txnStores = p.count("txn_stores", jp.txnStores);
        jp.metaBlocks = p.count("meta_blocks", jp.metaBlocks);
        jp.commitEvery = p.count("commit_every", jp.commitEvery);
        jp.journalBlocks = p.count("journal_blocks", jp.journalBlocks);
        jp.thinkInstrs = p.count("think", jp.thinkInstrs);
        jp.dumpEvery = p.count("dump_every", jp.dumpEvery);
        jp.dumpBlocks = p.count("dump_blocks", jp.dumpBlocks);
        gen = std::make_unique<JournalGenerator>(jp, instructions, seed);
    } else if (spec.name == "zipf_mix") {
        ZipfMixParams zp;
        zp.tenants = p.count("tenants", zp.tenants);
        zp.tenantZipf = p.number("tenant_zipf", zp.tenantZipf);
        zp.keysPerTenant = p.count("keys", zp.keysPerTenant);
        zp.keyZipf = p.number("key_zipf", zp.keyZipf);
        zp.puts = p.number("puts", zp.puts);
        zp.thinkInstrs = p.count("think", zp.thinkInstrs);
        zp.commitEvery = p.count("commit_every", zp.commitEvery);
        gen = std::make_unique<ZipfMixGenerator>(zp, instructions, seed);
    } else if (spec.name == "replay") {
        const std::string file = p.text("file");
        fatal_if(file.empty(),
                 "replay workload needs file=<path> "
                 "(or use --trace-in PATH)");
        gen = std::make_unique<ReplayGenerator>(file);
    } else if (spec.name == "spec") {
        const std::string profile = p.text("profile");
        fatal_if(profile.empty(),
                 "spec workload needs profile=<name> (e.g. "
                 "spec:profile=mcf)");
        gen = std::make_unique<SyntheticGenerator>(
            profileByName(profile), instructions, seed);
    } else {
        std::string known;
        for (const auto &n : registeredWorkloadNames())
            known += (known.empty() ? "" : ", ") + n;
        fatal("unknown workload '%s' (registered: %s)",
              spec.name.c_str(), known.c_str());
    }

    gen = applyBurst(std::move(gen), p, spec);
    p.finish();
    return gen;
}

std::unique_ptr<WorkloadGenerator>
makeWorkload(const std::string &text, std::uint64_t instructions,
             std::uint64_t seed)
{
    return makeWorkload(WorkloadSpec::parse(text), instructions, seed);
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
