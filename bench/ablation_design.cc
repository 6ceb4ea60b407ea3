/**
 * @file
 * Ablations of the design choices DESIGN.md calls out. Not a paper
 * figure: these isolate the mechanisms behind the headline results.
 *
 *  1. Drain width     -- concurrent drains hide late-tuple latency; with
 *                        width 1 the lazy schemes back up.
 *  2. Walker merging  -- merging same-leaf BMT updates into in-flight
 *                        walks is what keeps COBCM's drain path (and
 *                        write-heavy CM) off the walker bottleneck.
 *  3. Watermarks      -- the high watermark must leave headroom: draining
 *                        too late stalls accepts, too early wastes
 *                        coalescing.
 *  4. Store buffer    -- depth absorbs NoGap's per-store MAC latency
 *                        bursts.
 *
 * Every (variant, baseline) pair is two experiment points; each applies
 * the ablated knob to its SystemConfig when it is made and records the
 * knob in its tags.
 */

#include "bench_common.hh"

using namespace secpb;
using namespace secpb::bench;

namespace
{

struct Pair
{
    std::size_t variant;
    std::size_t base;
};

} // namespace

int
main(int argc, char **argv)
{
    const BenchCli cli = BenchCli::parse(
        argc, argv, "ablation_design", flag::Grid);

    Sweep sweep(cli);
    auto point = [&](Scheme s, const std::string &profile,
                     const std::string &knob, const std::string &value,
                     const std::function<void(SystemConfig &)> &apply) {
        ExperimentPoint p = cli.point(s, profile);
        p.label += "/" + knob + "=" + value;
        p.tag(knob, value);
        if (apply)
            apply(p.spec.base);
        return sweep.add(std::move(p));
    };

    // --- 1. Drain width --------------------------------------------------
    const unsigned widths[] = {1, 2, 4, 8, 16};
    std::vector<Pair> width_pairs;
    for (unsigned width : widths) {
        auto knob = [width](SystemConfig &cfg) {
            cfg.secpb.drainWidth = width;
        };
        width_pairs.push_back(
            {point(Scheme::Cobcm, "gamess", "drain_width",
                   std::to_string(width), knob),
             point(Scheme::Bbb, "gamess", "drain_width",
                   std::to_string(width), knob)});
    }

    // --- 2. Walker merging -----------------------------------------------
    const Scheme merge_schemes[] = {Scheme::Cobcm, Scheme::Cm};
    std::vector<Pair> merge_pairs;
    for (Scheme s : merge_schemes) {
        for (bool merge : {true, false}) {
            merge_pairs.push_back(
                {point(s, "gamess", "merging", merge ? "on" : "off",
                       [merge](SystemConfig &cfg) {
                           cfg.walker.enableMerging = merge;
                       }),
                 point(Scheme::Bbb, "gamess", "merging", "baseline", {})});
        }
    }

    // --- 3. Watermarks ---------------------------------------------------
    const double highs[] = {0.50, 0.625, 0.75, 0.875, 0.96875};
    std::vector<Pair> mark_pairs;
    for (double high : highs) {
        auto knob = [high](SystemConfig &cfg) {
            cfg.secpb.highWatermark = high;
            cfg.secpb.lowWatermark = high - 0.25;
        };
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.3f", high);
        mark_pairs.push_back(
            {point(Scheme::Cobcm, "gamess", "high_watermark", buf, knob),
             point(Scheme::Bbb, "gamess", "high_watermark", buf, knob)});
    }

    // --- 4. Store buffer depth -------------------------------------------
    const unsigned sbs[] = {8, 16, 32, 56, 112};
    std::vector<Pair> sb_pairs;
    for (unsigned sb : sbs) {
        auto knob = [sb](SystemConfig &cfg) {
            cfg.storeBufferEntries = sb;
        };
        sb_pairs.push_back(
            {point(Scheme::NoGap, "gcc", "sb_entries", std::to_string(sb),
                   knob),
             point(Scheme::Bbb, "gcc", "sb_entries", std::to_string(sb),
                   knob)});
    }

    sweep.run();

    auto ratio = [&](const Pair &pr) {
        return sweep.execRatio(pr.variant, pr.base);
    };

    std::printf("Design ablations (%llu instructions/run)\n",
                static_cast<unsigned long long>(cli.spec.instructions));

    std::printf("\n[1] COBCM slowdown vs BBB on gamess, by drain width\n");
    for (std::size_t i = 0; i < std::size(widths); ++i) {
        const double r = ratio(width_pairs[i]);
        sweep.derive("drain_width_slowdown",
                     "width=" + std::to_string(widths[i]), r);
        std::printf("    width %2u: %.3fx\n", widths[i], r);
    }

    std::printf("\n[2] BMT-update merging on gamess (merge on vs off)\n");
    std::size_t mi = 0;
    for (Scheme s : merge_schemes) {
        for (bool merge : {true, false}) {
            const double r = ratio(merge_pairs[mi++]);
            sweep.derive("merging_slowdown",
                         std::string(schemeName(s)) + "/" +
                             (merge ? "on" : "off"),
                         r);
            std::printf("    %-6s merging %-3s: %.3fx\n", schemeName(s),
                        merge ? "on" : "off", r);
        }
    }

    std::printf("\n[3] COBCM slowdown on gamess, by high watermark "
                "(low = high - 0.25)\n");
    for (std::size_t i = 0; i < std::size(highs); ++i) {
        const double r = ratio(mark_pairs[i]);
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.3f", highs[i]);
        sweep.derive("watermark_slowdown", std::string("high=") + buf, r);
        std::printf("    high %.3f: %.3fx\n", highs[i], r);
    }

    std::printf("\n[4] NoGap slowdown on gcc, by store buffer entries\n");
    for (std::size_t i = 0; i < std::size(sbs); ++i) {
        const double r = ratio(sb_pairs[i]);
        sweep.derive("sb_depth_slowdown",
                     "entries=" + std::to_string(sbs[i]), r);
        std::printf("    entries %3u: %.3fx\n", sbs[i], r);
    }

    sweep.writeJson();
    return 0;
}
